import pytest

from qqocert import core


@pytest.fixture
def scripted_search(monkeypatch):
    """core.product_form_minimum's loop on scripted pieces: run(points, values, value) -> (val, x, calls).

    Each point is a row (start, round).  The refine is handed every point with its value, as its
    callers hand their candidates, and the tables "x" and "y"; it takes lowest_indices(values) as its
    starts.  _lowest is scripted: on "x" it gives value(rows) and the rows themselves as y, on "y" it
    moves each row one round on.  So each call on "y" is one round, and its rows are the carries of
    the starts still running.  calls holds (table, rows) of every _lowest call in order.
    """

    def run(points, values, value):
        calls = []

        def lowest(v, table):
            calls.append((table, v.copy()))
            return (value(v), v.copy()) if table == "x" else (None, v + [0.0, 1.0])

        monkeypatch.setattr(core, "_lowest", lowest)
        val, x = core.product_form_minimum(("x", "y"), points, values)
        return val, x, calls

    return run

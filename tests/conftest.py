import pytest

from qqocert import core, epsilon, ks, sampling


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


@pytest.fixture
def draws(monkeypatch):
    """The keys sampling.sphere_points is called with during one test, which starts with an empty KS draw hold."""
    drawn, sphere_points = [], sampling.sphere_points

    def recording(*key):
        drawn.append(key)
        return sphere_points(*key)

    monkeypatch.setattr(ks, "_held", {})
    monkeypatch.setattr(sampling, "sphere_points", recording)
    return drawn


@pytest.fixture
def family_searched(monkeypatch, draws):
    """draws, with epsilon.coupling recognising no tensor, so that a family tensor takes the KS search.

    ks_global_check reads an exact family tensor's witness in closed form and draws nothing; a test that
    runs the search on one asserts that the returned list is not empty.
    """
    monkeypatch.setattr(epsilon, "coupling", lambda b: None)
    return draws

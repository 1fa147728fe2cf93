import numpy as np
import pytest

from qqocert import core
from qqocert.pauli import lowest_indices


@pytest.fixture
def scripted_search(monkeypatch):
    """core.product_form_minimum's loop on scripted pieces: run(points, values, value) -> (val, x, calls).

    Each point is a row (start, round).  The kernel hands over the starts of lowest_indices(values)
    with their values, _side_tables gives the tables "x" and "y", and _lowest is scripted: on "x" it
    gives value(rows) and the rows themselves as y, on "y" it moves each row one round on.  So each
    call on "y" is one round, and its rows are the carries of the starts still running.  calls holds
    (table, rows) of every _lowest call in order.
    """

    def run(points, values, value):
        calls = []

        def lowest(v, table):
            calls.append((table, v.copy()))
            return (value(v), v.copy()) if table == "x" else (None, v + [0.0, 1.0])

        def kernel(coords, table):
            starts = lowest_indices(values)
            return starts, values[starts]

        monkeypatch.setattr(core, "_side_tables", lambda *args: ("x", "y"))
        monkeypatch.setattr(core, "hermitian_lowest_eigvals", kernel)
        monkeypatch.setattr(core, "_lowest", lowest)
        val, x, _ = core.product_form_minimum(None, 2, 2, points, None)
        return val, x, calls

    return run

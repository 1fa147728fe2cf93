import io
import json
import os

import numpy as np
import pytest

from qqocert import build_coeff_tensor, iterate, load_tensor_file
from qqocert.cli import main
from qqocert.files import dump_report, write_text, write_trajectory_csv


def test_tensor_file_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    b = rng.standard_normal((3, 3, 3))
    path = tmp_path / "tensor.json"
    path.write_text(json.dumps({"b": b.tolist()}))
    back = load_tensor_file(str(path))
    assert np.max(np.abs(back - b)) <= 1e-15


def test_write_text_creates_then_replaces_whole_contents(tmp_path):
    path = tmp_path / "out.txt"
    write_text(str(path), "first, and longer than the second\n")
    assert path.read_text() == "first, and longer than the second\n"
    write_text(str(path), "second\n")
    assert path.read_bytes() == b"second\n"
    write_text(str(path), "")
    assert path.read_bytes() == b""
    write_text(str(path), "\u03b5 = 1/3\n")
    assert path.read_text(encoding="utf-8") == "\u03b5 = 1/3\n"


def test_write_text_to_a_device_skips_the_cut():
    write_text(os.devnull, "discarded\n")


def test_tensor_file_epsilon_shorthand(tmp_path):
    path = tmp_path / "eps.json"
    path.write_text('{"epsilon": 0.25}')
    assert np.array_equal(load_tensor_file(str(path)), build_coeff_tensor(0.25))


def test_tensor_file_nesting_order(tmp_path):
    # document nesting is m -> l -> k: b[m][l][k]
    b = np.zeros((3, 3, 3))
    b[0, 1, 2] = 7.0
    doc = {"b": [[[0.0] * 3 for _ in range(3)] for _ in range(3)]}
    doc["b"][0][1][2] = 7.0
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc))
    assert np.array_equal(load_tensor_file(str(path)), b)


def _tensor_doc_with(entry):
    """A zero tensor document with b[0][1][2] written as the JSON text entry."""
    b = [[[0.0] * 3 for _ in range(3)] for _ in range(3)]
    b[0][1][2] = "ENTRY"
    return json.dumps({"b": b}).replace('"ENTRY"', entry)


@pytest.mark.parametrize(
    "payload",
    [
        '{"b": [[[0]]]}',
        '{"epsilon": "x"}',
        '{"b": [], "epsilon": 0.1}',
        "{}",
        "[1, 2]",
        "not json",
        # bool is an int in Python and float() reads "0.1"; neither is a JSON number
        pytest.param('{"epsilon": true}', id="epsilon-true"),
        pytest.param(_tensor_doc_with("true"), id="b-true"),
        pytest.param(_tensor_doc_with('"0.1"'), id="b-string"),
        pytest.param('{"epsilon": 1' + "0" * 400 + "}", id="epsilon-beyond-float"),
        pytest.param(_tensor_doc_with("1" + "0" * 400), id="b-beyond-float"),
        # nesting is refused without recursing, at any depth
        pytest.param('{"b": ' + "[" * 700 + "]" * 700 + "}", id="b-nested-700"),
        pytest.param('{"b": ' + "[" * 100_000 + "]" * 100_000 + "}", id="b-nested-100000"),
        pytest.param(_tensor_doc_with("[" * 900 + "]" * 900), id="b-entry-nested-900"),
        pytest.param('{"epsilon": ' + "[" * 900 + "]" * 900 + "}", id="epsilon-nested-900"),
        pytest.param('{"b": [[[0, 0, 0], [0, 0, 0], [0, 0]], [], []]}', id="b-ragged"),
    ],
)
def test_tensor_file_rejects_bad_payloads(tmp_path, payload, capsys):
    path = tmp_path / "bad.json"
    path.write_text(payload)
    with pytest.raises(ValueError):
        load_tensor_file(str(path))
    assert main(["--tensor", str(path), "choi"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("eps", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_a_non_finite_epsilon_is_refused_by_the_tensor_gate(tmp_path, eps, capsys):
    # json reads these as float nan and inf; the one check is build_coeff_tensor's
    path = tmp_path / "eps.json"
    path.write_text('{"epsilon": %s}' % eps)
    assert main(["--tensor", str(path), "certify"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"{path}: bad tensor payload (coefficient tensor entries must be finite" in err


def test_trajectory_csv_schema():
    traj = iterate(0.5, [0.6, 0.0, 0.0], tol=1e-10)
    buf = io.StringIO()
    write_trajectory_csv(traj, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "step,f1,f2,f3,rho"
    assert len(lines) == len(traj.steps) + 1
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == 0.6
    assert float(first[4]) == pytest.approx(0.36)
    # rows parse back to the recorded values exactly
    for line, (idx, f, rho) in zip(lines[1:], traj.steps):
        cells = line.split(",")
        assert int(cells[0]) == idx
        assert [float(c) for c in cells[1:4]] == [float(v) for v in f]
        assert float(cells[4]) == rho


def test_report_schema_and_determinism():
    rep = {"command": "demo", "value": 1.0 / 3.0, "nested": {"z": 1, "a": 2}}
    b1, b2 = io.StringIO(), io.StringIO()
    dump_report(rep, b1)
    dump_report(rep, b2)
    assert b1.getvalue() == b2.getvalue()
    doc = json.loads(b1.getvalue())
    assert doc["schema"] == "v1"
    assert doc["value"] == 1.0 / 3.0


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_report_refuses_non_finite_values(bad):
    buf = io.StringIO()
    with pytest.raises(ValueError):
        dump_report({"value": bad}, buf)
    assert buf.getvalue() == ""


def test_report_encodes_numpy_arrays():
    buf = io.StringIO()
    rep = {"real": np.array([[0.5, -1.0], [2.0, 0.25]]), "complex": np.array([1 + 2j, 3 - 0.5j])}
    dump_report(rep, buf)
    doc = json.loads(buf.getvalue())
    assert doc["real"] == [[0.5, -1.0], [2.0, 0.25]]
    assert doc["complex"] == {"re": [1.0, 3.0], "im": [2.0, -0.5]}
    with pytest.raises(TypeError):
        dump_report({"value": object()}, io.StringIO())
    with pytest.raises(ValueError):
        dump_report({"value": np.array([1.0, np.nan])}, io.StringIO())

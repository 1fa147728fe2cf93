"""The README's library quick start and command-line examples run as written and say what they return."""

import ast
import json
import pathlib
import re
import shlex

import numpy as np

from qqocert import build_coeff_tensor, cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def quick_start_values():
    """Run the quick-start block statement by statement; return the value of each bare expression."""
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", README.read_text(), re.S).group(1)
    namespace, values = {}, []
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            values.append(eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace))
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    return values


def test_quick_start_matches_its_comments():
    positive, cp, min_eig, (converged, limit), points = quick_start_values()
    assert positive is True
    assert cp is False
    assert round(min_eig, 2) == -0.91
    assert converged is True
    assert np.linalg.norm(limit) <= 1e-12
    # at coupling 1/sqrt(3): the origin and the diagonal corner of the ball
    assert len(points) == 2
    assert np.array_equal(points[0], np.zeros(3))
    assert np.allclose(points[1], np.ones(3) / np.sqrt(3.0), atol=1e-12)


def test_command_line_examples_run_as_written(tmp_path, monkeypatch, capsys):
    block = re.search(r"## Command line\n.*?```\n(.*?)```", README.read_text(), re.S).group(1)
    lines = block.splitlines()
    monkeypatch.chdir(tmp_path)
    # a completely positive tensor, so the second line's certify passes
    (tmp_path / "tensor.json").write_text(json.dumps({"b": build_coeff_tensor(0.1).tolist()}))
    codes = []
    for line in lines:
        program, *argv = shlex.split(line)
        assert program == "qqocert"
        codes.append(cli.main(argv))
        assert capsys.readouterr().out
    assert codes == [0, 0, 1, 1, 0, 0, 0]
    assert (tmp_path / "traj.csv").read_text().startswith("step,f1,f2,f3,rho\n")

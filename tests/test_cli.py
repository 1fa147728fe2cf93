import contextlib
import io
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import qqocert
from qqocert import cli, core
from qqocert.cli import build_parser, main


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_certify_cp_coupling_passes(capsys):
    code, out, _ = run(["--epsilon", "0.19", "--samples", "1500", "certify"], capsys)
    doc = json.loads(out)
    assert code == 0
    assert doc["schema"] == "v1"
    assert doc["all_pass"]
    assert doc["complete_positivity"]["is_cp"]
    assert doc["positivity"]["is_positive"]
    assert doc["state_preservation"]["passes"]
    assert not doc["ks_violation"]["found"]


def test_certify_positivity_boundary_fails_cp_and_ks(capsys):
    code, out, _ = run(
        ["--epsilon", "0.3333333333", "--samples", "1500", "certify"], capsys
    )
    doc = json.loads(out)
    assert code == 1
    assert doc["positivity"]["is_positive"]
    assert not doc["complete_positivity"]["is_cp"]
    assert doc["ks_violation"]["found"]
    assert doc["ks_violation"]["min_eig"] <= -1e-6


def test_certify_nonpositive_coupling(capsys):
    code, out, _ = run(["--epsilon", "0.4", "--samples", "1500", "certify"], capsys)
    doc = json.loads(out)
    assert code == 1
    assert not doc["positivity"]["is_positive"]
    assert doc["positivity"]["margin"] == pytest.approx(1.0 - 3 * 0.4, abs=1e-9)
    assert np.linalg.norm(doc["positivity"]["worst_w"]) == pytest.approx(1.0, abs=1e-9)


def test_certify_tensor_file_path(tmp_path, capsys):
    path = tmp_path / "t.json"
    path.write_text('{"epsilon": 0.15}')
    code, out, _ = run(["--tensor", str(path), "--samples", "1200", "certify"], capsys)
    doc = json.loads(out)
    assert code == 0
    assert doc["input"] == {"tensor": str(path)}
    assert doc["all_pass"]


def test_certify_input_validation(tmp_path, capsys):
    code, _, err = run(["certify"], capsys)
    assert code == 2
    assert "exactly one" in err
    code, _, err = run(["--epsilon", "0.1", "--tensor", "x.json", "certify"], capsys)
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    code, _, err = run(["--tensor", str(bad), "certify"], capsys)
    assert code == 2
    code, _, err = run(["--tensor", str(tmp_path / "missing.json"), "certify"], capsys)
    assert code == 2


def test_ks_command_reports_conditions(capsys):
    code, out, _ = run(["--epsilon", "0.3333333333333333", "--samples", "1500", "ks"], capsys)
    doc = json.loads(out)
    assert code == 1
    assert doc["witness"]["found"]
    assert doc["witness"]["min_eig"] <= -1e-6
    assert len(doc["abcd"]) == 4
    code, out, _ = run(["--epsilon", "0.1", "--samples", "1500", "ks"], capsys)
    doc = json.loads(out)
    assert code == 0
    assert not doc["witness"]["found"]
    assert doc["holds11"] and doc["holds2"]


def test_choi_command(capsys):
    code, out, _ = run(["--epsilon", "0.1", "choi"], capsys)
    doc = json.loads(out)
    assert code == 0
    assert doc["is_cp"]
    assert doc["max_abs_eig"] == pytest.approx(1 + 0.1 * 3 * np.sqrt(3), abs=1e-9)
    code, out, _ = run(["--epsilon", "0.3333333333333333", "choi"], capsys)
    doc = json.loads(out)
    assert code == 1
    assert doc["min_eig"] == pytest.approx(1 - np.sqrt(3), abs=1e-9)


def test_simulate_writes_trajectory(tmp_path, capsys):
    out_path = tmp_path / "traj.csv"
    code, out, _ = run(
        ["--epsilon", "0.5", "--init", "0.6,0,0", "--output", str(out_path), "simulate"],
        capsys,
    )
    assert code == 0
    assert "converged=True" in out
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "step,f1,f2,f3,rho"
    assert len(lines) >= 3


@pytest.mark.parametrize(
    "argv",
    [
        ["--epsilon", "0.2", "--samples", "300", "certify"],
        ["--epsilon", "0.2", "--samples", "300", "ks"],
        ["--epsilon", "0.2", "choi"],
        ["--epsilon", "0.2", "fixed-points"],
        ["--epsilon", "0.4", "--count", "2", "--samples", "300", "sweep"],
        ["--epsilon", "0.5", "--init", "0.6,0,0", "simulate"],
    ],
    ids=lambda argv: argv[-1],
)
def test_output_replaces_a_longer_existing_file(argv, tmp_path, capsys):
    path = tmp_path / "out.txt"
    path.write_text("stale\n" * 1000)
    code, _, _ = run(argv + ["--output", str(path)], capsys)
    expected = run(argv, capsys)
    assert code == expected[0]
    assert path.read_text() == expected[1]


def test_simulate_stationary_at_rounded_critical(tmp_path, capsys):
    code, out, _ = run(
        [
            "--epsilon",
            "0.5773502692",
            "--init",
            "0.5773502692,0.5773502692,0.5773502692",
            "--output",
            str(tmp_path / "t.csv"),
            "simulate",
        ],
        capsys,
    )
    assert code == 0
    assert "converged=False" in out


def test_simulate_domain_errors(capsys):
    code, _, err = run(["--epsilon", "0.7", "simulate"], capsys)
    assert code == 2
    assert "1/sqrt(3)" in err
    code, _, err = run(["--epsilon", "0.5", "--init", "1.2,0,0", "simulate"], capsys)
    assert code == 2


def test_fixed_points_command(capsys):
    code, out, _ = run(["--epsilon", "0.5773502691896258", "fixed-points"], capsys)
    doc = json.loads(out)
    assert code == 0
    assert len(doc["points"]) == 2
    assert max(doc["residuals"]) <= 1e-12


def test_sweep_command(capsys):
    code, out, _ = run(
        ["--epsilon", "0.4", "--count", "3", "--samples", "600", "sweep"], capsys
    )
    doc = json.loads(out)
    assert code == 0
    eps_values = [row["epsilon"] for row in doc["rows"]]
    assert eps_values == sorted(eps_values)
    assert doc["rows"][1]["epsilon"] == 0.0
    assert doc["rows"][1]["band"] == "cp"
    assert doc["rows"][0]["band"] == "state-preserving"
    assert not doc["rows"][0]["is_positive"]


def test_reports_are_reproducible(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(
            ["--epsilon", "0.2", "--samples", "900", "--output", str(path), "certify"],
            capsys,
        )
        assert code == 1  # 0.2 is positive but not CP; a KS witness may exist
    assert a.read_bytes() == b.read_bytes()


def test_output_flag_after_subcommand(tmp_path, capsys):
    out_path = tmp_path / "r.json"
    code, _, _ = run(["choi", "--epsilon", "0.1", "--output", str(out_path)], capsys)
    assert code == 0
    assert json.loads(out_path.read_text())["is_cp"]


@pytest.mark.parametrize(
    "argv",
    [
        ["--epsilon", "inf", "choi"],
        ["--epsilon", "nan", "choi"],
        ["--epsilon=-inf", "certify"],
        ["--epsilon", "nan", "fixed-points"],
        ["choi", "--epsilon", "nan"],
        ["--epsilon", "0.1", "--tol", "nan", "ks"],
        ["--epsilon", "0.5", "--tol", "inf", "simulate"],
    ],
)
def test_non_finite_floats_exit_2_without_output(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert "finite" in err




@pytest.mark.parametrize("command, code", [("certify", 1), ("ks", 1), ("choi", 1), ("sweep", 0)])
@pytest.mark.parametrize("eps", [core.MAX_COEFF, -core.MAX_COEFF])
def test_couplings_at_the_tensor_bound_run_clean(eps, command, code, capsys):
    # every quantity formed is at most quartic in the entries; an overflow warning fails under filterwarnings
    got, out, err = run(["--epsilon", repr(eps), command], capsys)
    assert (got, err) == (code, "")
    strict_json(out)


def test_tensor_file_at_the_bound_runs_clean(tmp_path, capsys):
    path = tmp_path / "t.json"
    b = core.MAX_COEFF * np.sign(np.random.default_rng(5).standard_normal((3, 3, 3)))
    path.write_text(json.dumps({"b": b.tolist()}))
    for command in ("certify", "ks", "choi"):
        code, out, err = run(["--tensor", str(path), command], capsys)
        assert (code, err) == (1, "")
        strict_json(out)


@pytest.mark.parametrize("command", ["certify", "ks", "choi", "sweep"])
def test_entries_above_the_tensor_bound_exit_2(command, tmp_path, capsys):
    bound = f"at most {core.MAX_COEFF:g}"
    for eps in ("1e308", "-1e308"):
        code, out, err = run(["--epsilon", eps, command], capsys)
        assert (code, out) == (2, "") and bound in err
    if command != "sweep":
        b = np.full((3, 3, 3), 0.1)
        b[1, 2, 0] = 1e70
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"b": b.tolist()}))
        code, out, err = run(["--tensor", str(path), command], capsys)
        assert (code, out) == (2, "") and bound in err

@pytest.mark.parametrize(
    "argv",
    [
        ["--epsilon", "-2.822090991183579e-05", "--steps", "3", "simulate"],
        ["simulate", "--epsilon", "-1e-3", "--steps", "3"],
        ["--epsilon", "0.3", "--init", "-0.1,0.2,0", "--steps", "3", "simulate"],
        ["--epsilon", "0.3", "simulate", "--init", "-.5,0,0", "--steps", "3"],
    ],
)
def test_negative_values_as_separate_words(argv, capsys):
    # argparse alone reads "-1e-3" and "-0.1,0.2,0" as unknown options
    code, out, err = run(argv, capsys)
    assert code == 0, err
    assert out.startswith("step,f1,f2,f3,rho\n")


def _child_env():
    """Environment for a child interpreter that finds the package where this process found it."""
    src = os.path.dirname(os.path.dirname(qqocert.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_runtime_does_not_import_scipy():
    probe = "import sys, qqocert, qqocert.cli; print('scipy' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=_child_env()
    )
    assert done.stdout.strip() == "False"


def test_import_runs_no_linear_algebra():
    # an import-time factorization would cost every call, dynamics included, its BLAS buffers
    probe = (
        "import numpy as np\n"
        "called = []\n"
        "for name in ('qr', 'eigh', 'eigvalsh', 'svd'):\n"
        "    def wrapped(*args, _name=name, _fn=getattr(np.linalg, name), **kwargs):\n"
        "        called.append(_name)\n"
        "        return _fn(*args, **kwargs)\n"
        "    setattr(np.linalg, name, wrapped)\n"
        "import qqocert, qqocert.cli\n"
        "qqocert.cli.build_parser()\n"
        "print(sorted(called))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=_child_env()
    )
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "argv",
    [["--epsilon", "0.2", "choi"], ["--epsilon", "0.5", "--init", "0.6,0,0", "simulate"]],
    ids=lambda argv: argv[-1],
)
def test_module_entry_point_matches_in_process_main(argv, capsys):
    # python -m qqocert writes to the real stdout, which no in-process test sees
    done = subprocess.run(
        [sys.executable, "-m", "qqocert", *argv], capture_output=True, env=_child_env()
    )
    code, out, err = run(argv, capsys)
    assert done.returncode == code
    assert done.stdout == out.encode()
    assert done.stderr == err.encode()


@pytest.mark.parametrize("tol", ["0", "-1"])
def test_simulate_non_positive_tol_exits_2_without_output(tol, capsys):
    code, out, err = run(["--epsilon", "0.5", "--tol", tol, "simulate"], capsys)
    assert code == 2
    assert out == ""
    assert "tol must be positive" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--epsilon", "0.4", "--count", "2", "--tol", "-5", "sweep"],
        ["--epsilon", "0.4", "--samples", "10", "--tol", "0", "ks"],
        ["--epsilon", "0.4", "--samples", "10", "--tol", "-5", "certify"],
    ],
)
def test_ks_non_positive_tol_exits_2_without_output(argv, capsys):
    # every subcommand that searches for a KS witness reads --tol
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert "tol must be positive" in err


@pytest.mark.parametrize("tol", ["-5", "0"])
def test_certify_refuses_bad_tol_before_any_scan(tol, monkeypatch, capsys):
    def scanned(*args, **kwargs):
        raise AssertionError("certify scanned before it checked --tol")

    monkeypatch.setattr(core, "state_preservation_check", scanned)
    code, out, err = run(["--epsilon", "0.4", "--tol", tol, "certify"], capsys)
    assert code == 2
    assert out == ""
    assert "tol must be positive" in err


_SOURCES = {"both": ["--epsilon", "0.5", "--tensor", "{missing}"], "tensor": ["--tensor", "{doc}"], "none": []}


# sweep has a default --epsilon, so only a given --tensor reaches the refusal
@pytest.mark.parametrize(
    "command, source",
    [(c, s) for c in ("fixed-points", "simulate") for s in _SOURCES] + [("sweep", "both"), ("sweep", "tensor")],
)
def test_family_subcommands_refuse_tensor(command, source, tmp_path, capsys):
    doc = tmp_path / "t.json"
    doc.write_text('{"epsilon": 0.5}')
    argv = [word.format(doc=doc, missing=tmp_path / "missing.json") for word in _SOURCES[source]]
    code, out, err = run(argv + [command], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {command} requires --epsilon and takes no --tensor\n"


# ---------------------------------------------------------------- report schema

_CERTIFY_KEYS = [
    "all_pass", "command", "complete_positivity", "input", "ks_violation",
    "positivity", "samples", "schema", "seed", "state_preservation",
]
_KS_KEYS = [
    "abcd", "command", "holds11", "holds2", "input", "lhs11", "lhs2",
    "rhs11", "rhs2", "samples", "schema", "seed", "tol", "witness",
]
_CHOI_KEYS = ["command", "eigenvalues", "input", "is_cp", "max_abs_eig", "min_eig", "schema"]


def test_report_key_sets_are_pinned(tmp_path, capsys):
    # the blocks are the certificates' dataclasses; a new field would change the schema
    def report(argv):
        return json.loads(run(argv, capsys)[1])

    doc = tmp_path / "t.json"
    doc.write_text('{"epsilon": 0.3333333333333333}')
    for source, input_key in ((["--epsilon", "0.3333333333333333"], "epsilon"), (["--tensor", str(doc)], "tensor")):
        rep = report(source + ["--samples", "600", "certify"])
        assert sorted(rep) == _CERTIFY_KEYS
        assert sorted(rep["input"]) == [input_key]
        assert sorted(rep["state_preservation"]) == ["max_norm", "passes", "witness_f", "witness_p"]
        assert sorted(rep["positivity"]) == ["is_positive", "margin", "worst_w"]
        assert sorted(rep["complete_positivity"]) == ["is_cp", "min_choi_eig"]
        assert sorted(rep["ks_violation"]) == ["found", "min_eig", "w"]
        assert sorted(rep["ks_violation"]["w"]) == ["im", "re"]
        rep = report(source + ["--samples", "600", "ks"])
        assert sorted(rep) == _KS_KEYS
        assert sorted(rep["witness"]) == ["found", "min_eig", "w"]
        assert sorted(report(source + ["choi"])) == _CHOI_KEYS
    rep = report(["--epsilon", "0.1", "--samples", "600", "ks"])
    assert sorted(rep) == _KS_KEYS
    assert rep["witness"] == {"found": False}
    rep = report(["--epsilon", "0.2", "fixed-points"])
    assert sorted(rep) == ["command", "input", "points", "residuals", "schema"]
    rep = report(["--epsilon", "0.4", "--count", "2", "--samples", "300", "sweep"])
    assert sorted(rep) == ["command", "rows", "samples", "schema", "seed"]
    assert sorted(rep["rows"][0]) == [
        "band", "epsilon", "is_cp", "is_positive", "ks_min_eig",
        "ks_violation_found", "min_choi_eig", "positivity_margin",
    ]


# ---------------------------------------------------------------- one parser per process


def test_main_builds_its_parser_once(monkeypatch, capsys):
    built = []
    init = cli._Parser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting)
    build_parser()
    per_build = len(built)  # one parser per build, the command a positional of it
    built.clear()
    cli._parser.cache_clear()
    for _ in range(2):
        assert run(["--epsilon", "0.1", "choi"], capsys)[0] == 0
    assert len(built) == per_build
    assert build_parser() is not build_parser()


def test_reused_parser_keeps_no_state_between_calls(tmp_path, capsys):
    _, out, _ = run(["--epsilon", "0.1", "--samples", "64", "certify"], capsys)
    assert json.loads(out)["samples"] == 64
    _, out, _ = run(["--epsilon", "0.1", "certify"], capsys)
    assert json.loads(out)["samples"] == 20000

    path = tmp_path / "ks.json"
    _, out, _ = run(["--epsilon", "0.1", "--output", str(path), "ks"], capsys)
    assert out == ""
    assert json.loads(path.read_text())["command"] == "ks"
    path.unlink()
    _, out, _ = run(["--epsilon", "0.1", "ks"], capsys)
    assert json.loads(out)["command"] == "ks"
    assert not path.exists()

    valid = ["--epsilon", "0.2", "--samples", "64", "certify"]
    cli._parser.cache_clear()
    first = run(valid, capsys)
    cli._parser.cache_clear()
    with pytest.raises(SystemExit) as exc:
        main(["--epsilon", "0.2", "--samples", "0", "certify"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run(valid, capsys) == first


# ---------------------------------------------------------------- fuzz

_COMMANDS = ("certify", "ks", "choi", "simulate", "fixed-points", "sweep")
_CSV_ROW = re.compile(r"\d+(,[-+0-9.e]+){4}")
_SUMMARY = re.compile(r"steps=\d+ converged=(True|False) final_rho=\S+ limit=\[.*\]")


def _mostly(valid, *invalid):
    """Draw from valid, or now and then from the invalid spellings."""
    return st.one_of(valid, st.sampled_from(invalid))


def _number(lo, hi):
    return _mostly(
        st.floats(lo, hi, allow_nan=False).map(repr),
        "nan", "inf", "-inf", "1e400", "x", "", "0", "-1", "0.5773502692", "-0.0",
    )


def _tensor_doc():
    tensor = st.lists(st.floats(-2.0, 2.0, allow_nan=False), min_size=27, max_size=27).map(
        lambda v: json.dumps({"b": np.reshape(v, (3, 3, 3)).tolist()})
    )
    family = st.floats(-1.0, 1.0, allow_nan=False).map(lambda e: json.dumps({"epsilon": e}))
    return _mostly(
        st.one_of(tensor, family),
        "{", "[1, 2]", "{}", '{"b": [[1, 2], [3]]}', '{"b": "abc"}', '{"b": {"x": 1}}',
        '{"epsilon": NaN}', '{"epsilon": "0.1"}', '{"epsilon": 0.1, "b": []}',
    )


@st.composite
def _argv(draw):
    """argv from the flag grammar; budget flags always present and small, now and then below range.

    Paths are "{doc}", "{missing}", "{dir}" or "{out}", filled in per example.
    """
    flags = [
        ("samples", str(draw(st.integers(-5, 64)))),
        # a quarter of the counts fall below 1; the rest keep the handlers running
        ("count", str(draw(st.integers(1, 3) | st.integers(-2, 3)))),
        ("steps", str(draw(st.integers(0, 50)))),
    ]
    source = draw(st.sampled_from(["epsilon", "tensor", "both", "none"]))
    if source in ("epsilon", "both"):
        flags.append(("epsilon", draw(_number(-0.6, 0.6))))
    if source in ("tensor", "both"):
        flags.append(("tensor", draw(_mostly(st.just("{doc}"), "{missing}", "{dir}"))))
    optional = {
        "seed": _mostly(st.integers(0, 2**40).map(str), "0", "-1", "-7", "1.5"),
        "tol": _number(1e-12, 1e-2),
        "init": st.lists(_number(-0.5, 0.5), min_size=2, max_size=4).map(",".join),
        "output": _mostly(st.just("{out}"), "{dir}"),
    }
    for name, values in optional.items():
        if draw(st.booleans()):
            flags.append((name, draw(values)))
    flags = draw(st.permutations(flags))
    split = draw(st.integers(0, len(flags)))
    # each flag as "--name=value" or as two words "--name value"
    words = [
        [f"--{name}", value] if draw(st.booleans()) else [f"--{name}={value}"]
        for name, value in flags
    ]
    command = [draw(st.sampled_from(_COMMANDS))]
    return sum(words[:split], []) + command + sum(words[split:], [])


@settings(
    deadline=None,
    max_examples=250,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(argv=_argv(), doc=_tensor_doc())
def test_cli_fuzz_exit_codes_and_output(argv, doc, tmp_path):
    paths = {
        "doc": tmp_path / "tensor.json",
        "missing": tmp_path / "missing.json",
        "dir": tmp_path,
        "out": tmp_path / "out.txt",
    }
    paths["doc"].write_text(doc)
    argv = [word.format(**paths) for word in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), (argv, code, err)
    if _below(argv, "samples", 1) or _below(argv, "seed", 0) or _below(argv, "count", 1):
        assert code == 2 and "error: argument --" in err, (argv, code, err)
    assert "Traceback" not in err
    if code == 2:
        assert out == ""
    if not out:
        return
    if out.startswith("step,f1,f2,f3,rho\n"):
        lines = out.splitlines()
        assert all(_CSV_ROW.fullmatch(line) for line in lines[1:]), out
        assert _SUMMARY.fullmatch(err.strip()), err
    elif "simulate" in argv:
        assert _SUMMARY.fullmatch(out.strip()), out
    else:
        assert isinstance(strict_json(out), dict)


def _below(argv, name, low):
    """True if --name is given, as one word or two, an integer below low."""
    values = [b for a, b in zip(argv, argv[1:]) if a == f"--{name}"]
    values += [w.split("=", 1)[1] for w in argv if w.startswith(f"--{name}=")]
    return any(re.fullmatch(r"-?\d+", v) and int(v) < low for v in values)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--epsilon", "0.1", "--samples", "-5", "ks"], "argument --samples: must be >= 1, got '-5'"),
        (["--epsilon", "0.1", "certify", "--samples=0"], "argument --samples: must be >= 1, got '0'"),
        (["--epsilon", "0.1", "--seed", "-1", "sweep"], "argument --seed: must be >= 0, got '-1'"),
        (["choi", "--epsilon", "0.1", "--seed=-3"], "argument --seed: must be >= 0, got '-3'"),
        (["--count", "0", "sweep"], "argument --count: must be >= 1, got '0'"),
        (["--epsilon", "0.5", "--init", "nan,0,0", "simulate"], "argument --init: must be a finite number, got 'nan'"),
        (["--epsilon", "0.5", "--init", "0,inf,0", "simulate"], "argument --init: must be a finite number, got 'inf'"),
        (["--epsilon", "0.5", "--init", "0,0,-inf", "simulate"], "argument --init: must be a finite number, got '-inf'"),
        (["--epsilon", "0.5", "--steps", "-1", "simulate"], "argument --steps: must be >= 0, got '-1'"),
        (["--epsilon", "0.5", "simulate", "--init=1,2"], "argument --init: expects three comma-separated numbers, got '1,2'"),
    ],
)
def test_samples_and_seed_validated_at_entry(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert message in err


def test_help_lists_the_command_table_in_order(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    out, _ = capsys.readouterr()
    assert exc.value.code == 0
    listed = out.split("\ncommands:\n", 1)[1].splitlines()
    assert listed == [f"  {name:<14}{row[0]}" for name, row in cli._COMMANDS.items()]
    (command,) = [action for action in build_parser()._actions if action.dest == "command"]
    assert list(command.choices) == list(cli._COMMANDS)
    # the fuzz grammar names the commands by hand, so a command dropped from the table fails here
    assert sorted(cli._COMMANDS) == sorted(_COMMANDS)


def strict_json(text):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)

import json
import subprocess
import sys

import numpy as np
import pytest

from qqocert.cli import main


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



@pytest.mark.parametrize(
    "argv",
    [
        ["--epsilon", "0.5", "--init", "nan,0,0", "simulate"],
        ["--epsilon", "0.5", "--init", "0,inf,0", "simulate"],
        ["--epsilon", "0.5", "--init", "0,0,-inf", "simulate"],
        ["--epsilon", "0.5", "--steps", "-1", "simulate"],
    ],
)
def test_simulate_bad_init_or_steps_exit_2_without_output(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_runtime_does_not_import_scipy():
    probe = "import sys, qqocert, qqocert.cli; print('scipy' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "False"

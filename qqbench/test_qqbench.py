"""The benchmark's own tests: tiny smoke runs and checks that must fail.

Run from the repository root:  python3 -m pytest -q qqbench
"""

import copy
import io
import json
import sys
from contextlib import redirect_stdout

import pytest

import run  # pins the BLAS threads before numpy loads

sys.path.insert(0, str(run.SRC))

import numpy as np  # noqa: E402

import refcheck  # noqa: E402
import workloads  # noqa: E402
from qqocert import cli  # noqa: E402

TINY = 400


def call(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    return out.getvalue(), code


@pytest.fixture(scope="module")
def certify_third():
    """A real certify report at eps = 0.3333333333: positive, not CP, KS violated."""
    eps = 0.3333333333
    out, code = call(["--epsilon", repr(eps), "--samples", str(TINY), "certify"])
    return json.loads(out), code, refcheck.family_tensor(eps), eps


def test_family_smoke_passes_its_checks():
    doc = run.run_workload("family", 3, 0, trace=False, samples=TINY)
    assert doc["failed"] == 0, doc["problems"]
    assert doc["rounds"] == 1
    assert set(doc["latency"]) == {"certify_s", "ks_s", "choi_s", "sweep_row_s"}
    assert all(v > 0 for v in doc["end_to_end"].values())


def test_general_smoke_traced_reaches_every_general_layer():
    doc = run.run_workload("general", 3, 0, trace=True, samples=TINY)
    assert doc["failed"] == 0, doc["problems"]
    layers = doc["layers"]
    for name in ("pauli.eig_single.calls", "pauli.eig_batch.calls", "sampling.points",
                 "ks.global_check.calls", "ks.refine.calls", "core.positivity.s",
                 "core.preservation.s", "core.choi.s", "files.load.s", "files.dump.bytes"):
        assert layers[name] > 0, name
    # three certify scans of TINY points each, plus the ks scan
    assert layers["pauli.eig_batch.matrices"] > 0
    assert layers.get("epsilon.positivity.s", 0) == layers.get("dynamics.fixed_points.calls", 0) == 0
    assert 0 < layers["ks.refine.useful_ratio"] <= 1
    assert layers["cli.calls"] == doc["attempted"] / 2


def test_dynamics_smoke_traced_never_reaches_eig_or_ks():
    doc = run.run_workload("dynamics", 3, 0, trace=True)
    assert doc["failed"] == 0, doc["problems"]
    layers = doc["layers"]
    for name in ("pauli.eig_single.calls", "pauli.eig_batch.calls", "ks.global_check.calls",
                 "ks.refine.calls"):
        assert layers.get(name, 0) == 0, name
    assert layers["dynamics.fixed_points.calls"] == workloads.DYN_INSIDE + 2
    assert layers["files.csv.rows"] > workloads.DYN_SIMULATE


def test_untouched_report_passes(certify_third):
    doc, code, b, eps = certify_third
    assert refcheck.check_certify(doc, code, b, eps, samples=TINY) == []


@pytest.mark.parametrize("path", [
    ("complete_positivity", "is_cp"),
    ("positivity", "is_positive"),
    ("state_preservation", "passes"),
    ("all_pass",),
])
def test_flipped_verdict_is_flagged(certify_third, path):
    doc, code, b, eps = certify_third
    bad = copy.deepcopy(doc)
    node = bad
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = not node[path[-1]]
    assert refcheck.check_certify(bad, code, b, eps, samples=TINY)


def test_wrong_witness_min_eig_is_flagged(certify_third):
    doc, code, b, eps = certify_third
    bad = copy.deepcopy(doc)
    bad["ks_violation"]["min_eig"] += 1e-4
    assert any("min_eig" in p for p in refcheck.check_certify(bad, code, b, eps, samples=TINY))


def test_lowered_samples_are_flagged(certify_third):
    doc, code, b, eps = certify_third
    assert any("samples" in p for p in refcheck.check_certify(doc, code, b, eps))
    bad = dict(doc, samples=TINY - 1)
    assert any("samples" in p for p in refcheck.check_certify(bad, code, b, eps, samples=TINY))


def test_wrong_exit_code_is_flagged(certify_third):
    doc, code, b, eps = certify_third
    assert refcheck.check_certify(doc, 1 - code, b, eps, samples=TINY)


def test_fixed_points_and_simulate_corruptions_are_flagged(tmp_path):
    eps = workloads.CRITICAL
    out, code = call(["--epsilon", repr(eps), "fixed-points"])
    doc = json.loads(out)
    assert refcheck.check_fixed_points(doc, code, eps) == []
    assert refcheck.check_fixed_points(dict(doc, points=doc["points"][:1]), code, eps)

    path = tmp_path / "orbit.csv"
    out, code = call(["--epsilon", "0.5", "--init=0.3,-0.2,0.1", "--output", str(path), "simulate"])
    text = path.read_text()
    assert refcheck.check_simulate(out, code, text, 0.5, [0.3, -0.2, 0.1]) == []
    lines = text.splitlines()
    lines[2] = lines[2].replace(",", ",1", 1)
    assert refcheck.check_simulate(out, code, "\n".join(lines), 0.5, [0.3, -0.2, 0.1])
    assert refcheck.check_simulate(out.replace("converged=True", "converged=False"), code, text,
                                   0.5, [0.3, -0.2, 0.1])


def test_references_match_the_paper_thresholds():
    # the CP threshold is where the Choi matrix of the family stops being positive
    assert refcheck.choi_min_eig(refcheck.family_tensor(refcheck.CP_THRESHOLD * (1 - 1e-9))) >= -1e-10
    assert refcheck.choi_min_eig(refcheck.family_tensor(refcheck.CP_THRESHOLD * (1 + 1e-3))) < 0
    # the KS defect is positive for a CP map at any direction
    rng = np.random.default_rng(0)
    w = rng.normal(size=3) + 1j * rng.normal(size=3)
    w /= np.linalg.norm(w)
    assert np.linalg.eigvalsh(refcheck.ks_defect(refcheck.family_tensor(0.1), w))[0] >= 0

"""Independent references and report checks for the qqocert benchmark.

Nothing here imports qqocert.  Every reference is rebuilt with numpy from
the definitions of the source paper:

* the map  Delta(w0*1 + w.sigma) = w0*(1 x 1) + sum_{m,l} (sum_i b[m][l][i] w_i) sigma_m x sigma_l,
* its dual on product states  out_k = sum_{i,j} b[i][j][k] f_i p_j,
* the Kadison-Schwarz inequality  Delta(x* x) >= Delta(x)* Delta(x),
* the family's dynamics  V(f)_1 = eps (f1^2 + 2 f2 f3)  and its cyclic images,
* the family's thresholds 1/(3 sqrt 3) (CP), 1/3 (positive), 1/sqrt 3 (ball).

Each check returns a list of problems; an empty list means the report passed.
"""

from __future__ import annotations

import json
import math

import numpy as np

CP_THRESHOLD = 1.0 / (3.0 * math.sqrt(3.0))
POSITIVITY_THRESHOLD = 1.0 / 3.0
PRESERVATION_THRESHOLD = 1.0 / math.sqrt(3.0)

# Budgets the CLI must keep at its defaults: a speed-up may not come from a
# lowered budget.
CERTIFY_SAMPLES = 20_000
KS_SAMPLES = 50_000
SWEEP_SAMPLES = 5_000

EIG_TOL = 1e-10        # the CLI's reported "min eigenvalue >= -tol" rule
KS_TOL = 1e-8          # the CLI's default KS witness tolerance
MATCH_TOL = 1e-8       # a reported eigenvalue against its numpy re-evaluation
KS_PAPER_MIN = {0.3333333333: -0.910684, 0.5: -2.866025}  # +- 1e-6
KS_PAPER_TOL = 1e-6
BALL_SLACK = 1e-9      # the CLI's preservation and dynamics domain slack

_S1 = np.array([[0, 1], [1, 0]], dtype=complex)
_S2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
_S3 = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = (_S1, _S2, _S3)
PAIRS = np.array([[np.kron(PAULI[m], PAULI[l]) for l in range(3)] for m in range(3)])


def family_tensor(eps: float) -> np.ndarray:
    """b[i][j][k] with V(f)_k = sum_ij b[i][j][k] f_i f_j, symmetric in i, j."""
    b = np.zeros((3, 3, 3))
    # V_k = eps * (f_k^2 + 2 f_j f_l) with (j, l) the two other indices
    for k in range(3):
        j, l = (k + 1) % 3, (k + 2) % 3
        b[k, k, k] = eps
        b[j, l, k] = b[l, j, k] = eps
    return b


def family_v(eps: float, f: np.ndarray) -> np.ndarray:
    f1, f2, f3 = f
    return eps * np.array([f1 * f1 + 2 * f2 * f3, f2 * f2 + 2 * f1 * f3, f3 * f3 + 2 * f1 * f2])


def delta(b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Image of the 2x2 matrix x under the map, as a 4x4 matrix."""
    w0 = np.trace(x) / 2.0
    w = np.array([np.trace(s @ x) / 2.0 for s in PAULI])
    coeff = np.einsum("mli,i->ml", b, w)
    return w0 * np.eye(4) + np.einsum("ml,mlab->ab", coeff, PAIRS)


def choi(b: np.ndarray) -> np.ndarray:
    """Twice the block matrix [Delta(e_ij)], the CLI's documented normalization."""
    out = np.zeros((8, 8), dtype=complex)
    for i in range(2):
        for j in range(2):
            e = np.zeros((2, 2), dtype=complex)
            e[i, j] = 1.0
            out[4 * i:4 * i + 4, 4 * j:4 * j + 4] = delta(b, e)
    return 2.0 * out


def choi_min_eig(b: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(choi(b))[0])


def ks_defect(b: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Delta(x* x) - Delta(x)* Delta(x) for x = w.sigma."""
    x = sum(wk * s for wk, s in zip(w, PAULI))
    img = delta(b, x)
    return delta(b, x.conj().T @ x) - img.conj().T @ img


def dual_norm(b: np.ndarray, f, p) -> float:
    return float(np.linalg.norm(np.einsum("ijk,i,j->k", b, f, p)))


def positivity_min_eig(b: np.ndarray, w) -> float:
    x = np.eye(2) + sum(wk * s for wk, s in zip(w, PAULI))
    return float(np.linalg.eigvalsh(delta(b, x))[0])


class Problems(list):
    """Collects check failures as readable strings."""

    def need(self, ok, what: str) -> None:
        if not ok:
            self.append(what)

    def close(self, got, want, tol: float, what: str) -> None:
        if got is None or not math.isfinite(got) or abs(got - want) > tol:
            self.append(f"{what}: got {got!r}, expected {want!r} +- {tol:g}")


def _vec(v) -> np.ndarray:
    return np.asarray(v, dtype=float)


def _complex(doc) -> np.ndarray:
    return np.asarray(doc["re"], dtype=float) + 1j * np.asarray(doc["im"], dtype=float)


def _family_band(eps: float) -> str:
    a = abs(eps)
    if a <= CP_THRESHOLD:
        return "cp"
    if a <= POSITIVITY_THRESHOLD:
        return "positive"
    if a <= PRESERVATION_THRESHOLD:
        return "state-preserving"
    return "invalid"


def _paper_ks_min(eps: float):
    return next((v for e, v in KS_PAPER_MIN.items() if abs(e - eps) < 1e-12), None)


def _check_witness(p: Problems, b, doc, where: str) -> None:
    """A reported KS witness is a unit w whose defect has the reported minimum."""
    w = _complex(doc["w"])
    p.close(float(np.linalg.norm(w)), 1.0, 1e-9, f"{where}: |w|")
    got = float(np.linalg.eigvalsh(ks_defect(b, w))[0])
    p.close(doc["min_eig"], got, MATCH_TOL, f"{where}: min_eig against numpy")
    p.need(doc["min_eig"] < -KS_TOL, f"{where}: witness min_eig {doc['min_eig']} not below -tol")


def _check_ks_against_cp(p: Problems, b, found: bool, doc, where: str, eps):
    cp = choi_min_eig(b) >= -EIG_TOL
    if cp:
        p.need(not found, f"{where}: KS witness reported for a CP map")
    if found:
        _check_witness(p, b, doc, where)
    ref = _paper_ks_min(eps) if eps is not None else None
    if ref is not None:
        p.need(found, f"{where}: no KS witness at eps={eps}")
        if found:
            p.close(doc["min_eig"], ref, KS_PAPER_TOL, f"{where}: KS minimum at eps={eps}")


def check_certify(doc: dict, code: int, b: np.ndarray, eps=None, samples: int = CERTIFY_SAMPLES) -> Problems:
    p = Problems()
    p.need(doc.get("command") == "certify", "certify: wrong command field")
    p.need(doc.get("samples") == samples, f"certify: samples {doc.get('samples')} != {samples}")
    pres, pos, cp, ks = (doc["state_preservation"], doc["positivity"],
                         doc["complete_positivity"], doc["ks_violation"])

    f, q = _vec(pres["witness_f"]), _vec(pres["witness_p"])
    p.need(np.linalg.norm(f) <= 1 + 1e-9 and np.linalg.norm(q) <= 1 + 1e-9,
           "certify: preservation witness outside the ball")
    p.close(dual_norm(b, f, q), pres["max_norm"], 1e-9 * max(1.0, pres["max_norm"]),
            "certify: preservation witness norm")
    p.need(pres["passes"] == (pres["max_norm"] <= 1 + BALL_SLACK), "certify: preservation verdict")

    w = _vec(pos["worst_w"])
    p.close(float(np.linalg.norm(w)), 1.0, 1e-9, "certify: |worst_w|")
    p.close(positivity_min_eig(b, w), pos["margin"], MATCH_TOL, "certify: positivity witness margin")
    p.need(pos["is_positive"] == (pos["margin"] >= -EIG_TOL), "certify: positivity verdict")

    ref_cp = choi_min_eig(b)
    p.close(cp["min_choi_eig"], ref_cp, MATCH_TOL, "certify: min_choi_eig against numpy")
    p.need(cp["is_cp"] == (ref_cp >= -EIG_TOL), "certify: is_cp against numpy")
    if ref_cp >= -EIG_TOL:
        p.need(pos["is_positive"], "certify: CP map reported not positive")
    _check_ks_against_cp(p, b, ks["found"], ks, "certify", eps)

    all_pass = pres["passes"] and pos["is_positive"] and cp["is_cp"] and not ks["found"]
    p.need(doc["all_pass"] == all_pass, "certify: all_pass disagrees with its parts")
    p.need(code == (0 if all_pass else 1), f"certify: exit code {code}")

    if eps is not None:
        a = abs(eps)
        p.need(pres["passes"] == (a <= PRESERVATION_THRESHOLD), "certify: preservation band")
        p.close(pres["max_norm"], math.sqrt(3.0) * a, 1e-6, "certify: family sup norm sqrt(3)|eps|")
        p.need(pos["is_positive"] == (a <= POSITIVITY_THRESHOLD), "certify: positivity band")
        p.close(pos["margin"], 1.0 - 3.0 * a, MATCH_TOL, "certify: family margin 1 - 3|eps|")
        p.need(cp["is_cp"] == (a <= CP_THRESHOLD), "certify: CP band")
    return p


def check_ks(doc: dict, code: int, b: np.ndarray, eps=None, samples: int = KS_SAMPLES) -> Problems:
    p = Problems()
    p.need(doc.get("command") == "ks", "ks: wrong command field")
    p.need(doc.get("samples") == samples, f"ks: samples {doc.get('samples')} != {samples}")
    wit = doc["witness"]
    _check_ks_against_cp(p, b, wit["found"], wit, "ks", eps)
    p.need(code == (1 if wit["found"] else 0), f"ks: exit code {code}")
    p.need(doc["holds11"] == (doc["lhs11"] >= doc["rhs11"] - 1e-12), "ks: holds11")
    p.need(doc["holds2"] == (doc["lhs2"] <= doc["rhs2"] + 1e-12), "ks: holds2")
    a, bb, c, d = doc["abcd"]
    p.close(doc["lhs2"], math.sqrt(a + bb + c), 1e-9, "ks: lhs2 = sqrt(A+B+C)")
    p.close(doc["rhs2"], d, 1e-12, "ks: rhs2 = D")
    return p


def check_choi(doc: dict, code: int, b: np.ndarray, eps=None) -> Problems:
    p = Problems()
    p.need(doc.get("command") == "choi", "choi: wrong command field")
    ref = np.linalg.eigvalsh(choi(b))
    got = np.asarray(doc["eigenvalues"], dtype=float)
    p.need(got.shape == (8,) and np.max(np.abs(np.sort(got) - ref)) <= MATCH_TOL,
           "choi: eigenvalues against numpy")
    p.close(doc["min_eig"], float(ref[0]), MATCH_TOL, "choi: min_eig")
    p.need(doc["is_cp"] == (ref[0] >= -EIG_TOL), "choi: is_cp against numpy")
    p.need(code == (0 if doc["is_cp"] else 1), f"choi: exit code {code}")
    if eps is not None:
        p.need(doc["is_cp"] == (abs(eps) <= CP_THRESHOLD), "choi: CP band")
    return p


def check_sweep(doc: dict, code: int, half: float, count: int, samples: int = SWEEP_SAMPLES) -> Problems:
    p = Problems()
    p.need(code == 0, f"sweep: exit code {code}")
    p.need(doc.get("samples") == samples, f"sweep: samples {doc.get('samples')} != {samples}")
    rows = doc["rows"]
    grid = np.linspace(-half, half, count)
    p.need(len(rows) == count, "sweep: row count")
    for row, e in zip(rows, grid):
        a = abs(e)
        b = family_tensor(e)
        where = f"sweep eps={e:.6f}"
        p.close(row["epsilon"], float(e), 1e-15, f"{where}: epsilon")
        p.need(row["band"] == _family_band(e), f"{where}: band")
        p.need(row["is_positive"] == (a <= POSITIVITY_THRESHOLD), f"{where}: positivity band")
        p.close(row["positivity_margin"], 1.0 - 3.0 * a, MATCH_TOL, f"{where}: margin 1 - 3|eps|")
        ref_cp = choi_min_eig(b)
        p.close(row["min_choi_eig"], ref_cp, MATCH_TOL, f"{where}: min_choi_eig against numpy")
        p.need(row["is_cp"] == (a <= CP_THRESHOLD), f"{where}: CP band")
        found = row["ks_violation_found"]
        if a <= CP_THRESHOLD:
            p.need(not found, f"{where}: KS witness reported for a CP map")
        if found:
            p.need(row["ks_min_eig"] < -KS_TOL, f"{where}: ks_min_eig not below -tol")
        else:
            p.need(row["ks_min_eig"] is None, f"{where}: ks_min_eig without a witness")
    return p


def check_fixed_points(doc: dict, code: int, eps: float) -> Problems:
    """The fixed points inside the ball are the origin and, at |eps| = 1/sqrt(3), (c, c, c), c = 1/(3 eps)."""
    p = Problems()
    p.need(code == 0, f"fixed-points: exit code {code}")
    want = [np.zeros(3)]
    if eps != 0.0 and 1.0 / (math.sqrt(3.0) * abs(eps)) <= 1.0 + 1e-12:
        want.append(np.full(3, 1.0 / (3.0 * eps)))
    got = [np.asarray(v, dtype=float) for v in doc["points"]]
    p.need(len(got) == len(want) and all(np.max(np.abs(g - w)) <= 1e-12 for g, w in zip(got, want)),
           f"fixed-points eps={eps}: points {doc['points']} are not the analytic ones")
    for g, r in zip(got, doc["residuals"]):
        p.need(r <= 1e-12, f"fixed-points eps={eps}: residual {r}")
        p.close(r, float(np.linalg.norm(family_v(eps, g) - g)), 1e-14, f"fixed-points eps={eps}: residual value")
    return p


def check_simulate(stdout: str, code: int, csv_text: str, eps: float, f0, tol: float = 1e-10) -> Problems:
    """The CSV parses, follows V step by step, and matches the summary line."""
    p = Problems()
    p.need(code == 0, f"simulate: exit code {code}")
    lines = csv_text.splitlines()
    if not lines or lines[0] != "step,f1,f2,f3,rho":
        p.append("simulate: missing CSV header")
        return p
    try:
        rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    except ValueError as exc:
        p.append(f"simulate: CSV does not parse ({exc})")
        return p
    if rows.ndim != 2 or rows.shape[1] != 5 or len(rows) == 0:
        p.append("simulate: CSV rows are not step,f1,f2,f3,rho")
        return p
    p.need(np.array_equal(rows[:, 0], np.arange(len(rows))), "simulate: step column")
    fs = rows[:, 1:4]
    p.need(np.array_equal(fs[0], np.asarray(f0, dtype=float)), "simulate: first row is not the initial point")
    p.need(np.allclose(rows[:, 4], np.einsum("ni,ni->n", fs, fs), rtol=1e-12, atol=0), "simulate: rho column")
    for n in range(1, len(fs)):
        if not np.allclose(fs[n], family_v(eps, fs[n - 1]), rtol=1e-12, atol=1e-300):
            p.append(f"simulate: step {n} does not follow V")
            break
    summary = stdout.strip().splitlines()[-1] if stdout.strip() else ""
    fields = dict(part.split("=", 1) for part in summary.split(" ", 3) if "=" in part)
    try:
        limit = json.loads(fields["limit"])
        p.need(int(fields["steps"]) == len(rows) - 1, "simulate: summary steps")
        converged = fields["converged"] == "True"
        p.need(converged == (np.linalg.norm(fs[-1]) < tol), "simulate: summary converged flag")
        p.need(float(fields["final_rho"]) == rows[-1, 4], "simulate: summary final_rho")
        p.need(np.array_equal(np.asarray(limit, dtype=float), fs[-1]), "simulate: summary limit")
    except (KeyError, ValueError) as exc:
        p.append(f"simulate: summary line {summary!r} does not parse ({exc})")
    return p

"""Acceptance suite: every quantitative claim the package must reproduce.

Each criterion prints one [PASS]/[FAIL] line (run pytest with -s to see
them all) and asserts at its stated tolerance.
"""

import time

import numpy as np

from qqocert import (
    PauliCoeffs,
    b_matrix,
    build_coeff_tensor,
    choi_matrix_from_tensor,
    cp_check,
    delta_apply,
    delta_eps_apply,
    dual_pair_apply,
    fixed_points,
    iterate,
    hermitian_eigh,
    ks_defect,
    ks_global_check,
    ks_necessary_check,
    pauli_decompose,
    positivity_check,
    spectrum_closed_form,
)
from qqocert.pauli import SIGMA

from oracles import (
    ABCD_EXACT,
    ABCD_W,
    CHOI_BLOCK_UNIT,
    choi_matrix_family,
    pauli_compose,
    state_eval,
    v_eps_apply,
)

CRIT = 1.0 / np.sqrt(3.0)


def check(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def rand_ball(rng, n):
    v = rng.standard_normal((n, 3))
    v = v / np.linalg.norm(v, axis=1, keepdims=True)
    return v * rng.uniform(size=(n, 1)) ** (1.0 / 3.0)


def test_criterion_1_positivity_threshold():
    lo, hi = 0.30, 0.40
    assert positivity_check(lo).is_positive
    assert not positivity_check(hi).is_positive
    for _ in range(25):
        mid = 0.5 * (lo + hi)
        if positivity_check(mid).is_positive:
            lo = mid
        else:
            hi = mid
    est = 0.5 * (lo + hi)
    check(
        "criterion 1a: positivity threshold bisection lands in [0.3323, 0.3343]",
        0.3323 <= est <= 0.3343,
        f"estimate {est:.6f}",
    )
    worst = spectrum_closed_form([-1.0, 0.0, 0.0])[1]
    resid = abs(1.0 + (1.0 / 3.0) * worst)
    check(
        "criterion 1b: analytic worst case 1 + eps*(-3) = 0 at eps=1/3, w=(-1,0,0)",
        resid <= 1e-12,
        f"residual {resid:.2e}",
    )


def test_criterion_2_cp_threshold():
    vals, _ = hermitian_eigh(choi_matrix_from_tensor(build_coeff_tensor(1.0)) - np.eye(8))
    lam = float(np.max(np.abs(vals)))
    target = 3.0 * np.sqrt(3.0)
    check(
        "criterion 2a: extreme Choi-block eigenvalue equals 3*sqrt(3)",
        abs(lam - target) <= 1e-9,
        f"got {lam!r}",
    )
    below = cp_check(build_coeff_tensor(0.192450 - 1e-4))
    above = cp_check(build_coeff_tensor(0.192450 + 1e-4))
    check(
        "criterion 2b: cp_check flips across 0.192450 +/- 1e-4",
        below.is_cp and not above.is_cp,
        f"min eigs {below.min_choi_eig:.2e} / {above.min_choi_eig:.2e}",
    )


def test_criterion_3_ks_counterexample():
    rep = ks_necessary_check(build_coeff_tensor(1.0 / 3.0), [1, 0, 0], ABCD_W)
    rel = max(abs(g - w) / w for g, w in zip(rep.abcd, ABCD_EXACT))
    check(
        "criterion 3a: A,B,C,D match the exact fractions (rel err <= 1e-12)",
        rel <= 1e-12,
        f"max rel err {rel:.2e}",
    )
    lhs, rhs = np.sqrt(sum(rep.abcd[:3])), rep.abcd[3]
    check(
        "criterion 3b: sqrt(A+B+C) > D and holds2 is False",
        lhs > rhs and not rep.holds2,
        f"{lhs:.6f} vs {rhs:.6f}",
    )
    assert abs(lhs - 0.034050) <= 1e-6
    assert abs(rhs - 0.033665) <= 1e-6


def test_criterion_4_ks_witness_search():
    start = time.monotonic()
    wit = ks_global_check(build_coeff_tensor(1.0 / 3.0), 50_000, 0, 1e-8)
    clean = ks_global_check(build_coeff_tensor(1.0 / (3.0 * np.sqrt(3.0))), 50_000, 0, 1e-8)
    elapsed = time.monotonic() - start
    check(
        "criterion 4a: witness with min_eig <= -1e-6 found at eps=1/3",
        wit is not None and wit.min_eig <= -1e-6,
        f"min_eig {wit.min_eig if wit else None}",
    )
    check(
        "criterion 4b: no witness at eps=1/(3*sqrt(3)) over 50000 samples",
        clean is None,
    )
    check("criterion 4c: both searches within 60 s", elapsed <= 60.0, f"{elapsed:.1f} s")


def test_criterion_5_closed_form_spectrum():
    rng = np.random.default_rng(0)
    ws = rng.standard_normal((1000, 3))
    ws = ws / np.linalg.norm(ws, axis=1, keepdims=True)
    ws = ws * rng.uniform(size=(1000, 1)) ** (1.0 / 3.0)
    numeric = np.linalg.eigvalsh(np.array([b_matrix(w) for w in ws]))
    worst = max(
        float(np.max(np.abs(np.sort(spectrum_closed_form(ws[i])) - numeric[i])))
        for i in range(1000)
    )
    check(
        "criterion 5a: closed-form spectrum matches numeric on 1000 ball points",
        worst <= 1e-9,
        f"worst {worst:.2e}",
    )
    sphere = rng.standard_normal((10_000, 3))
    sphere /= np.linalg.norm(sphere, axis=1, keepdims=True)
    spectra = np.array([spectrum_closed_form(w) for w in sphere])
    extremes_ok = (
        np.max(spectra[:, 0]) >= 3.0 - 1e-3
        and np.min(spectra[:, 1]) <= -3.0 + 1e-3
        and np.max(spectra[:, 2]) >= np.sqrt(3.0) - 1e-3
        and np.min(spectra[:, 2]) <= -np.sqrt(3.0) + 1e-3
    )
    corner = np.ones(3) / np.sqrt(3.0)
    exact_ok = (
        abs(spectrum_closed_form([1, 0, 0])[0] - 3.0) <= 1e-12
        and abs(spectrum_closed_form([-1, 0, 0])[1] + 3.0) <= 1e-12
        and abs(spectrum_closed_form(corner)[2] + np.sqrt(3.0)) <= 1e-12
        and abs(spectrum_closed_form(-corner)[2] - np.sqrt(3.0)) <= 1e-12
    )
    check(
        "criterion 5b: sampled extremes reach -3, 3, +/-sqrt(3) within 1e-3",
        extremes_ok and exact_ok,
    )


def test_criterion_6_ball_invariance():
    rng = np.random.default_rng(1)
    b_crit = build_coeff_tensor(CRIT)
    fs = rand_ball(rng, 100_000)
    ps = rand_ball(rng, 100_000)
    imgs = np.einsum("ijk,ni,nj->nk", b_crit, fs, ps)
    worst = float(np.sqrt(np.max(np.einsum("nk,nk->n", imgs, imgs))))
    check(
        "criterion 6a: dual image norms <= 1 over 100000 pairs at eps=1/sqrt(3)",
        worst <= 1.0 + 1e-9,
        f"max norm {worst:.12f}",
    )
    from qqocert import ball_invariance_check

    rep = ball_invariance_check(0.58)
    corner = np.ones(3) / np.sqrt(3.0)
    dist = min(np.linalg.norm(rep.witness - corner), np.linalg.norm(rep.witness + corner))
    check(
        "criterion 6b: eps=0.58 violates with witness at the diagonal corner",
        (not rep.invariant) and rep.worst_norm > 1.0 and dist <= 1e-3,
        f"worst {rep.worst_norm:.6f}, corner dist {dist:.1e}",
    )


def test_criterion_7_fixed_points_and_dynamics():
    corner = np.full(3, CRIT)
    resid = float(np.linalg.norm(v_eps_apply(CRIT, corner) - corner))
    rep = fixed_points(CRIT)
    check(
        "criterion 7a: corner fixed-point residual <= 1e-14 at eps=1/sqrt(3)",
        resid <= 1e-14 and max(rep.residuals) <= 1e-14,
        f"residual {resid:.2e}",
    )
    rng = np.random.default_rng(2)
    all_ok = True
    for _ in range(100):
        eps = rng.uniform(-0.57, 0.57)
        f0 = rand_ball(rng, 1)[0]
        traj = iterate(eps, f0, tol=1e-10)
        factor = 3.0 * eps * eps
        envelope = traj.steps[0][2]
        for n, _, rho in traj.steps:
            if n > 0:
                envelope *= factor
            if rho > envelope + 1e-12:
                all_ok = False
        if not (traj.converged and np.linalg.norm(traj.limit) < 1e-10):
            all_ok = False
    check(
        "criterion 7b: 100 random orbits obey the geometric envelope and reach 1e-10",
        all_ok,
    )


def test_criterion_8_structural_invariants():
    rng = np.random.default_rng(3)

    worst = 0.0
    for _ in range(10_000):
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        back = pauli_compose(pauli_decompose(m))
        worst = max(worst, float(np.max(np.abs(back - m))))
    check("criterion 8a: Pauli roundtrip <= 1e-14 on 10000 matrices", worst <= 1e-14)

    worst = 0.0
    for _ in range(1000):
        eps = rng.uniform(-1, 1)
        x = PauliCoeffs(
            complex(rng.standard_normal(), rng.standard_normal()),
            rng.standard_normal(3) + 1j * rng.standard_normal(3),
        )
        worst = max(
            worst,
            float(
                np.max(
                    np.abs(
                        delta_eps_apply(eps, x) - delta_apply(build_coeff_tensor(eps), x)
                    )
                )
            ),
        )
    check("criterion 8b: two-path family image equality <= 1e-14", worst <= 1e-14)

    worst = max(
        float(np.max(np.abs(m - (np.eye(8) + e * CHOI_BLOCK_UNIT))))
        for e in rng.uniform(-1, 1, size=10)
        for m in (choi_matrix_from_tensor(build_coeff_tensor(e)), choi_matrix_family(e))
    )
    check("criterion 8c: Choi reconstruction against the literal block <= 1e-13", worst <= 1e-13)

    worst = 0.0
    for _ in range(1000):
        b = rng.standard_normal((3, 3, 3))
        w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        x = np.einsum("k,kab->ab", w, SIGMA)
        dx = delta_apply(b, PauliCoeffs(0.0, w))
        direct = delta_apply(b, pauli_decompose(x.conj().T @ x)) - dx.conj().T @ dx
        worst = max(worst, float(np.max(np.abs(ks_defect(b, w) - direct))))
    check("criterion 8d: defect two-path identity <= 1e-12", worst <= 1e-12)

    worst = 0.0
    for _ in range(200):
        b = rng.standard_normal((3, 3, 3))
        f, p = rand_ball(rng, 1)[0], rand_ball(rng, 1)[0]
        y = PauliCoeffs(
            complex(rng.standard_normal(), rng.standard_normal()),
            rng.standard_normal(3) + 1j * rng.standard_normal(3),
        )
        rho_f = (np.eye(2) + np.einsum("k,kab->ab", f, SIGMA)) / 2.0
        rho_p = (np.eye(2) + np.einsum("k,kab->ab", p, SIGMA)) / 2.0
        lhs = np.trace(np.kron(rho_f, rho_p) @ delta_apply(b, y))
        rhs = state_eval(dual_pair_apply(b, f, p), y)
        worst = max(worst, abs(lhs - rhs))
    check("criterion 8e: duality pairing <= 1e-12", worst <= 1e-12)

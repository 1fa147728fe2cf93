import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qqocert import (
    DomainError,
    build_coeff_tensor,
    fixed_points,
    iterate,
    state_preservation_check,
)
from qqocert.dynamics import _v_eps_raw

from oracles import dual_pair_apply, rand_ball, v_eps_apply

CRIT = 1.0 / np.sqrt(3.0)


# ---------------------------------------------------------------- the map


def test_v_zero():
    assert np.allclose(v_eps_apply(0.5, [0, 0, 0]), 0.0)
    assert np.allclose(dual_pair_apply(build_coeff_tensor(0.5), [0, 0, 0], [0, 0, 0]), 0.0)


def test_v_family_axis():
    eps = 0.31
    assert np.allclose(dual_pair_apply(build_coeff_tensor(eps), [1, 0, 0], [1, 0, 0]), [eps, 0, 0])


def test_v_family_diagonal():
    eps = 0.31
    f = np.ones(3) / np.sqrt(3.0)
    assert np.allclose(dual_pair_apply(build_coeff_tensor(eps), f, f), [eps, eps, eps])


def test_v_eps_simple_square():
    assert np.allclose(v_eps_apply(0.5, [0.6, 0, 0]), [0.18, 0, 0])


def test_v_eps_fixed_point_at_critical():
    f = np.full(3, CRIT)
    assert np.max(np.abs(v_eps_apply(CRIT, f) - f)) <= 1e-15


def test_v_matches_dual_diagonal_exactly():
    # V(f)_k = sum_ij b[i][j][k] f_i f_j for a general tensor; dyadic entries
    # keep every product and sum exact, so any summation order agrees bitwise
    rng = np.random.default_rng(0)
    for _ in range(50):
        b = rng.integers(-8, 9, (3, 3, 3)) / 8.0
        f = rng.integers(-8, 9, 3) / 8.0
        assert np.array_equal(dual_pair_apply(b, f, f), np.einsum("ijk,i,j->k", b, f, f))


def test_v_eps_agrees_with_tensor_route():
    rng = np.random.default_rng(1)
    for _ in range(200):
        eps = rng.uniform(-CRIT, CRIT)
        f = rand_ball(rng)
        assert np.max(np.abs(v_eps_apply(eps, f) - dual_pair_apply(build_coeff_tensor(eps), f, f))) <= 1e-15


def test_v_eps_domain_error():
    with pytest.raises(DomainError):
        v_eps_apply(0.7, [0, 0, 0])
    with pytest.raises(DomainError):
        v_eps_apply(-0.6, [0, 0, 0])
    v_eps_apply(CRIT, [0.1, 0.2, 0.3])  # boundary is accepted


def test_nan_inputs_raise_domain_error():
    with pytest.raises(DomainError):
        v_eps_apply(float("nan"), [0, 0, 0])
    with pytest.raises(DomainError):
        iterate(float("nan"), [0.1, 0, 0])
    with pytest.raises(DomainError):
        iterate(0.5, [float("nan"), 0, 0])
    with pytest.raises(DomainError):
        iterate(0.5, [0, float("inf"), 0])


# ---------------------------------------------------------------- contraction


def test_lyapunov_contraction_bulk():
    rng = np.random.default_rng(2)
    eps = rng.uniform(-CRIT, CRIT, size=100_000)
    fs = rng.standard_normal((100_000, 3))
    fs = fs / np.linalg.norm(fs, axis=1, keepdims=True)
    fs = fs * rng.uniform(size=(100_000, 1)) ** (1.0 / 3.0)
    f1, f2, f3 = fs[:, 0], fs[:, 1], fs[:, 2]
    imgs = eps[:, None] * np.stack(
        [f1 * f1 + 2 * f2 * f3, f2 * f2 + 2 * f1 * f3, f3 * f3 + 2 * f1 * f2], axis=1
    )
    rho_in = np.einsum("ni,ni->n", fs, fs)
    rho_out = np.einsum("ni,ni->n", imgs, imgs)
    assert np.all(rho_out <= 3.0 * eps**2 * rho_in + 1e-12)


@settings(deadline=None, max_examples=200)
@given(
    eps=st.floats(-0.577, 0.577, allow_nan=False),
    raw=st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=3, max_size=3),
)
def test_lyapunov_contraction_hypothesis(eps, raw):
    f = np.array(raw)
    n = np.linalg.norm(f)
    if n > 1.0:
        f = f / n
    v = v_eps_apply(eps, f)
    assert v @ v <= 3.0 * eps**2 * (f @ f) + 1e-12


# ---------------------------------------------------------------- iteration


def test_iterate_converges_with_envelope():
    traj = iterate(0.5, [0.6, 0, 0], tol=1e-10)
    assert traj.converged
    assert np.linalg.norm(traj.limit) < 1e-10
    factor = 3 * 0.5**2
    rho0 = 0.36
    for n, _, rho in traj.steps:
        assert rho <= rho0 * factor**n + 1e-12


def test_iterate_rho_monotone():
    rng = np.random.default_rng(3)
    for _ in range(20):
        eps = rng.uniform(-CRIT, CRIT)
        traj = iterate(eps, rand_ball(rng))
        rhos = [rho for _, _, rho in traj.steps]
        assert all(b <= a + 1e-15 for a, b in zip(rhos, rhos[1:]))


def test_iterate_stationary_at_critical_fixed_point():
    f0 = np.full(3, CRIT)
    traj = iterate(CRIT, f0)
    assert not traj.converged
    assert np.max(np.abs(traj.limit - f0)) <= 1e-12
    assert len(traj.steps) <= 3


def test_iterate_critical_from_sphere_converges():
    traj = iterate(CRIT, [1.0, 0.0, 0.0], tol=1e-10)
    assert traj.converged
    assert np.linalg.norm(traj.limit) < 1e-10


def test_iterate_records_rho_of_f():
    traj = iterate(0.4, [0.3, -0.4, 0.2])
    for _, f, rho in traj.steps:
        assert rho == pytest.approx(float(f @ f), abs=1e-14)


def test_iterate_rejects_bad_inputs():
    with pytest.raises(DomainError):
        iterate(0.7, [0.1, 0, 0])
    with pytest.raises(DomainError):
        iterate(0.5, [1.1, 0, 0])
    for tol in (0.0, -1.0, np.inf):
        with pytest.raises(ValueError, match="tol must be positive"):
            iterate(0.5, [0.6, 0, 0], tol=tol)
    with pytest.raises(ValueError, match="max_steps must be >= 0"):
        iterate(0.5, [0.6, 0, 0], max_steps=-1)


def test_iterate_accepts_ten_digit_critical_inputs():
    # couplings and points rounded to ten digits must still be usable
    c10 = 0.5773502692
    traj = iterate(c10, np.full(3, c10))
    assert not traj.converged
    assert np.max(np.abs(traj.limit - c10)) <= 1e-9


# ---------------------------------------------------------------- fixed points


def test_fixed_points_subcritical():
    rep = fixed_points(0.5)
    assert len(rep.points) == 1
    assert np.allclose(rep.points[0], 0.0)
    assert rep.residuals[0] == 0.0


def test_fixed_points_zero_coupling():
    rep = fixed_points(0.0)
    assert len(rep.points) == 1


def test_fixed_points_critical_positive():
    rep = fixed_points(CRIT)
    assert len(rep.points) == 2
    assert np.allclose(rep.points[1], np.full(3, CRIT), atol=1e-14)
    assert max(rep.residuals) <= 1e-12


def test_fixed_points_critical_negative():
    rep = fixed_points(-CRIT)
    assert len(rep.points) == 2
    assert np.allclose(rep.points[1], np.full(3, -CRIT), atol=1e-14)
    assert max(rep.residuals) <= 1e-12


def test_algebraic_point_outside_ball_is_excluded():
    # (-1/(3e), -1/(3e), 2/(3e)) solves the fixed-point equations but has
    # squared norm 2/(3e^2) > 1, so it never appears in the report
    e = CRIT
    p = np.array([-1, -1, 2]) / (3 * e)
    assert np.linalg.norm(v_eps_apply(e, p) - p) <= 1e-12
    assert p @ p > 1.9
    rep = fixed_points(e)
    for q in rep.points:
        assert np.linalg.norm(q - p) > 0.5


def test_fixed_points_domain():
    with pytest.raises(DomainError):
        fixed_points(0.6)


def newton_sweep(eps, step=0.05):
    """All roots of V(f) = f found by Newton from a dense grid over the ball.

    Vectorized over the grid; returns the deduplicated roots with norm
    at most 1 (plus a hair of tolerance for the boundary points).
    """
    axis = np.arange(-1.0, 1.0 + step / 2.0, step)
    g0, g1, g2 = np.meshgrid(axis, axis, axis, indexing="ij")
    pts = np.column_stack([g0.ravel(), g1.ravel(), g2.ravel()])
    pts = pts[np.einsum("ni,ni->n", pts, pts) <= 1.0]
    cur = pts.copy()
    eye = np.eye(3)
    for _ in range(60):
        f1, f2, f3 = cur[:, 0], cur[:, 1], cur[:, 2]
        jac = 2.0 * eps * np.stack(
            [
                np.stack([f1, f3, f2], axis=-1),
                np.stack([f3, f2, f1], axis=-1),
                np.stack([f2, f1, f3], axis=-1),
            ],
            axis=-2,
        ) - eye[None, :, :]
        res = _v_eps_raw(eps, cur) - cur
        ok = np.abs(np.linalg.det(jac)) > 1e-12
        delta = np.zeros_like(cur)
        if np.any(ok):
            delta[ok] = np.linalg.solve(jac[ok], res[ok, :, None])[:, :, 0]
        cur = cur - delta
        cur = np.where(np.isfinite(cur), cur, 10.0)
    res = np.linalg.norm(_v_eps_raw(eps, cur) - cur, axis=1)
    good = cur[(res <= 1e-12) & (np.linalg.norm(cur, axis=1) <= 1.0 + 1e-12)]
    if good.size == 0:
        return np.zeros((0, 3))
    return np.unique(np.round(good, 8), axis=0)


@pytest.mark.parametrize("eps", [0.0, 0.5, CRIT, -CRIT, 0.5773502692])
def test_newton_sweep_finds_only_listed_fixed_points(eps):
    points = fixed_points(eps).points
    roots = newton_sweep(eps)
    for root in roots:
        assert any(np.linalg.norm(root - p) <= 1e-6 for p in points), root
    for p in points:
        assert any(np.linalg.norm(root - p) <= 1e-6 for root in roots), p


# ---------------------------------------------------------------- ball invariance


# The family tensor is symmetric in its first two indices, so sup ||V(f)|| over the ball is the
# injective norm of the dual action, the preservation norm.  Each V(f)_k = eps f.A_k f with A_k
# symmetric of eigenvalues 1, 1 and -1, so the sup is sqrt(3)|eps|, at the corner (1, 1, 1)/sqrt(3).


def test_ball_invariance_critical():
    rep = state_preservation_check(build_coeff_tensor(CRIT))
    assert rep.passes
    assert rep.max_norm == pytest.approx(1.0, abs=1e-6)


def test_ball_invariance_violated_above_critical():
    rep = state_preservation_check(build_coeff_tensor(0.58))
    assert not rep.passes
    assert rep.max_norm == pytest.approx(0.58 * np.sqrt(3.0), abs=1e-6)
    corner = np.ones(3) / np.sqrt(3.0)
    assert min(
        np.linalg.norm(rep.witness_f - corner), np.linalg.norm(rep.witness_f + corner)
    ) <= 1e-3


@pytest.mark.parametrize("eps", [0.3, 0.58, 0.9])
def test_ball_invariance_exact_sup_at_corner(eps):
    rep = state_preservation_check(build_coeff_tensor(eps))
    assert abs(rep.max_norm - np.sqrt(3.0) * eps) <= 1e-12
    assert rep.passes == (np.sqrt(3.0) * eps <= 1.0)
    v = dual_pair_apply(build_coeff_tensor(eps), rep.witness_f, rep.witness_p)
    assert abs(np.linalg.norm(v) - rep.max_norm) <= 1e-12
    corner = np.ones(3) / np.sqrt(3.0)
    assert min(
        np.linalg.norm(rep.witness_f - corner), np.linalg.norm(rep.witness_f + corner)
    ) <= 1e-9


def test_ball_invariance_zero():
    rep = state_preservation_check(build_coeff_tensor(0.0))
    assert rep.passes
    assert rep.max_norm == 0.0


@pytest.mark.parametrize("eps", [np.nan, np.inf, -np.inf, 1e70, -1e65])
def test_ball_invariance_refuses_what_the_tensor_gate_refuses(eps):
    with pytest.raises(ValueError, match="finite and at most"):
        build_coeff_tensor(eps)


def test_sphere_shrinks_at_critical_off_diagonal():
    # unit vectors with two unequal components map strictly inside the sphere
    rng = np.random.default_rng(4)
    for _ in range(200):
        f = rng.standard_normal(3)
        f /= np.linalg.norm(f)
        if min(abs(f[0] - f[1]), abs(f[0] - f[2]), abs(f[1] - f[2])) < 1e-3:
            continue
        img = v_eps_apply(CRIT, f)
        assert np.linalg.norm(img) <= 1.0 - 1e-12

import numpy as np
import pytest

from qqocert import (
    CP_THRESHOLD,
    POSITIVITY_THRESHOLD,
    PRESERVATION_THRESHOLD,
    NonRealInput,
    PauliCoeffs,
    b_matrix,
    build_coeff_tensor,
    choi_matrix_from_tensor,
    classify_epsilon,
    cp_check,
    delta_apply,
    delta_eps_apply,
    hermitian_eigh,
    positivity_check,
    spectrum_closed_form,
    state_preservation_check,
)
from qqocert.pauli import SIGMA

from oracles import CHOI_BLOCK_UNIT, choi_matrix_family


def choi_matrix(eps):
    """The family's Choi matrix along the route the certificates use."""
    return choi_matrix_from_tensor(build_coeff_tensor(eps))


def rand_coeffs(rng):
    return PauliCoeffs(
        complex(rng.standard_normal(), rng.standard_normal()),
        rng.standard_normal(3) + 1j * rng.standard_normal(3),
    )


# ---------------------------------------------------------------- tensor entries


def test_tensor_entries():
    eps = 0.73
    b = build_coeff_tensor(eps)
    assert b[0, 0, 0] == eps  # first diagonal coupling
    assert b[2, 1, 0] == eps  # symmetrized partner of [1, 2, 0]
    assert b[0, 0, 1] == 0.0
    assert np.count_nonzero(b) == 9
    assert np.allclose(b, b.transpose(1, 0, 2))


# ---------------------------------------------------------------- two-path map


def test_family_image_identity():
    out = delta_eps_apply(0.4, PauliCoeffs(1.0, [0, 0, 0]))
    assert np.allclose(out, np.eye(4))


def test_family_image_sigma3():
    eps = 0.29
    out = delta_eps_apply(eps, PauliCoeffs(0.0, [0, 0, 1]))
    expected = eps * (
        np.kron(SIGMA[0], SIGMA[1])
        + np.kron(SIGMA[1], SIGMA[0])
        + np.kron(SIGMA[2], SIGMA[2])
    )
    assert np.max(np.abs(out - expected)) <= 1e-15


def test_two_path_equality_bulk():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        eps = rng.uniform(-1.0, 1.0)
        x = rand_coeffs(rng)
        direct = delta_eps_apply(eps, x)
        via_tensor = delta_apply(build_coeff_tensor(eps), x)
        worst = max(worst, np.max(np.abs(direct - via_tensor)))
    assert worst <= 1e-14


# ---------------------------------------------------------------- B matrix


def test_b_matrix_zero():
    assert np.allclose(b_matrix([0, 0, 0]), 0.0)


def test_b_matrix_z_axis_display():
    m = b_matrix([0, 0, 1])
    assert np.allclose(np.diagonal(m), [1, -1, -1, 1])
    assert m[0, 3] == -2j
    assert m[3, 0] == 2j


def test_b_matrix_eigenvalues_x_axis():
    vals, _ = hermitian_eigh(b_matrix([1.0, 0.0, 0.0]))
    assert np.allclose(np.sort(vals), [-1, -1, -1, 3], atol=1e-12)


def test_b_matrix_matches_family_image():
    rng = np.random.default_rng(1)
    for _ in range(100):
        w = rng.standard_normal(3)
        got = b_matrix(w)
        expected = delta_eps_apply(1.0, PauliCoeffs(0.0, w))
        assert np.max(np.abs(got - expected)) <= 1e-14


def test_b_matrix_rejects_complex():
    with pytest.raises(NonRealInput):
        b_matrix([1j, 0, 0])
    with pytest.raises(NonRealInput):
        spectrum_closed_form([0, 1j, 0])


# ---------------------------------------------------------------- spectrum


def test_spectrum_examples():
    s = spectrum_closed_form(np.ones(3) / np.sqrt(3.0))
    assert np.allclose(s, [np.sqrt(3), np.sqrt(3), -np.sqrt(3), -np.sqrt(3)])
    s = spectrum_closed_form([-1.0, 0.0, 0.0])
    assert np.allclose(np.sort(s), [-3, 1, 1, 1])
    assert np.allclose(spectrum_closed_form([0, 0, 0]), 0.0)


def test_spectrum_double_eigenvalue():
    rng = np.random.default_rng(2)
    for _ in range(20):
        s = spectrum_closed_form(rng.standard_normal(3))
        assert s[2] == s[3]


def test_spectrum_matches_numeric_bulk():
    rng = np.random.default_rng(3)
    ws = rng.standard_normal((1000, 3))
    ws = ws / np.linalg.norm(ws, axis=1, keepdims=True) * rng.uniform(size=(1000, 1))
    mats = np.array([b_matrix(w) for w in ws])
    numeric = np.linalg.eigvalsh(mats)
    worst = 0.0
    for i in range(1000):
        closed = np.sort(spectrum_closed_form(ws[i]))
        worst = max(worst, np.max(np.abs(closed - numeric[i])))
    assert worst <= 1e-9


def test_spectrum_homogeneity():
    # lambda_k(h*w) = h*lambda_k(w) for h >= 0 and crosses over for h <= 0
    rng = np.random.default_rng(4)
    for _ in range(100):
        w = rng.standard_normal(3)
        s = spectrum_closed_form(w)
        h = rng.uniform(0.1, 2.0)
        sh = spectrum_closed_form(h * w)
        assert sh[0] == pytest.approx(h * s[0], abs=1e-12 * max(1, h))
        assert sh[1] == pytest.approx(h * s[1], abs=1e-12 * max(1, h))
        smh = spectrum_closed_form(-h * w)
        assert smh[0] == pytest.approx(-h * s[1], abs=1e-12 * max(1, h))


def test_spectrum_bounds_sampled():
    rng = np.random.default_rng(5)
    ws = rng.standard_normal((100_000, 3))
    ws = ws / np.linalg.norm(ws, axis=1, keepdims=True)
    ws = ws * rng.uniform(size=(100_000, 1)) ** (1.0 / 3.0)
    t = ws.sum(axis=1)
    r2 = np.einsum("ni,ni->n", ws, ws)
    root = 2.0 * np.sqrt(np.maximum(r2 - (t * t - r2) / 2.0, 0.0))
    l1, l2, l3 = t + root, t - root, -t
    assert np.max(np.abs(l3)) <= np.sqrt(3.0) + 1e-12
    assert np.max(l1) <= 3.0 + 1e-12
    assert np.min(l2) >= -3.0 - 1e-12


# ---------------------------------------------------------------- positivity


def test_positivity_just_inside():
    rep = positivity_check(0.33)
    assert rep.is_positive
    assert rep.margin == pytest.approx(1.0 - 3 * 0.33, abs=1e-9)


def test_positivity_boundary():
    rep = positivity_check(1.0 / 3.0)
    assert rep.is_positive
    assert abs(rep.margin) <= 1e-12


def test_positivity_just_outside():
    rep = positivity_check(0.34)
    assert not rep.is_positive
    assert rep.margin == pytest.approx(1.0 - 3 * 0.34, abs=1e-9)
    # the witness realizes the reported margin
    vals = spectrum_closed_form(rep.worst_w)
    assert np.min(1.0 + 0.34 * vals) == pytest.approx(rep.margin, abs=1e-9)


def test_positivity_negative_coupling_symmetric():
    rep = positivity_check(-0.34)
    assert not rep.is_positive
    assert rep.margin == pytest.approx(1.0 - 3 * 0.34, abs=1e-9)


# ---------------------------------------------------------------- choi


def test_choi_at_zero_coupling():
    assert np.allclose(choi_matrix(0.0), np.eye(8))


def test_choi_block_entries():
    k = choi_matrix(1.0) - np.eye(8)
    assert k[0, 3] == pytest.approx(-2j)
    assert k[0, 7] == pytest.approx(1 - 1j)


def test_choi_reconstruction_against_literal():
    rng = np.random.default_rng(6)
    for eps in rng.uniform(-1.0, 1.0, size=10):
        for m in (choi_matrix(eps), choi_matrix_family(eps)):
            assert np.max(np.abs(m - (np.eye(8) + eps * CHOI_BLOCK_UNIT))) <= 1e-13


def test_choi_extreme_eigenvalue():
    vals, _ = hermitian_eigh(CHOI_BLOCK_UNIT)
    assert np.max(np.abs(vals)) == pytest.approx(3.0 * np.sqrt(3.0), abs=1e-9)


def test_cp_check_thresholds():
    assert cp_check(build_coeff_tensor(0.19)).is_cp
    assert not cp_check(build_coeff_tensor(0.20)).is_cp
    rep = cp_check(build_coeff_tensor(0.0))
    assert rep.is_cp
    assert rep.min_choi_eig == pytest.approx(1.0)
    assert np.array_equal(rep.eigenvalues, np.sort(rep.eigenvalues))
    assert rep.eigenvalues[0] == rep.min_choi_eig


# ---------------------------------------------------------------- bands


def test_threshold_ordering_and_bands():
    assert CP_THRESHOLD < POSITIVITY_THRESHOLD < PRESERVATION_THRESHOLD
    assert classify_epsilon(0.1) == "cp"
    assert classify_epsilon(-0.3) == "positive"
    assert classify_epsilon(0.5) == "state-preserving"
    assert classify_epsilon(0.9) == "invalid"


def test_cp_implies_positive_implies_preserving():
    for eps in (0.05, 0.15, 0.19245, 0.25, 1.0 / 3.0, 0.45, 0.57):
        cp = cp_check(build_coeff_tensor(eps)).is_cp
        pos = positivity_check(eps).is_positive
        pres = state_preservation_check(build_coeff_tensor(eps), 2000, 0).max_norm <= 1.0 + 2e-6
        if cp:
            assert pos
        if pos:
            assert pres

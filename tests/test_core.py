import numpy as np
import pytest

from qqocert import (
    PauliCoeffs,
    as_coeff_tensor,
    b_norm_sup,
    beta_matrix,
    build_coeff_tensor,
    choi_matrix,
    choi_matrix_from_tensor,
    delta_apply,
    delta_sigma_images,
    dual_pair_apply,
    haar_unital_check,
    pauli_compose,
    sampled_positivity_check,
    state_eval,
    state_preservation_check,
    tensor_is_symmetric,
    tensor_product,
)
from qqocert.core import _spectral_norm_with_vectors
from qqocert.pauli import ID4, SIGMA


def rand_tensor(rng, scale=1.0):
    return scale * rng.standard_normal((3, 3, 3))


def rand_ball(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v) * rng.uniform() ** (1.0 / 3.0)


# ---------------------------------------------------------------- tensor type


def test_as_coeff_tensor_validates():
    with pytest.raises(ValueError):
        as_coeff_tensor(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        as_coeff_tensor(np.full((3, 3, 3), np.nan))


def test_symmetry_flag():
    assert tensor_is_symmetric(build_coeff_tensor(0.4))
    b = np.zeros((3, 3, 3))
    b[0, 1, 2] = 1.0
    assert not tensor_is_symmetric(b)


# ---------------------------------------------------------------- delta


def test_delta_apply_unital():
    rng = np.random.default_rng(0)
    for _ in range(20):
        b = rand_tensor(rng)
        out = delta_apply(b, PauliCoeffs(1.0, [0, 0, 0]))
        assert np.max(np.abs(out - ID4)) <= 1e-14


def test_delta_apply_family_sigma1_image():
    eps = 0.37
    out = delta_apply(build_coeff_tensor(eps), PauliCoeffs(0.0, [1, 0, 0]))
    expected = eps * (
        tensor_product(SIGMA[0], SIGMA[0])
        + tensor_product(SIGMA[1], SIGMA[2])
        + tensor_product(SIGMA[2], SIGMA[1])
    )
    assert np.max(np.abs(out - expected)) <= 1e-14


def test_delta_apply_zero_tensor():
    out = delta_apply(np.zeros((3, 3, 3)), PauliCoeffs(2.5 + 1j, [4, 5, 6]))
    assert np.max(np.abs(out - (2.5 + 1j) * ID4)) <= 1e-14


def test_delta_apply_star_preserving():
    rng = np.random.default_rng(1)
    for _ in range(50):
        b = rand_tensor(rng)
        c = PauliCoeffs(
            complex(rng.standard_normal(), rng.standard_normal()),
            rng.standard_normal(3) + 1j * rng.standard_normal(3),
        )
        cstar = PauliCoeffs(np.conj(c.w0), np.conj(c.w))
        lhs = delta_apply(b, cstar)
        rhs = delta_apply(b, c).conj().T
        assert np.max(np.abs(lhs - rhs)) <= 1e-14


def test_delta_sigma_images_match_single_calls():
    rng = np.random.default_rng(2)
    b = rand_tensor(rng)
    ds = delta_sigma_images(b)
    for k in range(3):
        assert np.allclose(ds[k], delta_apply(b, PauliCoeffs(0.0, np.eye(3)[k])))


# ---------------------------------------------------------------- beta


def test_beta_matrix_family_axis():
    eps = 0.21
    out = beta_matrix(build_coeff_tensor(eps), [1, 0, 0])
    assert np.allclose(out, eps * np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]]))


def test_beta_matrix_zero():
    assert np.allclose(beta_matrix(build_coeff_tensor(0.8), [0, 0, 0]), 0.0)


def test_beta_matrix_family_diagonal():
    eps = 0.5
    f = np.ones(3) / np.sqrt(3.0)
    out = beta_matrix(build_coeff_tensor(eps), f)
    assert np.allclose(out, (eps / np.sqrt(3.0)) * np.ones((3, 3)))


def test_beta_matrix_linear_in_f():
    rng = np.random.default_rng(3)
    b = rand_tensor(rng)
    f, g = rng.standard_normal(3), rng.standard_normal(3)
    a = rng.standard_normal()
    lhs = beta_matrix(b, a * f + g)
    rhs = a * beta_matrix(b, f) + beta_matrix(b, g)
    assert np.max(np.abs(lhs - rhs)) <= 1e-13


# ---------------------------------------------------------------- sup norm


def test_spectral_norm_with_vectors_matches_svd():
    rng = np.random.default_rng(12)
    for _ in range(200):
        m = rng.standard_normal((3, 3))
        smax, u, v = _spectral_norm_with_vectors(m)
        uu, ss, vh = np.linalg.svd(m)
        assert smax == pytest.approx(ss[0], rel=1e-12)
        # singular vectors are unique up to a common sign
        sign = np.sign(np.dot(v, vh[0]))
        assert np.max(np.abs(v - sign * vh[0])) <= 1e-9
        assert np.max(np.abs(u - sign * uu[:, 0])) <= 1e-9
        assert not np.iscomplexobj(u) and not np.iscomplexobj(v)


def test_b_norm_sup_zero():
    assert b_norm_sup(np.zeros((3, 3, 3)), 500, 0) == 0.0


def test_b_norm_sup_family():
    eps = 0.472
    got = b_norm_sup(build_coeff_tensor(eps), 4000, 0)
    assert got == pytest.approx(np.sqrt(3.0) * eps, abs=1e-6)


def test_b_norm_sup_single_entry():
    b = np.zeros((3, 3, 3))
    b[0, 0, 0] = 1.0
    assert b_norm_sup(b, 4000, 0) == pytest.approx(1.0, abs=1e-6)


def test_b_norm_sup_homogeneous():
    rng = np.random.default_rng(4)
    b = rand_tensor(rng)
    base = b_norm_sup(b, 2000, 0)
    scaled = b_norm_sup(2.5 * b, 2000, 0)
    assert scaled == pytest.approx(2.5 * base, rel=1e-9)


def test_b_norm_sup_deterministic():
    rng = np.random.default_rng(5)
    b = rand_tensor(rng)
    assert b_norm_sup(b, 1500, 3) == b_norm_sup(b, 1500, 3)


# ---------------------------------------------------------------- dual action


def test_dual_pair_zero():
    assert np.allclose(dual_pair_apply(build_coeff_tensor(0.3), [0, 0, 0], [0, 0, 0]), 0.0)


def test_dual_pair_family_axis_pair():
    eps = 0.44
    out = dual_pair_apply(build_coeff_tensor(eps), [1, 0, 0], [0, 1, 0])
    assert np.allclose(out, [0, 0, eps])


def test_dual_pair_family_diagonal_pair():
    eps = 0.44
    out = dual_pair_apply(build_coeff_tensor(eps), [1, 0, 0], [1, 0, 0])
    assert np.allclose(out, [eps, 0, 0])


def test_dual_pair_symmetric_tensor_commutes():
    rng = np.random.default_rng(6)
    b = rand_tensor(rng)
    b = b + b.transpose(1, 0, 2)
    for _ in range(20):
        f, p = rand_ball(rng), rand_ball(rng)
        assert np.array_equal(dual_pair_apply(b, f, p), dual_pair_apply(b, p, f))


def test_duality_pairing_against_matrix_trace():
    # the dual action is adjoint to the map under the state/trace pairing
    rng = np.random.default_rng(7)
    for _ in range(200):
        b = rand_tensor(rng)
        f, p = rand_ball(rng), rand_ball(rng)
        y = PauliCoeffs(
            complex(rng.standard_normal(), rng.standard_normal()),
            rng.standard_normal(3) + 1j * rng.standard_normal(3),
        )
        rho_f = (np.eye(2) + np.einsum("k,kab->ab", f, SIGMA)) / 2.0
        rho_p = (np.eye(2) + np.einsum("k,kab->ab", p, SIGMA)) / 2.0
        lhs = np.trace(tensor_product(rho_f, rho_p) @ delta_apply(b, y))
        rhs = state_eval(dual_pair_apply(b, f, p), y)
        assert abs(lhs - rhs) <= 1e-12


# ---------------------------------------------------------------- preservation


def test_state_preservation_zero_tensor():
    rep = state_preservation_check(np.zeros((3, 3, 3)), 500, 0)
    assert rep.max_norm == 0.0
    assert rep.passes


def test_state_preservation_boundary_family():
    rep = state_preservation_check(build_coeff_tensor(1.0 / np.sqrt(3.0)), 4000, 0)
    assert rep.max_norm == pytest.approx(1.0, abs=1e-6)
    assert rep.passes
    corner = np.ones(3) / np.sqrt(3.0)
    assert min(
        np.linalg.norm(rep.witness_f - corner), np.linalg.norm(rep.witness_f + corner)
    ) <= 1e-3


def test_state_preservation_fails_above_threshold():
    rep = state_preservation_check(build_coeff_tensor(0.6), 4000, 0)
    assert rep.max_norm == pytest.approx(0.6 * np.sqrt(3.0), abs=1e-6)
    assert not rep.passes


def test_preservation_cross_validates_b_norm_sup():
    # the two certificates are equivalent: both measure the same sup
    rng = np.random.default_rng(8)
    agree = 0
    for i in range(50):
        b = rand_tensor(rng)
        scale = b_norm_sup(b, 800, 0)
        target = rng.uniform(0.90, 1.10)
        if abs(target - 1.0) < 0.02:
            target += 0.04  # keep clear of the razor edge
        b = b * (target / scale)
        norm_est = b_norm_sup(b, 800, i)
        rep = state_preservation_check(b, 800, i)
        assert rep.max_norm == pytest.approx(norm_est, abs=5e-6)
        if rep.passes == (norm_est <= 1.0 + 2e-6):
            agree += 1
    assert agree == 50


# ---------------------------------------------------------------- haar identity


def test_haar_unital_zero_and_family():
    assert haar_unital_check(np.zeros((3, 3, 3)))
    assert haar_unital_check(build_coeff_tensor(0.9))


def test_haar_unital_random_tensors():
    rng = np.random.default_rng(9)
    for _ in range(25):
        assert haar_unital_check(rand_tensor(rng, scale=3.0))


# ---------------------------------------------------------------- positivity scan


def test_sampled_positivity_matches_family_threshold():
    rep = sampled_positivity_check(build_coeff_tensor(0.30), 3000, 0)
    assert rep.is_positive
    assert rep.margin == pytest.approx(1.0 - 3 * 0.30, abs=1e-6)
    rep = sampled_positivity_check(build_coeff_tensor(0.36), 3000, 0)
    assert not rep.is_positive
    assert rep.margin == pytest.approx(1.0 - 3 * 0.36, abs=1e-6)


# ---------------------------------------------------------------- choi assembly


def test_choi_from_tensor_matches_family_route():
    for eps in (0.0, 0.21, -0.64):
        a = choi_matrix_from_tensor(build_coeff_tensor(eps))
        b = choi_matrix(eps)
        assert np.max(np.abs(a - b)) <= 1e-14


def test_choi_from_tensor_hermitian():
    # real tensors give star-preserving maps, so the block matrix is hermitian
    rng = np.random.default_rng(10)
    m = choi_matrix_from_tensor(rand_tensor(rng))
    assert np.max(np.abs(m - m.conj().T)) <= 1e-13

import math
import tracemalloc

import numpy as np
import pytest

from qqocert import (
    as_coeff_tensor,
    build_coeff_tensor,
    choi_matrix_from_tensor,
    cp_check,
    delta_sigma_images,
    hermitian_eigh,
    ks_form,
    ks_global_check,
    sampled_positivity_check,
    sphere_points,
    state_preservation_check,
)
from qqocert import core, pauli
from qqocert.core import (
    DEFAULT_SAMPLES,
    MAX_COEFF,
    REFINE_CAP,
    _bloch_vector,
    _pair_coordinates,
    _side_tables,
    product_form_minimum,
)
from qqocert.pauli import ID2, ID4, SIGMA, _members

from oracles import (
    PauliCoeffs,
    beta_matrix,
    choi_matrix_blocks,
    choi_matrix_family,
    delta_apply,
    dual_pair_apply,
    sigma_images_apply,
    state_eval,
)


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
    assert np.array_equal(as_coeff_tensor(np.full((3, 3, 3), -MAX_COEFF)), np.full((3, 3, 3), -MAX_COEFF))
    for big in (np.nextafter(MAX_COEFF, np.inf), 1e308):
        b = np.zeros((3, 3, 3))
        b[2, 0, 1] = -big
        with pytest.raises(ValueError, match="at most 1e\\+64"):
            as_coeff_tensor(b)


def test_symmetry_flag():
    b = build_coeff_tensor(0.4)
    assert np.array_equal(b, b.transpose(1, 0, 2))
    b = np.zeros((3, 3, 3))
    b[0, 1, 2] = 1.0
    assert not np.array_equal(b, b.transpose(1, 0, 2))


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
        np.kron(SIGMA[0], SIGMA[0])
        + np.kron(SIGMA[1], SIGMA[2])
        + np.kron(SIGMA[2], SIGMA[1])
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
        lhs = sigma_images_apply(b, cstar)
        rhs = sigma_images_apply(b, c).conj().T
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


def test_preservation_witness_matches_svd():
    # the certificate read off -G at its final f is sigma_1 of N(f), and p its right singular vector
    rng = np.random.default_rng(12)
    for _ in range(50):
        b = rng.standard_normal((3, 3, 3))
        rep = state_preservation_check(b, 200, 0)
        _, ss, vh = np.linalg.svd(np.einsum("ijk,i->kj", b, rep.witness_f))
        assert rep.max_norm == pytest.approx(ss[0], rel=1e-12)
        # the right singular vector is unique up to sign
        sign = np.sign(np.dot(rep.witness_p, vh[0]))
        assert np.max(np.abs(rep.witness_p - sign * vh[0])) <= 1e-9
        assert not np.iscomplexobj(rep.witness_p)


# The sup norm of b, the injective norm of the dual action, is the
# max_norm of state_preservation_check, the package's one tensor-norm routine.


def test_b_norm_sup_zero():
    for b in (np.zeros((3, 3, 3)), build_coeff_tensor(0.0)):
        max_norm = state_preservation_check(b, 500, 0).max_norm
        # -0.0 == 0.0, so only the sign bit tells a report's "max_norm": 0.0 from -0.0
        assert max_norm == 0.0 and math.copysign(1.0, max_norm) == 1.0


def test_b_norm_sup_family():
    eps = 0.472
    got = state_preservation_check(build_coeff_tensor(eps), 4000, 0).max_norm
    assert got == pytest.approx(np.sqrt(3.0) * eps, abs=1e-6)


def test_b_norm_sup_single_entry():
    b = np.zeros((3, 3, 3))
    b[0, 0, 0] = 1.0
    assert state_preservation_check(b, 4000, 0).max_norm == pytest.approx(1.0, abs=1e-6)


def test_b_norm_sup_homogeneous():
    rng = np.random.default_rng(4)
    b = rand_tensor(rng)
    base = state_preservation_check(b, 2000, 0).max_norm
    scaled = state_preservation_check(2.5 * b, 2000, 0).max_norm
    assert scaled == pytest.approx(2.5 * base, rel=1e-9)


def test_b_norm_sup_deterministic():
    rng = np.random.default_rng(5)
    b = rand_tensor(rng)
    assert (
        state_preservation_check(b, 1500, 3).max_norm
        == state_preservation_check(b, 1500, 3).max_norm
    )


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
        lhs = np.trace(np.kron(rho_f, rho_p) @ delta_apply(b, y))
        rhs = state_eval(dual_pair_apply(b, f, p), y)
        assert abs(lhs - rhs) <= 1e-12
        assert abs(np.trace(np.kron(rho_f, rho_p) @ sigma_images_apply(b, y)) - rhs) <= 1e-12


# ---------------------------------------------------------------- scan then refine


@pytest.mark.parametrize("samples", [0, -2])
@pytest.mark.parametrize("check", [state_preservation_check, sampled_positivity_check, ks_global_check])
def test_certificates_reject_a_budget_below_one(check, samples):
    with pytest.raises(ValueError, match="need at least one sample"):
        check(build_coeff_tensor(0.3), samples)


def test_product_form_minimum_refuses_zero_points():
    points, coords = core._scan(1, 0, 3, True)
    with pytest.raises(ValueError):
        product_form_minimum(ks_form(build_coeff_tensor(0.3)), 3, 4, points[:0], coords[:0])


def test_refine_keeps_best_and_stops_on_a_flat_or_rising_round(scripted_search):
    # points (start, round); the kernel hands over the eight lowest, lowest first, ties in scan order
    vals = np.array([5.0, 3.0, 9.0, 3.0, 1.0, 7.0, 2.0, 8.0, 6.0, 4.0, 0.5, 10.0])
    pts = np.stack([np.arange(12.0), np.zeros(12)], axis=1)
    starts = np.argsort(vals, kind="stable")[:8]
    # a round that only ever rises is never taken; the best start wins
    val, x, calls = scripted_search(pts, vals, lambda v: np.full(len(v), 99.0))
    assert (val, list(x)) == (0.5, [10.0, 0.0])
    assert [t for t, _ in calls].count("y") == 1
    # a round to a fixed value is taken once; the next round stops the descent
    val, x, calls = scripted_search(pts, vals, lambda v: np.zeros(len(v)))
    assert (val, list(x)) == (0.0, [10.0, 1.0])
    assert [t for t, _ in calls].count("y") == 2
    # a round that always halves runs from each start handed to the cap; the tie goes to the first
    val, x, calls = scripted_search(pts, vals + 1.0, lambda v: 0.5 ** v[:, 1])
    rounds = [rows for t, rows in calls if t == "y"]
    assert len(rounds) == REFINE_CAP
    assert calls[0][0] == "x" and np.array_equal(calls[0][1], pts[starts])
    assert all(np.array_equal(rows[:, 0], starts) for rows in rounds)
    assert val == 0.5**REFINE_CAP and list(x) == [10.0, REFINE_CAP]


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


def test_state_preservation_builds_few_grams(monkeypatch):
    # every matrix LAPACK reads passes the guard, and the pruned grams are never
    # built; the count includes the table and the refine
    built = []
    guard = pauli.require_hermitian

    def counting(m):
        if np.ndim(m) == 3:
            built.append(len(m))
        return guard(m)

    monkeypatch.setattr(pauli, "require_hermitian", counting)
    rep = state_preservation_check(rand_tensor(np.random.default_rng(5), 0.25))
    assert rep.max_norm > 0
    assert 0 < sum(built) < 0.1 * DEFAULT_SAMPLES


def test_preservation_cross_validates_b_norm_sup():
    # against an independent reference: the dual image norm over 100k
    # random pairs of unit vectors, a lower bound of the sup
    rng = np.random.default_rng(8)
    fs = rng.standard_normal((100_000, 3))
    fs /= np.linalg.norm(fs, axis=1, keepdims=True)
    ps = rng.standard_normal((100_000, 3))
    ps /= np.linalg.norm(ps, axis=1, keepdims=True)
    for i in range(50):
        b = rand_tensor(rng)
        scale = state_preservation_check(b, 800, 0).max_norm
        target = rng.uniform(0.90, 1.10)
        if abs(target - 1.0) < 0.02:
            target += 0.04  # keep clear of the razor edge
        b = b * (target / scale)
        rep = state_preservation_check(b, 800, i)
        witness = np.linalg.norm(dual_pair_apply(b, rep.witness_f, rep.witness_p))
        assert abs(witness - rep.max_norm) <= 1e-12 * rep.max_norm
        imgs = np.einsum("nij,nj->ni", (fs @ b.reshape(3, 9)).reshape(-1, 3, 3), ps)
        sampled = np.sqrt(np.max(np.einsum("ni,ni->n", imgs, imgs)))
        assert rep.max_norm >= sampled
        assert rep.passes == (sampled <= 1.0 + 1e-9)


# ---------------------------------------------------------------- haar identity


def haar_unital_check(b, atol=1e-13):
    """Both partial normalized traces of every basis image equal tau(x) * I2.

    Structurally true for any real tensor because the Pauli pairs are
    traceless in each slot; a regression test of the assembled matrices,
    both term by term and from delta_sigma_images.
    """
    basis = [PauliCoeffs(1.0, np.zeros(3))] + [
        PauliCoeffs(0.0, np.eye(3)[k]) for k in range(3)
    ]
    images = [delta_apply(b, x) for x in basis] + [sigma_images_apply(b, x) for x in basis]
    for x, image in zip(basis + basis, images):
        m = image.reshape(2, 2, 2, 2)
        left = 0.5 * np.einsum("ikil->kl", m)
        right = 0.5 * np.einsum("ikjk->ij", m)
        target = x.w0 * ID2  # tau(x) = w0
        if np.max(np.abs(left - target)) > atol or np.max(np.abs(right - target)) > atol:
            return False
    return True


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


def test_sampled_positivity_margin_reevaluates_below_scan():
    rng = np.random.default_rng(11)
    for scale in (0.1, 0.3, 1.0):
        for _ in range(5):
            b = rand_tensor(rng, scale)
            ds = delta_sigma_images(b)
            rep = sampled_positivity_check(b, 2000, 0)
            re_eval = hermitian_eigh(ID4 + np.einsum("k,kab->ab", rep.worst_w, ds))[0][0]
            assert abs(re_eval - rep.margin) <= 1e-12
            pts = _bloch_vector(sphere_points(2000, 0, 2, True))
            scan = np.linalg.eigvalsh(ID4 + np.einsum("nk,kab->nab", pts, ds))[:, 0]
            assert rep.margin <= np.min(scan)
            assert abs(np.linalg.norm(rep.worst_w) - 1.0) <= 1e-12


def test_choi_product_form_at_conj_u_is_positivity_member():
    # 2*Delta(|u><u|) = 1 + w.Dsigma, w the Bloch vector <u, sigma u> of u, is the Choi form at conj(u)
    rng = np.random.default_rng(12)
    for scale in (0.05, 0.3, 1.0, 3.0, 10.0):
        for _ in range(10):
            b = rand_tensor(rng, scale)
            choi = choi_matrix_from_tensor(b)
            u = rng.standard_normal((20, 2)) + 1j * rng.standard_normal((20, 2))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            w = np.real(np.einsum("na,kab,nb->nk", np.conj(u), SIGMA, u))
            member = _members(_pair_coordinates(np.conj(u)), _side_tables(choi, 2, 4, True)[0])
            image = ID4 + np.einsum("nk,kab->nab", w, delta_sigma_images(b))
            assert np.max(np.abs(member - image)) <= 1e-12 * np.linalg.norm(choi)


def test_spinors_round_trip_through_bloch_vectors():
    # the positivity scan's points v and the poles: _bloch_vector(v) is the Bloch vector of u = conj(v)
    v = np.concatenate([[[1.0, 0.0], [0.0, 1.0]], sphere_points(500, 13, 2, True)])
    w = _bloch_vector(v)
    assert np.array_equal(w[:2], [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    assert np.max(np.abs(np.linalg.norm(w, axis=1) - 1.0)) <= 1e-15
    # <u, sigma_k u> = w_k
    assert np.max(np.abs(np.einsum("na,kab,nb->nk", v, SIGMA, np.conj(v)) - w)) <= 1e-15


def test_sampled_positivity_margin_not_below_min_choi_eig():
    # the margin is C's minimum on product vectors, so the Rayleigh bound holds: CP implies positive
    rng = np.random.default_rng(14)
    for scale in (0.05, 0.3, 1.0, 3.0, 10.0):
        for _ in range(4):
            b = rand_tensor(rng, scale)
            tol = 1e-12 * np.linalg.norm(choi_matrix_from_tensor(b))
            assert sampled_positivity_check(b, 500, 0).margin >= cp_check(b).min_choi_eig - tol


def test_sampled_positivity_peak_memory():
    # the whole stack of 20,000 images alone takes 5.1 MB
    b = rand_tensor(np.random.default_rng(5), 0.25)
    sampled_positivity_check(b)
    tracemalloc.start()
    try:
        sampled_positivity_check(b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


# ---------------------------------------------------------------- choi assembly


def test_choi_from_tensor_matches_family_route():
    for eps in (0.0, 0.21, -0.64):
        a = choi_matrix_from_tensor(build_coeff_tensor(eps))
        b = choi_matrix_family(eps)
        assert np.max(np.abs(a - b)) <= 1e-14


def test_choi_from_tensor_matches_per_unit_blocks_bitwise():
    # the one contraction against delta_apply on each matrix unit, joined by np.block
    rng = np.random.default_rng(19)
    tensors = [build_coeff_tensor(e) for e in (0.0, 0.1, 0.2254, 1.0 / 3.0, -0.4, 0.5, 1.0)]
    tensors += [rand_tensor(rng, 10.0 ** rng.uniform(-3.0, 3.0)) for _ in range(1000)]
    for b in tensors:
        assert choi_matrix_from_tensor(b).tobytes() == choi_matrix_blocks(b).tobytes()


def test_choi_from_tensor_hermitian():
    # real tensors give star-preserving maps, so the block matrix is hermitian
    rng = np.random.default_rng(10)
    m = choi_matrix_from_tensor(rand_tensor(rng))
    assert np.max(np.abs(m - m.conj().T)) <= 1e-13

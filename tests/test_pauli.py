import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qqocert import (
    NonHermitianInput,
    PauliCoeffs,
    b_matrix,
    cross_product,
    hermitian_eigh,
    hermitian_lowest_eigvals,
    pauli_decompose,
    tensor_product,
)
from qqocert.pauli import ID2, REFINE_STARTS, SIGMA, lowest_indices

from oracles import pauli_compose, state_eval

finite = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)


def rand_complex_mat(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def rand_hermitian(rng, n):
    m = rand_complex_mat(rng, n)
    return m + m.conj().T


# ---------------------------------------------------------------- compose


def test_compose_identity():
    assert np.allclose(pauli_compose(PauliCoeffs(1.0, [0, 0, 0])), ID2)


def test_compose_sigma1():
    m = pauli_compose(PauliCoeffs(0.0, [1, 0, 0]))
    assert np.allclose(m, [[0, 1], [1, 0]])


def test_compose_matrix_unit_e11():
    m = pauli_compose(PauliCoeffs(0.5, [0, 0, 0.5]))
    assert np.allclose(m, [[1, 0], [0, 0]])


def test_decompose_identity():
    c = pauli_decompose(ID2)
    assert c.w0 == 1.0
    assert np.allclose(c.w, 0.0)


def test_decompose_matrix_unit_e12():
    c = pauli_decompose([[0, 1], [0, 0]])
    assert abs(c.w0) == 0.0
    assert np.allclose(c.w, [0.5, 0.5j, 0.0])


def test_roundtrip_random_bulk():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(10_000):
        m = rand_complex_mat(rng, 2)
        back = pauli_compose(pauli_decompose(m))
        worst = max(worst, np.max(np.abs(back - m)))
    assert worst <= 1e-14


@settings(deadline=None)
@given(entries=st.lists(finite, min_size=8, max_size=8))
def test_roundtrip_hypothesis(entries):
    m = np.array(entries[:4]).reshape(2, 2) + 1j * np.array(entries[4:]).reshape(2, 2)
    assert np.max(np.abs(pauli_compose(pauli_decompose(m)) - m)) <= 1e-13


def test_coefficient_roundtrip():
    rng = np.random.default_rng(1)
    for _ in range(100):
        c = PauliCoeffs(
            complex(rng.standard_normal(), rng.standard_normal()),
            rng.standard_normal(3) + 1j * rng.standard_normal(3),
        )
        back = pauli_decompose(pauli_compose(c))
        assert abs(back.w0 - c.w0) <= 1e-14
        assert np.max(np.abs(back.w - c.w)) <= 1e-14


def test_trace_is_twice_w0():
    rng = np.random.default_rng(2)
    for _ in range(100):
        m = rand_complex_mat(rng, 2)
        c = pauli_decompose(m)
        assert abs(np.trace(m) - 2.0 * c.w0) <= 1e-14


# ---------------------------------------------------------------- kron


def test_tensor_product_identities():
    assert np.allclose(tensor_product(ID2, ID2), np.eye(4))
    e11 = np.zeros((2, 2))
    e11[0, 0] = 1
    out = tensor_product(e11, e11)
    expected = np.zeros((4, 4))
    expected[0, 0] = 1
    assert np.allclose(out, expected)
    assert np.allclose(tensor_product(SIGMA[2], SIGMA[2]), np.diag([1, -1, -1, 1]))


# ---------------------------------------------------------------- cross


def test_cross_product_examples():
    assert np.allclose(cross_product([1, 0, 0], [0, 1, 0]), [0, 0, 1])
    w = np.array([1.2, -0.3 + 1j, 2.0j])
    assert np.allclose(cross_product(w, w), 0.0)
    assert np.allclose(cross_product([1j, 0, 0], [0, 1, 0]), [0, 0, 1j])


@settings(deadline=None)
@given(parts=st.lists(finite, min_size=12, max_size=12))
def test_cross_product_antisymmetry_and_conj_identity(parts):
    u = np.array(parts[0:3]) + 1j * np.array(parts[3:6])
    v = np.array(parts[6:9]) + 1j * np.array(parts[9:12])
    assert np.allclose(cross_product(u, v), -cross_product(v, u), atol=1e-12)
    # [w, conj(w)] is purely imaginary componentwise
    c = cross_product(u, np.conj(u))
    assert np.max(np.abs(c + np.conj(c))) <= 1e-12


def test_cross_product_broadcasts():
    rng = np.random.default_rng(4)
    us = rng.standard_normal((10, 3)) + 1j * rng.standard_normal((10, 3))
    vs = rng.standard_normal((10, 3))
    batch = cross_product(us, vs)
    for i in range(10):
        assert np.allclose(batch[i], cross_product(us[i], vs[i]))


# ---------------------------------------------------------------- eigen kernel


def test_eigh_diagonal_examples():
    assert hermitian_eigh(np.diag([1.0, 2.0, 3.0, 4.0]))[0][0] == pytest.approx(1.0)
    assert hermitian_eigh(np.eye(4))[0][0] == pytest.approx(1.0)


def test_eigh_on_closed_form_matrix():
    # eigenvalue reaching -3 at w = (-1, 0, 0)
    assert hermitian_eigh(b_matrix([-1.0, 0.0, 0.0]))[0][0] == pytest.approx(
        -3.0, abs=1e-12
    )


def test_eigh_matches_numpy_and_reconstructs():
    rng = np.random.default_rng(5)
    for n in (2, 3, 4, 8):
        for _ in range(40):
            m = rand_hermitian(rng, n)
            vals, vecs = hermitian_eigh(m)
            assert np.max(np.abs(vals - np.linalg.eigvalsh(m))) <= 1e-11
            rec = (vecs * vals) @ vecs.conj().T
            assert np.max(np.abs(rec - m)) <= 1e-10


def assert_lowest_matches_full(ms):
    """Never above the exact minimum; the REFINE_STARTS lowest (stable order) are bitwise LAPACK's."""
    got = hermitian_lowest_eigvals(ms)
    ref = np.linalg.eigvalsh(ms)[:, 0]
    assert got.shape == ref.shape
    assert np.all(got <= ref)
    top = np.argsort(ref, kind="stable")[:REFINE_STARTS]
    assert np.array_equal(np.argsort(got, kind="stable")[:REFINE_STARTS], top)
    assert np.array_equal(got[top], ref[top])


def test_lowest_eigvals_matches_numpy():
    rng = np.random.default_rng(6)
    for n in (3, 4, 8):
        # fewer matrices than REFINE_STARTS, and enough for several doubling blocks
        for count in (1, 5, 200, 5000):
            ms = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
            assert_lowest_matches_full(ms + np.conj(np.swapaxes(ms, 1, 2)))


def _unitary(rng, n, real):
    g = rng.standard_normal((n, n))
    if not real:
        g = g + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


@st.composite
def _stacks(draw):
    """Stacks with ties, spectra where the trace bound is tight, and scales 1e-6 to 1e6."""
    n = draw(st.sampled_from([3, 4]))
    count = draw(st.integers(1, 40))
    real = draw(st.booleans())
    kind = draw(st.sampled_from(["random", "identity", "zero", "equal", "aaab", "abbb", "mixed"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.floats(-6.0, 6.0))

    def spectrum(kind):
        if kind == "random":
            return rng.standard_normal(n)
        a, b = rng.standard_normal(2)
        # diag(a, a, a, b) or diag(a, b, b, b): the bound equals the low end when it is single
        return np.array([a] * (n - 1) + [b]) if kind == "aaab" else np.array([a] + [b] * (n - 1))

    def matrix(kind):
        u = _unitary(rng, n, real)
        m = (u * spectrum(kind)) @ np.conj(u.T)
        return 0.5 * (m + np.conj(m.T))

    if kind in ("identity", "zero"):
        ms = np.stack([np.eye(n) * (kind == "identity")] * count)
    elif kind == "equal":
        ms = np.stack([matrix("random")] * count)
    else:
        kinds = rng.choice(["random", "aaab", "abbb"], count) if kind == "mixed" else [kind] * count
        ms = np.stack([matrix(k) for k in kinds])
    ms = ms * scale
    return ms.real if real else ms.astype(complex)


@settings(max_examples=300, deadline=None)
@given(ms=_stacks())
def test_lowest_eigvals_property(ms):
    assert_lowest_matches_full(ms)


@settings(max_examples=100, deadline=None)
@given(
    count=st.integers(REFINE_STARTS, 30),
    at=st.integers(0, 30),
    entry=st.sampled_from([(0, 1), (0, 3), (1, 2), (2, 3)]),
    bad=st.sampled_from([np.nan, np.inf, 1e-9]),
)
def test_lowest_eigvals_guards_matrices_it_would_prune(count, at, entry, bad):
    # the bad matrix sits far above REFINE_STARTS or more others, so its bound
    # alone would prune it; the defect is in the upper triangle, which neither the bound nor LAPACK reads
    ms = np.stack([np.eye(4, dtype=complex)] * count + [100.0 * np.eye(4, dtype=complex)])
    ms[[count, at % count]] = ms[[at % count, count]]
    ms[at % count][entry] += bad
    with pytest.raises(NonHermitianInput):
        hermitian_lowest_eigvals(ms)


def _lowest_indices_cases():
    rng = np.random.default_rng(12)
    cases = {f"size{n}": rng.standard_normal(n) for n in (0, 1, 7, 8, 9, 5000)}
    cases["all-equal"] = np.full(5000, 0.25)
    # 3 entries below the k-th value and 400 tied at it
    cases["ties-at-kth"] = rng.permutation(np.r_[np.zeros(3), np.ones(400), rng.uniform(1.5, 2, 4597)])
    cases["signed-zeros-infs"] = rng.permutation(np.r_[[-np.inf, np.inf, -0.0, 0.0] * 5, rng.standard_normal(20)])
    cases["zeros-then-infs"] = np.r_[[0.0, -0.0] * 10, [np.inf] * 3, [-np.inf] * 3]
    return [pytest.param(v, id=name) for name, v in cases.items()]


@pytest.mark.parametrize("values", _lowest_indices_cases())
@pytest.mark.parametrize("k", [1, REFINE_STARTS, 400])
def test_lowest_indices_matches_stable_argsort(values, k):
    assert np.array_equal(lowest_indices(values, k), np.argsort(values, kind="stable")[:k])


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(st.sampled_from([-np.inf, -1.0, -0.0, 0.0, 0.5, 1.0, np.inf]), max_size=40),
    k=st.integers(1, 12),
)
def test_lowest_indices_property(values, k):
    # a pool of seven values: ties at the k-th value, signed zeros and infinities throughout
    values = np.array(values)
    assert np.array_equal(lowest_indices(values, k), np.argsort(values, kind="stable")[:k])


def test_lowest_eigvals_empty_stack():
    assert hermitian_lowest_eigvals(np.zeros((0, 4, 4))).shape == (0,)


def test_eigh_deterministic():
    rng = np.random.default_rng(7)
    m = rand_hermitian(rng, 4)
    v1, _ = hermitian_eigh(m)
    v2, _ = hermitian_eigh(m)
    assert np.array_equal(v1, v2)


def test_eigh_rejects_non_hermitian():
    with pytest.raises(NonHermitianInput):
        hermitian_eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eigh_zero_matrix():
    vals, _ = hermitian_eigh(np.zeros((4, 4)))
    assert np.allclose(vals, 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_eigen_kernel_rejects_non_finite(bad):
    m = np.eye(4, dtype=complex)
    m[1, 1] = bad
    with pytest.raises(NonHermitianInput):
        hermitian_eigh(m)
    with pytest.raises(NonHermitianInput):
        hermitian_lowest_eigvals(np.stack([np.eye(4), m]))


def test_lowest_eigvals_rejects_one_non_hermitian_matrix():
    rng = np.random.default_rng(9)
    ms = np.array([rand_hermitian(rng, 4) for _ in range(50)])
    hermitian_lowest_eigvals(ms)
    # LAPACK reads one triangle only; the guard must still see the other
    ms[37, 0, 3] += 1e-9
    with pytest.raises(NonHermitianInput):
        hermitian_lowest_eigvals(ms)


def test_eigen_kernel_rejects_wrong_rank():
    with pytest.raises(ValueError):
        hermitian_eigh(np.zeros(4))
    with pytest.raises(ValueError):
        hermitian_eigh(np.zeros((2, 4, 3)))
    with pytest.raises(ValueError):
        hermitian_lowest_eigvals(np.eye(4))


def test_eigh_stack_matches_one_at_a_time_and_guards_every_matrix():
    rng = np.random.default_rng(12)
    ms = np.array([rand_hermitian(rng, 4) for _ in range(8)])
    vals, vecs = hermitian_eigh(ms)
    for m, v, u in zip(ms, vals, vecs):
        one_v, one_u = hermitian_eigh(m)
        assert v.tobytes() == one_v.tobytes() and u.tobytes() == one_u.tobytes()
    ms[5, 2, 0] += 1e-9
    with pytest.raises(NonHermitianInput):
        hermitian_eigh(ms)


def test_eigh_real_symmetric_input_gives_real_vectors():
    rng = np.random.default_rng(10)
    a = rng.standard_normal((3, 3))
    vals, vecs = hermitian_eigh(a.T @ a)
    assert not np.iscomplexobj(vals) and not np.iscomplexobj(vecs)
    assert np.allclose(a.T @ a @ vecs, vecs * vals, atol=1e-12)


# ---------------------------------------------------------------- states


def test_state_eval_center_is_normalized_trace():
    c = PauliCoeffs(0.7 + 0.1j, [1.0, 2.0, 3.0])
    assert state_eval([0, 0, 0], c) == pytest.approx(0.7 + 0.1j)


def test_state_eval_sigma1_at_x_pole():
    assert state_eval([1, 0, 0], PauliCoeffs(0.0, [1, 0, 0])) == pytest.approx(1.0)


def test_state_eval_diagonal_direction():
    f = np.ones(3) / np.sqrt(3.0)
    c = PauliCoeffs(0.0, [1.0, 1.0, 1.0])
    assert state_eval(f, c) == pytest.approx(np.sqrt(3.0))

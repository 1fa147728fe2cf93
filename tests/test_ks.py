import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qqocert import (
    PauliCoeffs,
    beta_matrix,
    build_coeff_tensor,
    delta_apply,
    delta_sigma_images,
    hermitian_eigh,
    ks_defect,
    ks_form,
    ks_global_check,
    ks_necessary_check,
    pauli_decompose,
)
from qqocert import core, ks
from qqocert.core import (
    REFINE_CAP,
    _norm_step,
    _positivity_step,
    _spectral_norm_with_vectors,
    scan_then_refine,
)
from qqocert.ks import _auxiliaries, _descent_step, _scan_directions, _tables
from qqocert.pauli import ID4, SIGMA

from oracles import (
    ABCD_EXACT,
    ABCD_W,
    serial_ks_step,
    serial_norm_step,
    serial_positivity_step,
    serial_scan_then_refine,
)

unit = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


def rand_tensor(rng, scale=1.0):
    return scale * rng.standard_normal((3, 3, 3))


def rand_unit_w(rng):
    w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    return w / np.linalg.norm(w)


def rand_ball(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v) * rng.uniform() ** (1.0 / 3.0)


def defect_direct(b, w):
    """Independent oracle: image of (w.sigma)*(w.sigma) minus the product of images."""
    x = np.einsum("k,kab->ab", np.asarray(w, dtype=complex), SIGMA)
    lhs = delta_apply(b, pauli_decompose(x.conj().T @ x))
    dx = delta_apply(b, PauliCoeffs(0.0, w))
    return lhs - dx.conj().T @ dx


# ---------------------------------------------------------------- defect


def test_defect_trivial_map_is_identity():
    w = rand_unit_w(np.random.default_rng(0))
    d = ks_defect(np.zeros((3, 3, 3)), w)
    assert np.max(np.abs(d - ID4)) <= 1e-14


def test_defect_two_path_identity():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(1000):
        b = rand_tensor(rng)
        w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        worst = max(worst, np.max(np.abs(ks_defect(b, w) - defect_direct(b, w))))
    assert worst <= 1e-12


def test_defect_hermitian():
    rng = np.random.default_rng(2)
    for _ in range(50):
        d = ks_defect(rand_tensor(rng), rng.standard_normal(3) + 1j * rng.standard_normal(3))
        assert np.max(np.abs(d - d.conj().T)) <= 1e-13


def test_defect_phase_invariant():
    rng = np.random.default_rng(3)
    b = rand_tensor(rng)
    w = rand_unit_w(rng)
    for theta in (0.3, 1.2, 4.0):
        d1 = ks_defect(b, w)
        d2 = ks_defect(b, np.exp(1j * theta) * w)
        assert np.max(np.abs(d1 - d2)) <= 1e-13


@settings(deadline=None, max_examples=50)
@given(c=st.floats(0.05, 3.0, allow_nan=False))
def test_defect_scales_quadratically(c):
    rng = np.random.default_rng(4)
    b = rand_tensor(rng)
    w = rand_unit_w(rng)
    d1 = ks_defect(b, c * w)
    d2 = (c**2) * ks_defect(b, w)
    assert np.max(np.abs(d1 - d2)) <= 1e-12 * max(1.0, c**2)


def test_defect_real_direction_formula():
    rng = np.random.default_rng(5)
    b = rand_tensor(rng)
    w = rng.standard_normal(3)
    w /= np.linalg.norm(w)
    from qqocert import delta_sigma_images

    wd = np.einsum("k,kab->ab", w, delta_sigma_images(b))
    assert np.max(np.abs(ks_defect(b, w) - (ID4 - wd @ wd))) <= 1e-13


def test_defect_psd_at_cp_coupling():
    b = build_coeff_tensor(1.0 / (3.0 * np.sqrt(3.0)))
    rng = np.random.default_rng(6)
    for _ in range(200):
        w = rand_unit_w(rng)
        assert hermitian_eigh(ks_defect(b, w))[0][0] >= -1e-9


# ---------------------------------------------------------------- form


def test_form_matches_direct_defect():
    # both readings of M: the quadratic form on w x psi and the (9, 16)
    # table of blocks contracted with conj(w) x w
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(1000):
        b = rand_tensor(rng)
        w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi /= np.linalg.norm(psi)
        m = ks_form(b)
        direct = defect_direct(b, w)
        v = np.kron(w, psi)
        worst = max(worst, abs(np.conj(v) @ m @ v - np.conj(psi) @ direct @ psi))
        table = m.reshape(3, 4, 3, 4).transpose(0, 2, 1, 3).reshape(9, 16)
        via_table = (np.kron(np.conj(w), w) @ table).reshape(4, 4)
        worst = max(worst, np.max(np.abs(via_table - direct)))
    assert worst <= 1e-12


def test_form_hermitian():
    rng = np.random.default_rng(13)
    for scale in (0.1, 1.0, 10.0):
        for _ in range(20):
            m = ks_form(rand_tensor(rng, scale))
            assert m.shape == (12, 12)
            assert np.array_equal(m, m.conj().T)


def test_form_psd_exactly_up_to_cp_threshold():
    cp = 1.0 / (3.0 * np.sqrt(3.0))
    assert np.linalg.eigvalsh(ks_form(build_coeff_tensor(cp)))[0] >= -1e-12
    assert np.linalg.eigvalsh(ks_form(build_coeff_tensor(cp + 1e-6)))[0] < -1e-7


# ---------------------------------------------------------------- auxiliaries


def test_auxiliaries_family_real_axis():
    eps = 1.0 / 3.0
    e1 = np.array([1.0, 0.0, 0.0])
    x, alpha, gamma, q = _auxiliaries(build_coeff_tensor(eps), e1, e1.astype(complex))
    assert np.allclose(x[0], [eps, 0, 0])
    assert np.allclose(x[1], [0, 0, eps])
    assert np.allclose(x[2], [0, eps, 0])
    assert np.allclose(alpha, 0.0)
    assert np.allclose(gamma[1, 2], [-2 * eps**2, 0, 0])
    assert np.allclose(q, 0.0)


def test_auxiliaries_zero_direction():
    for part in _auxiliaries(build_coeff_tensor(0.4), np.array([0.3, 0.1, -0.2]), np.zeros(3, dtype=complex)):
        assert np.allclose(part, 0.0)


def test_auxiliaries_alpha_skew():
    rng = np.random.default_rng(7)
    for _ in range(50):
        _, alpha, _, _ = _auxiliaries(
            rand_tensor(rng),
            rng.standard_normal(3),
            rng.standard_normal(3) + 1j * rng.standard_normal(3),
        )
        assert np.max(np.abs(alpha + np.conj(alpha))) <= 1e-12
        assert np.max(np.abs(alpha + alpha.T)) <= 1e-12


def test_auxiliaries_q_recomputed_from_beta():
    rng = np.random.default_rng(8)
    for _ in range(50):
        b = rand_tensor(rng)
        f = rng.standard_normal(3)
        w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        q = _auxiliaries(b, f, w)[3]
        cw = np.cross(w, np.conj(w))
        expected = np.array(
            [np.sum(beta_matrix(b, f)[m] * np.conj(cw)) for m in range(3)]
        )
        assert np.max(np.abs(q - expected)) <= 1e-13


# ---------------------------------------------------------------- necessary check


def test_abcd_calibration_exact_fractions():
    rep = ks_necessary_check(build_coeff_tensor(1.0 / 3.0), [1, 0, 0], ABCD_W)
    for got, want in zip(rep.abcd, ABCD_EXACT):
        assert abs(got - want) / want <= 1e-12
    assert not rep.holds2
    assert np.sqrt(sum(rep.abcd[:3])) > rep.abcd[3]


def test_necessary_zero_coupling_holds():
    rng = np.random.default_rng(9)
    for _ in range(20):
        w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        rep = ks_necessary_check(np.zeros((3, 3, 3)), rand_ball(rng), w)
        assert rep.holds11 and rep.holds2
        assert rep.rhs11 == 0.0
        assert rep.lhs11 == pytest.approx(np.sum(np.abs(w) ** 2))


def test_necessary_real_direction_hand_values():
    rep = ks_necessary_check(build_coeff_tensor(1.0 / 3.0), [1, 0, 0], [1, 0, 0])
    assert rep.lhs2 == pytest.approx(2.0 / 9.0, abs=1e-15)
    assert rep.rhs2 == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert rep.holds2 and rep.holds11


def test_norm_side_consistency():
    rng = np.random.default_rng(10)
    for _ in range(50):
        rep = ks_necessary_check(
            rand_tensor(rng),
            [1, 0, 0],
            rng.standard_normal(3) + 1j * rng.standard_normal(3),
        )
        assert rep.lhs2 == pytest.approx(np.sqrt(sum(rep.abcd[:3])), abs=1e-12)
        assert rep.rhs2 == rep.abcd[3]


# ---------------------------------------------------------------- global search


def test_scan_directions_unit_and_seeded():
    a = _scan_directions(2000, 3)
    assert a.shape == (2000, 3) and a.dtype == complex
    assert np.max(np.abs(np.linalg.norm(a, axis=1) - 1.0)) <= 1e-14
    assert np.array_equal(a, _scan_directions(2000, 3))
    assert not np.allclose(a, _scan_directions(2000, 4))


def test_global_check_refines_below_scan():
    b = rand_tensor(np.random.default_rng(14), scale=0.7)
    samples = 2000
    ws = _scan_directions(samples, 0)
    scan = min(hermitian_eigh(ks_defect(b, w))[0][0] for w in ws)
    wit = ks_global_check(b, samples, 0, 1e-8)
    assert wit is not None
    assert wit.min_eig <= scan


def test_global_check_witness_normalized_and_reevaluates():
    b = rand_tensor(np.random.default_rng(15), scale=0.7)
    wit = ks_global_check(b, 2000, 0, 1e-8)
    assert wit is not None
    assert abs(np.linalg.norm(wit.w) - 1.0) <= 1e-12
    top = np.argmax(np.abs(wit.w))
    assert wit.w[top].imag == 0.0 and wit.w[top].real > 0.0
    assert abs(hermitian_eigh(ks_defect(b, wit.w))[0][0] - wit.min_eig) <= 1e-12
    # independent oracle, not the form
    assert abs(np.linalg.eigvalsh(defect_direct(b, wit.w))[0] - wit.min_eig) <= 1e-10


def test_descent_never_rises_and_stops_before_cap():
    # every step of scan_then_refine, each run alone from one scanned point
    rng = np.random.default_rng(16)
    b = rand_tensor(rng, scale=0.7)
    ds = delta_sigma_images(b)
    w_table, psi_table = _tables(ks_form(b))
    real_starts = rng.standard_normal((20, 3))
    real_starts /= np.linalg.norm(real_starts, axis=1, keepdims=True)
    cases = [
        # (step, starts, value at a point), the tensor norm negated
        (
            _norm_step(b),
            real_starts,
            lambda f: -_spectral_norm_with_vectors(np.einsum("ijk,i->kj", b, f))[0],
        ),
        (
            _positivity_step(ds),
            real_starts,
            lambda w: hermitian_eigh(ID4 + np.einsum("k,kab->ab", w, ds))[0][0],
        ),
        (
            _descent_step(w_table, psi_table),
            _scan_directions(20, 1),
            lambda w: hermitian_eigh(ks_defect(b, w))[0][0],
        ),
    ]
    for step, starts, value in cases:
        for x0 in starts:
            start = value(x0)
            val, x, rounds = scan_then_refine([x0], [start], step)
            assert val <= start
            assert rounds < REFINE_CAP
            assert abs(value(x) - val) <= 1e-12


# family couplings on both sides of the KS and positivity thresholds, and
# general tensors from well inside the unit ball to entries of size 10
_ORACLE_TENSORS = [build_coeff_tensor(e) for e in (0.1, 0.2254, 1.0 / 3.0, -0.4, 0.6)] + [
    rand_tensor(np.random.default_rng(40 + i), scale) for i, scale in enumerate((0.05, 0.3, 1.0, 3.0, 10.0))
]


def _bits(x):
    return np.asarray(x).tobytes()


@pytest.mark.parametrize("seed", [0, 1, 801])
@pytest.mark.parametrize("index", range(len(_ORACLE_TENSORS)))
def test_stacked_refine_matches_serial_oracle(monkeypatch, index, seed):
    # every certificate's refine, replayed one start at a time with the single-matrix steps
    b = _ORACLE_TENSORS[index]
    w_table, psi_table = _tables(ks_form(b))
    serial_steps = {
        "preservation": serial_norm_step(b),
        "positivity": serial_positivity_step(delta_sigma_images(b)),
        "ks": serial_ks_step(w_table, psi_table),
    }
    for name, run in (
        ("preservation", lambda: core.state_preservation_check(b, 2000, seed)),
        ("positivity", lambda: core.sampled_positivity_check(b, 2000, seed)),
        ("ks", lambda: ks_global_check(b, 5000, seed, 1e-8)),
    ):
        seen = []

        def recording(points, values, step):
            seen.append((points, values, scan_then_refine(points, values, step)))
            return seen[-1][2]

        monkeypatch.setattr(core, "scan_then_refine", recording)
        monkeypatch.setattr(ks, "scan_then_refine", recording)
        run()
        (points, values, (val, x, rounds)), = seen
        s_val, s_x, s_rounds = serial_scan_then_refine(points, values, serial_steps[name])
        assert _bits(val) == _bits(s_val) and _bits(x) == _bits(s_x) and rounds == s_rounds, name


def test_stacked_refine_stops_starts_in_different_rounds():
    # start s (scan value s) falls by 1.5 in rounds 1..s; round s + 1 is flat for even s and
    # rises by 3 for odd s, which must keep that start's last accepted point
    pts = np.stack([np.arange(8.0), np.zeros(8)], axis=1)
    seen = []

    def step(x, carry):
        seen.append((x.copy(), None if carry is None else carry.copy()))
        s = x[:, 0]
        r = np.ones(len(x)) if carry is None else carry[:, 1] + 1
        new = s - 1.5 * np.minimum(r, s) + np.where((r > s) & (s % 2 == 1), 3.0, 0.0)
        return x + [0.0, 1.0], np.stack([s, r], axis=1), new

    val, x, rounds = scan_then_refine(pts, pts[:, 0], step)
    # the live stack loses start r - 1 in round r, and each carry stays with its start
    assert [len(xs) for xs, _ in seen] == [8, 7, 6, 5, 4, 3, 2, 1]
    assert seen[0][1] is None
    for r, (xs, carry) in enumerate(seen[1:], start=2):
        assert np.array_equal(xs[:, 0], np.arange(r - 1, 8.0))
        assert np.array_equal(carry, np.stack([xs[:, 0], np.full(len(xs), r - 1.0)], axis=1))
        assert np.array_equal(xs[:, 1], np.full(len(xs), r - 1.0))
    # start 7 wins with the point of its seventh round, not of its rising eighth
    assert rounds == 8
    assert val == 7.0 - 1.5 * 7 and np.array_equal(x, [7.0, 7.0])


def test_global_check_near_ks_boundary():
    # just above the family's KS boundary (about 0.22539) the violation is tiny
    wit = ks_global_check(build_coeff_tensor(0.2254))
    assert wit is not None
    assert wit.min_eig == pytest.approx(-6.6172026e-05, abs=1e-10)


def test_global_check_large_tensor_stays_hermitian():
    # entries of size 10 put |M| in the thousands; the guarded kernel must
    # still accept every defect the search builds
    b = rand_tensor(np.random.default_rng(17), scale=10.0)
    wit = ks_global_check(b, 2000, 0, 1e-8)
    assert wit is not None
    re_eval = hermitian_eigh(ks_defect(b, wit.w))[0][0]
    assert abs(re_eval - wit.min_eig) <= 1e-12 * abs(wit.min_eig)


def test_global_check_zero_tensor_clean():
    assert ks_global_check(np.zeros((3, 3, 3)), 500, 0, 1e-8) is None


def test_global_check_validates_arguments():
    with pytest.raises(ValueError):
        ks_global_check(np.zeros((3, 3, 3)), 0, 0, 1e-8)
    with pytest.raises(ValueError):
        ks_global_check(np.zeros((3, 3, 3)), 10, 0, 0.0)


def test_global_check_finds_witness_at_one_third():
    wit = ks_global_check(build_coeff_tensor(1.0 / 3.0), 3000, 0, 1e-8)
    assert wit is not None
    assert wit.min_eig <= -1e-6
    assert np.linalg.norm(wit.w) == pytest.approx(1.0, abs=1e-12)
    # re-evaluating the defect at the witness reproduces the eigenvalue
    re_eval = hermitian_eigh(ks_defect(build_coeff_tensor(1.0 / 3.0), wit.w))[0][0]
    assert abs(re_eval - wit.min_eig) <= 1e-10


@pytest.mark.parametrize(
    "eps, expected",
    [(0.25, -0.183013), (1.0 / 3.0, -0.910684), (0.5, -2.866025)],
)
def test_global_check_pins_family_minima(eps, expected):
    # default budget, as the CLI runs it
    wit = ks_global_check(build_coeff_tensor(eps))
    assert wit is not None
    assert wit.min_eig == pytest.approx(expected, abs=1e-6)


def test_global_check_scan_prunes_most_eigensolves(monkeypatch):
    # counts matrices, not seconds: the trace bound keeps most of the scan from LAPACK
    solved = []
    eigvalsh = np.linalg.eigvalsh

    def counting(ms, *args, **kwargs):
        solved.append(len(ms))
        return eigvalsh(ms, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    wit = ks_global_check(build_coeff_tensor(1.0 / 3.0))
    assert wit.min_eig == pytest.approx(-0.910684, abs=1e-6)
    assert 0 < sum(solved) < 0.1 * 50_000


def test_global_check_sorts_no_whole_scan(monkeypatch):
    # only the candidates for the refine starts are sorted, in the kernel and in scan_then_refine
    sizes = []
    argsort = np.argsort

    def recording(a, *args, **kwargs):
        sizes.append(np.size(a))
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", recording)
    wit = ks_global_check(build_coeff_tensor(1.0 / 3.0))
    assert wit.min_eig == pytest.approx(-0.910684, abs=1e-6)
    assert sizes and max(sizes) < 0.1 * 50_000


def test_global_check_deterministic():
    b = build_coeff_tensor(1.0 / 3.0)
    w1 = ks_global_check(b, 1000, 5, 1e-8)
    w2 = ks_global_check(b, 1000, 5, 1e-8)
    assert w1.min_eig == w2.min_eig
    assert np.array_equal(w1.w, w2.w)


def test_no_witness_implies_necessary_conditions_hold():
    # necessity: where the defect stays positive, both scalar conditions hold
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(10):
        b = rand_tensor(rng, scale=0.1)
        if ks_global_check(b, 1500, 0, 1e-8) is not None:
            continue
        checked += 1
        for _ in range(20):
            f = rand_ball(rng)
            w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            rep = ks_necessary_check(b, f, w)
            assert rep.holds11 and rep.holds2
    assert checked >= 5


def test_ks2_violation_implies_defect_witness():
    # contrapositive on the family at coupling 1/3
    b = build_coeff_tensor(1.0 / 3.0)
    rep = ks_necessary_check(b, [1, 0, 0], ABCD_W)
    assert not rep.holds2
    assert ks_global_check(b, 3000, 1, 1e-8) is not None

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qqocert import (
    build_coeff_tensor,
    delta_sigma_images,
    hermitian_eigh,
    hermitian_lowest_eigvals,
    ks_defect,
    ks_form,
    ks_global_check,
    ks_necessary_check,
    sampled_positivity_check,
    sphere_points,
    state_preservation_check,
)
from qqocert import core, ks, pauli, sampling
from qqocert.core import (
    REFINE_CAP,
    _bloch_vector,
    _pair_coordinates,
    _side_tables,
    choi_matrix_from_tensor,
    product_form_minimum,
)
from qqocert.ks import KS_COND_TOL, KS_DEFAULT_SAMPLES, KS_DEFAULT_TOL
from qqocert.pauli import ID4, SIGMA, _hermitian_part, _members, lowest_indices

from oracles import (
    ABCD_EXACT,
    ABCD_W,
    CP_THRESHOLD,
    PauliCoeffs,
    _auxiliaries,
    beta_matrix,
    complex_sphere,
    delta_apply,
    dual_pair_apply,
    necessary_conditions_paper,
    pauli_decompose,
    rand_ball,
    rand_tensor,
    serial_product_step,
    serial_scan_then_refine,
    stack_lowest_eigvals,
)

unit = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


def ks_tables(b):
    """ks_form(b)'s side tables in w and in psi, the views the KS search refines on."""
    return core._side_tables(ks_form(b), 3)


def neg_gram(b):
    """-G, G[(i, j), (l, m)] = sum_k b[i][j][k] b[l][m][k], the form the tensor norm search minimizes."""
    return -np.einsum("ijk,lmk->ijlm", b, b).reshape(9, 9)


def gram_tables(b):
    """-G's side tables in f and in p."""
    return core._side_tables(neg_gram(b), 3)


def choi_tables(b):
    """The Choi matrix's side tables in v and in psi, the views the positivity search refines on."""
    return core._side_tables(choi_matrix_from_tensor(b), 2)


def positive_tensor():
    """A seeded positive tensor that is not CP, the one CI writes as pos.json: its form is indefinite, so ks scans."""
    return rand_tensor(np.random.default_rng(4), 0.15)


def ks_scan(b, samples=KS_DEFAULT_SAMPLES, seed=0):
    """The KS search run directly on ks_form(b), as ks_global_check runs it when the form is not PSD."""
    tables = ks_tables(b)
    points, coords = ks._scan((samples, seed))
    starts, values = ks.hermitian_lowest_eigvals(coords, tables[0])
    return core.product_form_minimum(tables, points[starts], values)


def record_searches(monkeypatch):
    """A list that each core.product_form_minimum call appends a dict to, with what led up to it.

    x, val: copies of the candidates and values handed; tables: the side tables handed; kernel:
    (starts, values, table) of each kernel call since the last search, the KS scan's; mesh:
    (outcome, points, raw) of each _mesh call since then, a mesh certificate's; lowest: (table, v) of
    each _lowest call, so the calls on the y-side table count the refine's rounds; result: the
    search's (value, x).
    """
    searches, kernels, meshes = [], [], []
    search, kernel, lowest, mesh = core.product_form_minimum, ks.hermitian_lowest_eigvals, core._lowest, core._mesh

    def recording_search(tables, x, val):
        searches.append({"x": x.copy(), "val": val.copy(), "tables": tables, "kernel": kernels[:], "mesh": meshes[:],
                         "lowest": []})
        kernels.clear()
        meshes.clear()
        result = search(tables, x, val)
        searches[-1]["result"] = result
        return result

    def recording_kernel(coeffs, table):
        starts, values = kernel(coeffs, table)
        kernels.append((starts, values.copy(), table))
        return starts, values

    def recording_mesh(value, floor):
        meshes.append(mesh(value, floor))
        return meshes[-1]

    def recording_lowest(v, table):
        searches[-1]["lowest"].append((table, v.copy()))
        return lowest(v, table)

    monkeypatch.setattr(core, "product_form_minimum", recording_search)
    monkeypatch.setattr(ks, "hermitian_lowest_eigvals", recording_kernel)
    monkeypatch.setattr(core, "_mesh", recording_mesh)
    monkeypatch.setattr(core, "_lowest", recording_lowest)
    return searches


def first_rows(search):
    """The rows of a recorded search's first _lowest call, on its x-side table: the starts the refine took."""
    (table, rows), *_ = search["lowest"]
    assert table is search["tables"][0]
    return rows


def refine_rounds(search):
    """The rounds a recorded search's refine ran: its _lowest calls on its y-side table."""
    return sum(table is search["tables"][1] for table, _ in search["lowest"])


def rand_unit_w(rng):
    w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    return w / np.linalg.norm(w)


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


def test_necessary_check_refuses_non_finite_inputs():
    b = build_coeff_tensor(0.1)
    for bad in (np.nan, np.inf, -np.inf):
        for f, w in (([bad, 0, 0], [1, 0, 0]), ([1, 0, 0], [0, bad, 0]), ([1, 0, 0], [0, 0, 1j * bad])):
            with pytest.raises(ValueError, match="f and w must be finite"):
                ks_necessary_check(b, f, w)


def rand_necessary_input(rng):
    """(b, f, w): a tensor at scale 0.01-10, f in the unit ball, w complex and unnormalised."""
    b = rand_tensor(rng, 10.0 ** rng.uniform(-2.0, 1.0))
    return b, rand_ball(rng), rng.standard_normal(3) + 1j * rng.standard_normal(3)


def test_necessary_check_matches_paper_auxiliaries():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        b, f, w = rand_necessary_input(rng)
        got = vars(ks_necessary_check(b, f, w))
        want = necessary_conditions_paper(b, f, w)
        for name in ("lhs11", "rhs11", "lhs2", "rhs2"):
            assert abs(got[name] - want[name]) <= 1e-13 * max(1.0, abs(want[name])), name
        for x, y in zip(got["abcd"], want["abcd"]):
            assert abs(x - y) <= 1e-13 * max(1.0, abs(y))
        # each verdict agrees unless either route sits within 1e-13 of its tie
        for holds, lhs, rhs, side in (("holds11", "lhs11", "rhs11", -1), ("holds2", "lhs2", "rhs2", 1)):
            if all(abs(r[lhs] - r[rhs] - side * KS_COND_TOL) > 1e-13 * max(1.0, abs(r[lhs]), abs(r[rhs]))
                   for r in (got, want)):
                assert got[holds] == want[holds], holds


def pauli_pair_coordinates(m):
    """c[a, c] = tr[(P_a x P_c) m]/4 for P = (1, sigma_1, sigma_2, sigma_3)."""
    basis = [np.eye(2)] + list(SIGMA)
    return np.array([[np.trace(np.kron(p, q) @ m) / 4 for q in basis] for p in basis])


def test_necessary_conditions_read_the_defect():
    # condition 1's slack is the expectation of the defect in rho_f x 1/2, and condition 2's
    # vector its coordinates on sigma_k in the second factor, seen through f in the first
    rng = np.random.default_rng(18)
    for _ in range(300):
        b, f, w = rand_necessary_input(rng)
        d = pauli_pair_coordinates(ks_defect(b, w))
        rep = ks_necessary_check(b, f, w)
        tol = 1e-12 * (1.0 + np.sum(b**2)) * np.sum(np.abs(w) ** 2)
        assert abs(rep.rhs2 - (d[0, 0] + f @ d[1:, 0])) <= tol
        v = -d[0, 1:] - 1j * (f @ d[1:, 1:])
        assert np.max(np.abs(np.abs(v) ** 2 - rep.abcd[:3])) <= tol * (1.0 + 2.0 * np.linalg.norm(v))
        assert abs(np.linalg.norm(v) - rep.lhs2) <= tol


# ---------------------------------------------------------------- global search


def test_scan_directions_unit_and_seeded():
    # the KS scan's directions are bitwise the normalized complex Gaussians it has always drawn
    g = np.random.default_rng(3).standard_normal((2000, 3, 2))
    z = g[..., 0] + 1j * g[..., 1]
    assert np.array_equal(sphere_points(2000, 3), z / np.linalg.norm(z, axis=1, keepdims=True))


def test_global_check_refines_below_scan():
    b = rand_tensor(np.random.default_rng(14), scale=0.7)
    samples = 2000
    ws = sphere_points(samples, 0)
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


def test_descent_never_rises_and_stops_before_cap(monkeypatch):
    # every certificate's refine, each run alone from one point; its start value is the one the kernel
    # and the mesh give a point, its rounds the refine's calls of _lowest on the y-side table
    rng = np.random.default_rng(16)
    b = rand_tensor(rng, scale=0.7)
    ds = delta_sigma_images(b)
    real_starts = rng.standard_normal((20, 3))
    real_starts /= np.linalg.norm(real_starts, axis=1, keepdims=True)
    searches = record_searches(monkeypatch)
    cases = [
        # (form, nx, starts, value at a point), the tensor norm squared negated
        (
            neg_gram(b), 3,
            real_starts,
            lambda f: -np.linalg.norm(np.einsum("ijk,i->kj", b, f), 2) ** 2,
        ),
        (
            choi_matrix_from_tensor(b), 2,
            complex_sphere(20, 2, 2),
            lambda v: hermitian_eigh(ID4 + np.einsum("k,kab->ab", _bloch_vector(v), ds))[0][0],
        ),
        (
            ks_form(b), 3,
            sphere_points(20, 1),
            lambda w: hermitian_eigh(ks_defect(b, w))[0][0],
        ),
    ]
    for form, nx, starts, value in cases:
        for x0 in starts:
            searches.clear()
            tables = _side_tables(form, nx)
            val, x = core.product_form_minimum(tables, x0[None], core._vertex_eigvals(x0[None], tables[0]))
            search, = searches
            start, = search["val"]
            assert abs(value(x0) - start) <= 1e-12
            assert val <= start
            assert refine_rounds(search) < REFINE_CAP
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
    # every certificate's refine, replayed one start at a time with the single-matrix steps; the
    # KS search is driven directly, since ks_global_check skips it where the form is PSD
    b = _ORACLE_TENSORS[index]
    serial_steps = {
        "preservation": serial_product_step(*gram_tables(b)),
        "positivity": serial_product_step(*choi_tables(b)),
        "ks": serial_product_step(*ks_tables(b)),
    }
    searches = record_searches(monkeypatch)
    for name, run in (
        ("preservation", lambda: core.state_preservation_check(b)),
        ("positivity", lambda: core.sampled_positivity_check(b)),
        ("ks", lambda: ks_scan(b, 5000, seed)),
    ):
        searches.clear()
        run()
        search, = searches
        val, x = search["result"]
        s_val, s_x, s_rounds = serial_scan_then_refine(search["x"], search["val"], serial_steps[name])
        assert _bits(val) == _bits(s_val) and _bits(x) == _bits(s_x) and refine_rounds(search) == s_rounds, name


@pytest.mark.parametrize("b", [build_coeff_tensor(e) for e in (0.1, 1.0 / 3.0, 0.5)] + [
    rand_tensor(np.random.default_rng(60 + i), scale) for i, scale in enumerate((0.1, 1.0, 10.0))
])
def test_defect_at_scan_start_gives_its_scan_value(monkeypatch, b):
    # the kernel and ks_defect build through one builder, so eigvalsh (not eigh, which can
    # differ from it by an ulp) of a rebuilt defect is bitwise the scan value at every start
    searches = record_searches(monkeypatch)
    ks_scan(b)
    search, = searches
    ws, vals = search["x"], search["val"]
    assert len(ws) == len(vals) == pauli.REFINE_STARTS
    for w, val in zip(ws, vals):
        assert _bits(np.linalg.eigvalsh(ks_defect(b, w))[0]) == _bits(val)


def test_each_sampled_certificate_runs_one_product_form_search(monkeypatch):
    # on its form's side tables (their shapes), from the REFINE_STARTS starts it takes, complex or not:
    # KS's the kernel's on its 50,000 scan directions at the default budget, the mesh certificates' from
    # the vertices their one mesh solved, with no kernel call
    searches = record_searches(monkeypatch)
    b = rand_tensor(np.random.default_rng(62))
    for run, shapes, complex_ in (
        (state_preservation_check, [(6, 3, 3), (6, 3, 3)], False),
        (sampled_positivity_check, [(4, 4, 4), (16, 2, 2)], True),
        (ks_global_check, [(9, 4, 4), (16, 3, 3)], True),
    ):
        searches.clear()
        run(b)
        search, = searches
        first = first_rows(search)
        handed = ([t.shape for t in search["tables"]], np.iscomplexobj(first), len(first))
        assert handed == (shapes, complex_, pauli.REFINE_STARTS), run.__name__
        assert len(search["kernel"]) == (run is ks_global_check)
        assert len(search["mesh"]) == (run is not ks_global_check)
    (starts, _, _), = search["kernel"]
    assert _bits(first) == _bits(ks._scan((KS_DEFAULT_SAMPLES, 0))[0][starts])


def test_each_search_builds_its_side_tables_once_and_refines_the_kernel_starts(monkeypatch):
    # one _side_tables call per certificate serves its mesh or scan, the kernel, every refine step and
    # the readout; the refine is handed the kernel's starts on the KS scan and every vertex the mesh
    # solved (their spinors for positivity), and starts from the REFINE_STARTS lowest of them in stable
    # order, with their values, bitwise the ones _vertex_eigvals gives those points; it never rises
    # above them (test_core scripts the loop to show it starts there)
    searches = record_searches(monkeypatch)
    built, side_tables = [], core._side_tables

    def recording_tables(*args):
        built.append(side_tables(*args))
        return built[-1]

    monkeypatch.setattr(core, "_side_tables", recording_tables)
    b = rand_tensor(np.random.default_rng(63))
    for name, run in (
        ("preservation", state_preservation_check),
        ("positivity", sampled_positivity_check),
        ("ks", lambda b: ks_global_check(b, 2000, 0)),
    ):
        searches.clear()
        built.clear()
        run(b)
        search, = searches
        (x_table, y_table), = built
        first, picked = first_rows(search), lowest_indices(search["val"])
        assert search["tables"][0] is x_table and search["tables"][1] is y_table
        assert _bits(first) == _bits(search["x"][picked])
        assert all(table is x_table or table is y_table for table, _ in search["lowest"])
        assert len(first) == pauli.REFINE_STARTS
        assert _bits(core._vertex_eigvals(first, x_table)) == _bits(search["val"][picked])
        assert search["result"][0] <= search["val"][picked[0]]
        if name == "ks":
            (starts, values, kernel_table), = search["kernel"]
            assert kernel_table is x_table
            points = ks._scan((2000, 0))[0]
            handed = points[starts], values
        else:
            (_, points, raw), = search["mesh"]
            starts = lowest_indices(raw)
            points, values = core._spinors(points) if name == "positivity" else points, raw[starts]
            handed = points, raw
        assert _bits(search["x"]) == _bits(handed[0]) and _bits(search["val"]) == _bits(handed[1])
        assert _bits(first) == _bits(points[starts]) and _bits(search["val"][picked]) == _bits(values)


def test_product_step_views_are_one_form(monkeypatch):
    # <y, M(x) y> = <x, M(y) x> for the views each certificate's search refines on; a wrong
    # transpose would only show as worse witnesses, since product_form_minimum discards a rising round
    handed = []

    def recording(form, nx):
        handed.append((_side_tables(form, nx), np.linalg.norm(form)))
        return handed[-1][0]

    monkeypatch.setattr(core, "_side_tables", recording)
    rng = np.random.default_rng(61)
    for scale in (0.1, 1.0, 10.0):
        b = rand_tensor(rng, scale)
        for run, complex_ in (
            (state_preservation_check, False),
            (sampled_positivity_check, True),
            (lambda b: ks_scan(b, 200, 0), True),
        ):
            handed.clear()
            run(b)
            ((x_table, y_table), form_norm), = handed
            # the x-side table holds matrices on y, and the y-side one matrices on x
            x, y = (rng.standard_normal((20, t.shape[-1])) for t in (y_table, x_table))
            if complex_:
                x, y = x + 1j * rng.standard_normal(x.shape), y + 1j * rng.standard_normal(y.shape)
            x, y = (v / np.linalg.norm(v, axis=1, keepdims=True) for v in (x, y))
            mx = _members(_pair_coordinates(x), x_table)
            my = _members(_pair_coordinates(y), y_table)
            lhs = np.einsum("ka,kab,kb->k", np.conj(y), mx, y)
            rhs = np.einsum("ka,kab,kb->k", np.conj(x), my, x)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12 * form_norm


def test_stacked_refine_stops_starts_in_different_rounds(scripted_search):
    # start s (scan value s) falls by 1.5 in rounds 1..s; round s + 1 is flat for even s and
    # rises by 3 for odd s, which must keep that start's last accepted point
    pts = np.stack([np.arange(8.0), np.zeros(8)], axis=1)

    def value(v):
        s, r = v[:, 0], v[:, 1]
        return s - 1.5 * np.minimum(r, s) + np.where((r > s) & (s % 2 == 1), 3.0, 0.0)

    val, x, calls = scripted_search(pts, pts[:, 0].copy(), value)
    rounds = [rows for table, rows in calls if table == "y"]
    # the live stack loses start r - 1 in round r, and each carry (start, r - 1) stays with its start
    assert [len(rows) for rows in rounds] == [8, 7, 6, 5, 4, 3, 2, 1]
    for r, rows in enumerate(rounds, start=1):
        assert np.array_equal(rows, np.stack([np.arange(r - 1, 8.0), np.full(9 - r, r - 1.0)], axis=1))
    # start 7 wins with the point of its seventh round, not of its rising eighth
    assert val == 7.0 - 1.5 * 7 and np.array_equal(x, [7.0, 7.0])


def test_global_check_near_ks_boundary(family_searched):
    # just above the family's KS boundary (about 0.22539) the violation is tiny; the search finds it
    wit = ks_global_check(build_coeff_tensor(0.2254))
    assert family_searched
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
    # an infinite tol would hide the -0.91 defect at 1/3 as "no violation"
    with pytest.raises(ValueError, match="tol must be positive"):
        ks_global_check(build_coeff_tensor(1.0 / 3.0), 2000, 0, np.inf)
    # a CP tensor runs no scan, yet its budget and seed are checked as the sampler checks them
    with pytest.raises(ValueError, match="need at least one sample"):
        ks_global_check(build_coeff_tensor(0.1), 0, 0, 1e-8)
    with pytest.raises(TypeError):
        ks_global_check(build_coeff_tensor(0.1), 10, None, 1e-8)


# ---------------------------------------------------------------- the PSD-form skip


def refuse(*args, **kwargs):
    raise AssertionError("the KS search ran")


@pytest.mark.parametrize("b", [
    build_coeff_tensor(0.1), np.zeros((3, 3, 3)), rand_tensor(np.random.default_rng(63), 0.1),
])
def test_cp_tensor_runs_no_scan(monkeypatch, b):
    assert core.cp_check(b).is_cp and np.linalg.eigvalsh(ks_form(b))[0] > 0
    monkeypatch.setattr(sampling, "sphere_points", refuse)
    monkeypatch.setattr(core, "product_form_minimum", refuse)
    assert ks_global_check(b) is None


def test_skip_computes_no_eigenvectors(monkeypatch):
    # the skip reads lambda_min(M) alone, through the kernel's eigenvalues-only entry
    def no_eigenvectors(*args, **kwargs):
        raise AssertionError("eigenvectors were computed")

    monkeypatch.setattr(np.linalg, "eigh", no_eigenvectors)
    assert ks_global_check(build_coeff_tensor(0.1)) is None


@pytest.mark.parametrize("eps, tol, witness", [
    (0.2, KS_DEFAULT_TOL, False),
    (CP_THRESHOLD + 1e-6, KS_DEFAULT_TOL, False),
    # lambda_min is -1.60 for the Choi matrix, -3.75 for the form and -2.87 for the defects, so a
    # skip that read the Choi matrix would hide this witness
    (0.5, 2.0, True),
])
def test_indefinite_form_still_scans(monkeypatch, family_searched, eps, tol, witness):
    b = build_coeff_tensor(eps)
    assert np.linalg.eigvalsh(ks_form(b))[0] < -tol
    scans = []

    def recording(*args):
        scans.append(product_form_minimum(*args))
        return scans[-1]

    monkeypatch.setattr(core, "product_form_minimum", recording)
    found = ks_global_check(b, 2000, 0, tol)
    assert family_searched
    assert len(scans) == 1
    assert (found is not None) == witness
    assert found is None or found.min_eig < -tol


def form_root(b0):
    """The t > 0 where lambda_min(ks_form(t*b0)) crosses 0, as (t just below, t just above).

    M(t) = M0 + t*M1 - t^2*M2 with M0 = I and M2 a Gram matrix, so lambda_min is concave in t with
    one root on each side of 0.
    """
    lo, hi = 0.0, 1.0
    while np.linalg.eigvalsh(ks_form(hi * b0))[0] >= 0:
        lo, hi = hi, 2 * hi
    for _ in range(200):
        mid = (lo + hi) / 2
        if mid in (lo, hi):
            break
        lo, hi = (mid, hi) if np.linalg.eigvalsh(ks_form(mid * b0))[0] >= 0 else (lo, mid)
    return lo, hi


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(0.02, 0.4),
    on_ray=st.sampled_from([None, 0, 1]),
    log_tol=st.floats(-15.0, 0.5),
)
def test_skip_fires_only_where_the_scan_finds_no_witness(seed, scale, on_ray, log_tol):
    # on_ray: the tensor scaled to either side of its form's root, where the skip's slack decides
    rng = np.random.default_rng(seed)
    b = rand_tensor(rng, scale)
    if on_ray is not None:
        b = form_root(b)[on_ray] * b
    tol = 10.0**log_tol
    scans = []

    def recording(*args):
        scans.append(product_form_minimum(*args))
        return scans[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "product_form_minimum", recording)
        found = ks_global_check(b, 2000, 0, tol)
    if not scans:
        assert found is None
        assert ks_scan(b, 2000, 0)[0] >= -tol


# ---------------------------------------------------------------- witnesses carried down


def test_positivity_witness_is_a_ks_witness():
    # at a real unit w, D(w) = I - A^2 with A = w.Dsigma, and the positivity value there is
    # lambda_min(I + A) = m: A has the eigenvalue m - 1, so D(w) has 1 - (m - 1)^2 = m(2 - m)
    rng = np.random.default_rng(70)
    carried = 0
    for _ in range(60):
        b = rand_tensor(rng, rng.uniform(0.1, 0.8))
        pos = sampled_positivity_check(b)
        m = pos.margin
        if m >= 0:
            continue
        carried += 1
        assert abs(np.linalg.norm(pos.worst_w) - 1.0) <= 1e-14
        rounding = 1e-12 * (1.0 + np.sum(b**2))
        assert hermitian_eigh(ks_defect(b, pos.worst_w))[0][0] <= m * (2.0 - m) + rounding
    assert carried >= 20


def test_preservation_witness_is_a_positivity_witness():
    # tr[(rho_f x rho_p) (I + w.Dsigma)] = 1 + w.z with z = b(f, p, .), which is 1 - |z| at
    # w = -z/|z|; a product state bounds lambda_min from above
    rng = np.random.default_rng(71)
    carried = 0
    for _ in range(60):
        b = rand_tensor(rng, rng.uniform(0.1, 0.8))
        pres = state_preservation_check(b)
        z = dual_pair_apply(b, pres.witness_f, pres.witness_p)
        norm = np.linalg.norm(z)
        if norm <= 1.0:
            continue
        carried += 1
        w = -z / norm
        margin = hermitian_eigh(ID4 + np.einsum("k,kab->ab", w, delta_sigma_images(b)))[0][0]
        assert margin <= 1.0 - norm + 1e-12 * (1.0 + norm)
    assert carried >= 20


def test_global_check_finds_witness_at_one_third(family_searched):
    wit = ks_global_check(build_coeff_tensor(1.0 / 3.0), 3000, 0, 1e-8)
    assert family_searched
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
def test_global_check_pins_family_minima(family_searched, eps, expected):
    # the search at the default budget, as the CLI runs it on a tensor that is not the family's
    wit = ks_global_check(build_coeff_tensor(eps))
    assert family_searched
    assert wit is not None
    assert wit.min_eig == pytest.approx(expected, abs=1e-6)


def test_global_check_scan_prunes_most_eigensolves(monkeypatch, family_searched):
    # counts matrices, not seconds: the trace bound keeps most of the scan from being built, and the LDL*
    # test most of the built defects from LAPACK
    solved = []
    eigvalsh = np.linalg.eigvalsh

    def counting(ms, *args, **kwargs):
        solved.append(len(ms))
        return eigvalsh(ms, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    wit = ks_global_check(build_coeff_tensor(1.0 / 3.0))
    assert family_searched
    assert wit.min_eig == pytest.approx(-0.910684, abs=1e-6)
    assert 0 < sum(solved) < 0.1 * 50_000


def test_global_check_solves_few_defects_of_a_positive_tensor(monkeypatch, draws):
    # counts matrices, not seconds: the trace bound lets about 20,000 of the 50,000 defects rank on this
    # tensor, and the LDL* test leaves LAPACK a few tens of them; the count includes the form's PSD test
    solved, handed = [], []
    eigvalsh = np.linalg.eigvalsh

    def counting(ms, *args, **kwargs):
        solved.append(len(ms) if np.ndim(ms) == 3 else 1)
        return eigvalsh(ms, *args, **kwargs)

    def kernel(coeffs, table):
        starts, vals = hermitian_lowest_eigvals(coeffs, table)
        # a copy: the search's refine lowers the values it is handed
        handed.append((coeffs, table, starts, vals.copy()))
        return starts, vals

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    monkeypatch.setattr(ks, "hermitian_lowest_eigvals", kernel)
    assert ks_global_check(positive_tensor()) is None
    assert draws
    assert 0 < sum(solved) <= 500
    # the kernel's starts and values against the stack kernel on every defect of the scan built whole
    ((coeffs, table, starts, vals),) = handed
    ref = stack_lowest_eigvals(_members(coeffs, table))
    assert np.array_equal(starts, lowest_indices(ref))
    assert vals.tobytes() == ref[starts].tobytes()


def test_global_check_sorts_no_whole_scan(monkeypatch, family_searched):
    # only the kernel's candidates for the refine starts are sorted
    sizes = []
    argsort = np.argsort

    def recording(a, *args, **kwargs):
        sizes.append(np.size(a))
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", recording)
    wit = ks_global_check(build_coeff_tensor(1.0 / 3.0))
    assert family_searched
    assert wit.min_eig == pytest.approx(-0.910684, abs=1e-6)
    assert sizes and max(sizes) < 0.1 * 50_000


def test_global_check_builds_few_defects(monkeypatch, family_searched):
    # counts matrices, not seconds: every matrix LAPACK reads passes the guard; the defects the trace
    # bound prunes are never built, and those the LDL* test rules out are built but never guarded or
    # solved; the count includes the table and the refine
    built = []
    guard = pauli.require_hermitian

    def counting(m):
        if np.ndim(m) == 3:
            built.append(len(m))
        return guard(m)

    monkeypatch.setattr(pauli, "require_hermitian", counting)
    wit = ks_global_check(build_coeff_tensor(1.0 / 3.0))
    assert family_searched
    assert wit.min_eig == pytest.approx(-0.910684, abs=1e-6)
    assert 0 < sum(built) < 0.1 * KS_DEFAULT_SAMPLES


def test_global_check_peak_memory(family_searched):
    # the whole stack of 50,000 defects alone takes 12.8 MB; on the positive tensor the trace bound lets
    # about 20,000 of them rank, and the kernel builds them SCAN_BLOCK at a time
    for b, most in ((build_coeff_tensor(1.0 / 3.0), 30 * 2**20), (positive_tensor(), 8 * 2**20)):
        ks_global_check(b)
        assert family_searched
        tracemalloc.start()
        try:
            ks_global_check(b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= most


def _defect_stack(form, w):
    """sum_jk conj(w_j) w_k M_jk for a stack of w, as one product with the (9, 16) table of blocks."""
    table = form.reshape(3, 4, 3, 4).transpose(0, 2, 1, 3).reshape(9, 16)
    pairs = (np.conj(w)[:, :, None] * w[:, None, :]).reshape(-1, 9)
    return _hermitian_part((pairs @ table).reshape(-1, 4, 4))


def _stacks_built_whole(b, seed, v, f):
    """The members of the KS scan and of the positivity and preservation families, built whole.

    KS's are its scan's, as the stack kernel took them; the mesh certificates' are at their meshes'
    vertices, the spinors v of the positivity mesh's and the preservation mesh's own f.
    """
    mats = np.einsum("ijk,ni->nkj", b, f)
    return (
        _defect_stack(ks_form(b), sphere_points(KS_DEFAULT_SAMPLES, seed)),
        ID4 + np.einsum("nk,kab->nab", _bloch_vector(v), delta_sigma_images(b)),
        -np.einsum("nkj,nkl->njl", mats, mats),
    )


@pytest.mark.parametrize("seed", [0, 1, 801])
def test_factored_kernel_matches_stack_oracle(seed, monkeypatch):
    # the kernel on each search's family against its stack built whole: the KS scan as ks_scan hands
    # it over, and the mesh certificates' vertices, which the test hands over itself
    solved, handed, meshes = [], [], []
    eigvalsh, mesh = np.linalg.eigvalsh, core._mesh

    def counting(ms, *args, **kwargs):
        solved.append(len(ms))
        return eigvalsh(ms, *args, **kwargs)

    def kernel(coeffs, table):
        solved.clear()
        starts, vals = hermitian_lowest_eigvals(coeffs, table)
        # a copy: the search's refine lowers the values it is handed
        handed.append((starts, vals.copy(), sum(solved)))
        return starts, vals

    def recording_mesh(value, floor):
        meshes.append(mesh(value, floor))
        return meshes[-1]

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    monkeypatch.setattr(ks, "hermitian_lowest_eigvals", kernel)
    monkeypatch.setattr(core, "_mesh", recording_mesh)
    rng = np.random.default_rng(29)
    tensors = [build_coeff_tensor(e) for e in (0.1, 0.2254, 1.0 / 3.0, -0.4, 0.5, 0.6)]
    tensors += [rand_tensor(rng, scale) for scale in (0.05, 0.25, 1.0, 10.0)]
    for b in tensors:
        handed.clear()
        meshes.clear()
        ks_scan(b, seed=seed)
        sampled_positivity_check(b)
        state_preservation_check(b)
        (_, positivity_w, _), (_, f, _) = meshes
        v = core._spinors(positivity_w)
        kernel(_pair_coordinates(v), choi_tables(b)[0])
        kernel(_pair_coordinates(f), gram_tables(b)[0])
        assert len(handed) == 3
        for k, ((starts, vals, count), stack) in enumerate(zip(handed, _stacks_built_whole(b, seed, v, f))):
            solved.clear()
            ref = stack_lowest_eigvals(stack)
            ulps = 8 * np.finfo(float).eps * np.linalg.norm(stack[starts], axis=(1, 2))
            assert np.all(np.abs(vals - ref[starts]) <= ulps)
            if k == 0:
                assert np.array_equal(starts, lowest_indices(ref))
            else:
                # mesh vertices tie where the tensor's symmetry maps one onto another, and the two
                # builds round ties apart, so the starts are the lowest members up to that rounding
                rest = np.delete(ref, starts)
                assert rest.size == 0 or np.max(ref[starts]) <= np.min(rest) + np.max(ulps)
            # the kernel sends no more matrices to LAPACK than the stack kernel
            assert count <= sum(solved)


def test_global_check_deterministic(family_searched):
    b = build_coeff_tensor(1.0 / 3.0)
    w1 = ks_global_check(b, 1000, 5, 1e-8)
    w2 = ks_global_check(b, 1000, 5, 1e-8)
    assert family_searched
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

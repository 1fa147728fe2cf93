import json

import numpy as np
import pytest

from qqocert import (
    KS_DEFAULT_SAMPLES,
    KS_DEFAULT_TOL,
    PRESERVATION_THRESHOLD,
    build_coeff_tensor,
    choi_matrix_from_tensor,
    cp_check,
    hermitian_eigh,
    ks_defect,
    ks_global_check,
    positivity_check,
    state_preservation_check,
)
from qqocert import cli, core, ks, sampling
from qqocert import epsilon as family
from qqocert.core import MAX_COEFF
from qqocert.epsilon import coupling
from qqocert.pauli import SIGMA

from oracles import (
    CHOI_BLOCK_UNIT,
    CP_THRESHOLD,
    EPS_KS,
    POSITIVITY_THRESHOLD,
    NonRealInput,
    PauliCoeffs,
    b_matrix,
    choi_matrix_family,
    classify_epsilon,
    delta_apply,
    delta_eps_apply,
    family_positivity_at_candidates,
    ks_min_eig_closed_form,
    rotation,
    sigma_images_apply,
    spectrum_closed_form,
)


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
        b = build_coeff_tensor(eps)
        via_tensor = delta_apply(b, x)
        worst = max(worst, np.max(np.abs(direct - via_tensor)), np.max(np.abs(direct - sigma_images_apply(b, x))))
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
        assert np.max(np.abs(got - sigma_images_apply(build_coeff_tensor(1.0), PauliCoeffs(0.0, w)))) <= 1e-14


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


def _positivity_grid():
    """Couplings across every scale the tensor gate accepts, the thresholds, and tiny negatives where every candidate ties."""
    big = np.geomspace(5e-324, MAX_COEFF, 4000)
    specials = [0.0, 5e-324, MAX_COEFF, 1.0 / 3.0, 1.0 / (3.0 * np.sqrt(3.0)), 1.0 / np.sqrt(3.0)]
    # every candidate rounds to 1.0 below about 1.85e-17; up to 6e-17, 1 + 3*eps leaves 1.0 before 1 + eps does
    tiny_negative = -np.concatenate([np.geomspace(5e-324, 1.8e-17, 709), np.linspace(1.8e-17, 6e-17, 2000)])
    grid = np.concatenate([np.linspace(-2.0, 2.0, 20001), big, -big, specials, np.negative(specials), tiny_negative])
    return grid.tolist()


def test_positivity_closed_form_matches_candidates_bitwise():
    grid = _positivity_grid()
    assert len(grid) > 30_000
    images = []
    for eps in grid:
        rep = positivity_check(eps)
        margin, t = family_positivity_at_candidates(eps)
        assert np.float64(rep.margin).tobytes() == np.float64(margin).tobytes(), eps
        assert abs(sum(rep.worst_w) - t) <= 1e-15 and abs(np.linalg.norm(rep.worst_w) - 1.0) <= 1e-15, eps
        if abs(eps) <= 1e6:
            scale = max(1.0, 3.0 * abs(eps))
            assert abs(np.min(1.0 + eps * spectrum_closed_form(rep.worst_w)) - rep.margin) <= 1e-15 * scale, eps
            images.append((eps, rep.margin, scale, np.eye(4) + eps * b_matrix(rep.worst_w)))
    # the witness attains the margin as the least eigenvalue of the family image of 1 + w.sigma;
    # LAPACK is off by up to 7 ulps on the near-identity images of tiny couplings
    lowest = np.linalg.eigvalsh(np.array([image for *_, image in images]))[:, 0]
    for (eps, margin, scale, _), got in zip(images, lowest):
        assert abs(got - margin) <= 4e-15 * scale, eps


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
    # positivity_check refuses what classify_epsilon refuses, not a NaN margin
    for bad in (np.nan, np.inf, -np.inf):
        for check in (classify_epsilon, positivity_check):
            with pytest.raises(ValueError, match="epsilon must be finite"):
                check(bad)


@pytest.mark.parametrize("check", [classify_epsilon, positivity_check])
def test_family_closed_forms_pass_the_tensor_gate(check):
    # the closed forms accept exactly the couplings build_coeff_tensor accepts
    for eps in (MAX_COEFF, -MAX_COEFF):
        check(eps)
        build_coeff_tensor(eps)
    for eps in (1e70, -1e70, 1e300, np.nextafter(MAX_COEFF, np.inf), np.finfo(float).max):
        with pytest.raises(ValueError, match="epsilon must be finite and at most 1e\\+64"):
            check(eps)
        with pytest.raises(ValueError, match="at most 1e\\+64"):
            build_coeff_tensor(eps)


def test_cp_implies_positive_implies_preserving():
    for eps in (0.05, 0.15, 0.19245, 0.25, 1.0 / 3.0, 0.45, 0.57):
        cp = cp_check(build_coeff_tensor(eps)).is_cp
        pos = positivity_check(eps).is_positive
        pres = state_preservation_check(build_coeff_tensor(eps)).max_norm <= 1.0 + 2e-6
        if cp:
            assert pos
        if pos:
            assert pres


# ---------------------------------------------------------------- Kadison-Schwarz


def test_ks_threshold_is_pinned_between_cp_and_positivity():
    assert abs(EPS_KS - 0.2253907342) < 1e-10
    assert abs(ks_min_eig_closed_form(EPS_KS)) < 1e-15
    assert CP_THRESHOLD < EPS_KS < POSITIVITY_THRESHOLD
    assert ks_min_eig_closed_form(-1.0 / 3.0) == ks_min_eig_closed_form(1.0 / 3.0)


# both sides of the band 1/(3*sqrt(3)) < |eps| <= EPS_KS, where the search still runs
_KS_COUPLINGS = [0.17, 0.2, 0.22, EPS_KS - 1e-6, EPS_KS + 1e-6, 0.2254, 0.3, 1.0 / 3.0, 0.5, 1.0, 3.0, 100.0]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_ks_check_agrees_with_the_search_and_the_closed_form(family_searched, sign, seed):
    # ks_global_check on the family tensor (fast: past EPS_KS, the closed-form witness) against the search
    # on the same tensor unrecognised (slow)
    for eps in (sign * a for a in _KS_COUPLINGS):
        b = build_coeff_tensor(eps)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(family, "coupling", coupling)
            fast = ks_global_check(b, KS_DEFAULT_SAMPLES, seed, KS_DEFAULT_TOL)
        slow = ks_global_check(b, KS_DEFAULT_SAMPLES, seed, KS_DEFAULT_TOL)
        assert (fast is None) == (slow is None) == (abs(eps) <= EPS_KS), eps
        if slow is None:
            continue
        scale = 1e-13 * (1.0 + abs(slow.min_eig))
        assert abs(fast.min_eig - slow.min_eig) <= scale, eps
        assert abs(fast.min_eig - ks_min_eig_closed_form(eps)) <= scale, eps
        # a unit witness, its first component real and positive as the search's, that re-evaluates to min_eig
        assert abs(np.linalg.norm(fast.w) - 1.0) < 1e-15 and fast.w[0].real > 0 and fast.w[0].imag == 0
        assert hermitian_eigh(ks_defect(b, fast.w))[0][0] == pytest.approx(fast.min_eig, rel=1e-14)
    assert family_searched


@pytest.mark.parametrize("moved", ["000", "120", "001", "rotated"])
def test_only_an_exact_family_tensor_takes_the_closed_form(moved, draws):
    # one entry one ulp off (the one coupling reads, a partner of it, a zero entry), or the tensor rotated:
    # the search runs on it and still reaches the closed form at 1/3
    b = build_coeff_tensor(1.0 / 3.0)
    assert coupling(b) == 1.0 / 3.0
    if moved == "rotated":
        rng = np.random.default_rng(5)
        b = np.einsum("am,cl,ek,mlk->ace", rotation(rng), rotation(rng), rotation(rng), b)
    else:
        index = tuple(int(i) for i in moved)
        b[index] = np.nextafter(b[index], 1.0)
    assert coupling(b) is None
    witness = ks_global_check(b)
    expected = ks_min_eig_closed_form(1.0 / 3.0)
    assert draws == [(KS_DEFAULT_SAMPLES, 0)]
    assert abs(witness.min_eig - expected) <= 1e-12 * (1.0 + abs(witness.min_eig))


def test_the_zero_tensor_is_the_family_at_zero(draws):
    zero = np.zeros((3, 3, 3))
    assert coupling(zero) == 0.0 and coupling(-zero) == 0.0
    assert ks_global_check(zero) is None
    assert draws == []


def _draw(*args):
    raise AssertionError("a KS scan drew its points")


@pytest.mark.parametrize("command, code", [("certify", 1), ("ks", 1), ("sweep", 0)])
def test_family_ks_past_the_band_draws_nothing(command, code, monkeypatch, capsys):
    monkeypatch.setattr(ks, "_scan", _draw)
    monkeypatch.setattr(sampling, "sphere_points", _draw)
    assert cli.main(["--epsilon", "0.5", "--count", "5", command]) == code
    doc = json.loads(capsys.readouterr().out)
    if command == "sweep":
        # rows -0.5, -0.25, 0, 0.25 and 0.5: four past EPS_KS, and 0, which the PSD skip proves
        found = {row["epsilon"]: row["ks_min_eig"] for row in doc["rows"]}
        assert found.pop(0.0) is None
    else:
        found = {0.5: doc["ks_violation" if command == "certify" else "witness"]["min_eig"]}
    for eps, value in found.items():
        expected = ks_min_eig_closed_form(eps)
        assert abs(value - expected) <= 1e-13 * (1.0 + abs(expected)), eps


@pytest.mark.parametrize("argv", [["--epsilon", "0.2", "ks"], ["--tensor", "{doc}", "ks"], ["--tensor", "{doc}", "certify"]])
def test_the_band_still_searches_and_a_family_file_draws_nothing(argv, monkeypatch, tmp_path, capsys):
    # 0.2 lies in the band; a tensor file naming a coupling past EPS_KS holds the family's tensor, whose
    # witness ks_global_check reads in closed form, as for --epsilon
    doc = tmp_path / "t.json"
    doc.write_text('{"epsilon": 0.5}')
    monkeypatch.setattr(ks, "_scan", _draw)
    monkeypatch.setattr(sampling, "sphere_points", _draw)
    argv = [word.format(doc=doc) for word in argv]
    if argv[0] == "--epsilon":
        with pytest.raises(AssertionError, match="drew its points"):
            cli.main(argv)
    else:
        assert cli.main(argv) == 1
        assert json.loads(capsys.readouterr().out)["input"] == {"tensor": str(doc)}


@pytest.mark.parametrize("command", ["certify", "ks", "sweep"])
@pytest.mark.parametrize("flag, value", [("--tol", "0"), ("--samples", "0"), ("--seed", "-1")])
def test_family_ks_refuses_a_bad_budget_before_any_work(command, flag, value, monkeypatch, capsys):
    monkeypatch.setattr(core, "cp_check", _draw)
    try:
        code = cli.main(["--epsilon", "0.5", flag, value, command])
    except SystemExit as exc:  # the parser refuses --samples and --seed below their floors
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err


def _work(*args):
    raise AssertionError("the KS check began its work")


def test_ks_check_refuses_what_the_search_refuses(monkeypatch):
    # before any work, though past EPS_KS the closed form alone would decide and a CP coupling would skip the search
    monkeypatch.setattr(family, "coupling", _work)
    monkeypatch.setattr(ks, "ks_form", _work)
    for samples, seed, tol, error, message in [
        (0, 0, 1e-8, ValueError, "need at least one sample"),
        (10, -1, 1e-8, ValueError, "seed must be non-negative"),
        (10, None, 1e-8, TypeError, None),
        (10, 0, 0.0, ValueError, "tol must be positive"),
        (10, 0, np.inf, ValueError, "tol must be positive"),
    ]:
        for eps in (0.5, 0.1):
            with pytest.raises(error, match=message):
                ks_global_check(build_coeff_tensor(eps), samples, seed, tol)


@pytest.mark.parametrize("eps", [0.1, 0.2, 0.5])
def test_ks_check_builds_the_schwarz_form_once(eps, monkeypatch):
    # CP at 0.1 (the PSD skip) and in the band at 0.2 (the search) read one ks_form, and the search one pair
    # of its side tables; past EPS_KS at 0.5 the closed-form witness builds neither
    built, tabled, form, side_tables = [], [], ks.ks_form, core._side_tables

    def counting(b):
        built.append(b)
        return form(b)

    def counting_tables(*args):
        tabled.append(args)
        return side_tables(*args)

    monkeypatch.setattr(ks, "ks_form", counting)
    monkeypatch.setattr(core, "_side_tables", counting_tables)
    found = ks_global_check(build_coeff_tensor(eps), 2000, 0, KS_DEFAULT_TOL)
    assert (found is None) == (eps < EPS_KS)
    assert len(built) == (eps < EPS_KS)
    assert len(tabled) == (CP_THRESHOLD < eps < EPS_KS)

"""The one sampler behind the KS search's scan points, and the one-draw hold beside the search."""

import importlib
import inspect
import json
import sys
import threading
import time
import numpy as np
import pytest

from qqocert import (
    build_coeff_tensor,
    cli,
    cp_check,
    ks,
    ks_global_check,
    sampled_positivity_check,
    sampling,
    state_preservation_check,
)
from qqocert.core import _pair_coordinates

from oracles import complex_sphere


def test_sphere_points_unit_shaped_and_seeded():
    a = sampling.sphere_points(2000, 5)
    assert a.shape == (2000, 3)
    assert a.dtype == complex
    assert np.max(np.abs(np.linalg.norm(a, axis=1) - 1.0)) <= 1e-14
    assert np.array_equal(a, sampling.sphere_points(2000, 5))
    assert not np.allclose(a, sampling.sphere_points(2000, 6))


@pytest.mark.parametrize("samples", [0, -3])
def test_sphere_points_refuse_a_budget_below_one(samples):
    with pytest.raises(ValueError, match="need at least one sample"):
        sampling.sphere_points(samples, 0)


def refuse_to_draw(*args):
    raise AssertionError("drew")


@pytest.mark.parametrize("eps", [0.1, 0.5])
def test_a_negative_seed_raises_before_anything_is_drawn_or_held(empty_hold, monkeypatch, eps):
    # CP at 0.1, so ks_global_check would return without a scan; past eps_KS at 0.5, so its closed-form
    # witness would decide; the mesh certificates take no seed and draw nothing
    monkeypatch.setattr(np.random, "default_rng", refuse_to_draw)
    b = build_coeff_tensor(eps)
    for draw in (sampling.sphere_points, lambda samples, seed: ks_global_check(b, samples, seed)):
        with pytest.raises(ValueError, match="seed must be non-negative"):
            draw(100, -1)
    state_preservation_check(b)
    sampled_positivity_check(b)
    assert ks._held == {}


def test_every_sampled_certificate_draws_through_the_one_sampler(empty_hold, monkeypatch):
    drawn = []
    sphere_points = sampling.sphere_points

    def recording(samples, seed):
        drawn.append(samples)
        return sphere_points(samples, seed)

    monkeypatch.setattr(sampling, "sphere_points", recording)
    b = 0.3 * np.random.default_rng(3).standard_normal((3, 3, 3))
    for run, expected in (
        (state_preservation_check, []),
        (sampled_positivity_check, []),
        (ks_global_check, [50_000]),
    ):
        drawn.clear()
        run(b)
        assert drawn == expected, run.__name__


def test_every_scan_left_is_the_ks_draw(family_searched, monkeypatch, capsys, tmp_path):
    # preservation and positivity decide on the mesh, so every draw made at run time is the KS search's;
    # the family couplings, here past eps_KS, take the search too
    drawn, scan = [], ks._scan

    def recording(key):
        drawn.append(sys._getframe(1).f_code.co_name)
        return scan(key)

    monkeypatch.setattr(ks, "_scan", recording)
    tensor = tmp_path / "t.json"
    tensor.write_text(json.dumps({"b": (0.4 * np.random.default_rng(8).standard_normal((3, 3, 3))).tolist()}))
    for argv in (
        ["--tensor", str(tensor), "--samples", "500", "certify"],
        ["--tensor", str(tensor), "--samples", "500", "ks"],
        ["--epsilon", "0.5", "--samples", "500", "certify"],
        ["--epsilon", "0.4", "--count", "3", "--samples", "500", "sweep"],
        ["--epsilon", "0.4", "choi"],
    ):
        assert cli.main(argv) in (0, 1)
    capsys.readouterr()
    assert family_searched
    assert drawn and set(drawn) == {"ks_global_check"}


# ---------------------------------------------------------------- the draw hold


@pytest.fixture
def empty_hold(monkeypatch):
    """An empty draw hold for one test; the process's own comes back afterwards."""
    monkeypatch.setattr(ks, "_held", {})


def fresh_draw(samples, seed):
    """The sampler's formula, drawn afresh: normalized complex Gaussians in C^3 from default_rng(seed)."""
    return complex_sphere(samples, seed, 3)


def assert_one_whole_scan():
    """The hold is empty or one scan, (points, their pair coordinates), both read-only."""
    assert len(ks._held) <= 1
    for key, (points, coords) in ks._held.items():
        assert points.tobytes() == fresh_draw(*key).tobytes(), key
        assert coords.tobytes() == _pair_coordinates(points).tobytes(), key
        assert not (points.flags.writeable or coords.flags.writeable), key


def test_the_sampler_holds_nothing(empty_hold):
    a = sampling.sphere_points(100, 3)
    b = sampling.sphere_points(100, 3)
    assert a is not b and a.flags.writeable and a.tobytes() == b.tobytes()
    assert ks._held == {}
    own = {name for name in vars(sampling) if not name.startswith("__")}
    assert own == {"annotations", "operator", "np", "sphere_points", "_draw_key"}


def test_cached_points_and_pair_coordinates_are_read_only(empty_hold):
    points, coords = ks._scan((100, 3))
    for a in (points, coords):
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 0


def test_points_are_a_fresh_draw_on_a_hit_and_after_eviction(empty_hold):
    want = fresh_draw(700, 11).tobytes()
    first = ks._scan((700, 11))
    assert ks._scan((700, 11)) is first
    assert first[0].tobytes() == want
    ks._scan((5, 1))
    assert list(ks._held) == [(5, 1)]
    again = ks._scan((700, 11))
    assert again[0] is not first[0] and not again[0].flags.writeable
    assert again[0].tobytes() == want and again[1].tobytes() == first[1].tobytes()


def test_a_second_key_replaces_the_first(family_searched):
    # the hold keeps the last budget searched: a repeat draws nothing, a switch redraws
    b = build_coeff_tensor(0.5)
    for samples in (500, 500, 600, 500, 600):
        witness = ks_global_check(b, samples, 1)
        assert witness is not None
        assert list(ks._held) == [(samples, 1)]
    assert family_searched == [(500, 1), (600, 1), (500, 1), (600, 1)]
    assert_one_whole_scan()


def test_the_hold_never_holds_two_draws(empty_hold, monkeypatch):
    # a miss drops the held draw before it draws, so not even during a draw are two held
    held_while_drawing, sphere_points = [], sampling.sphere_points

    def watching(*key):
        held_while_drawing.append(dict(ks._held))
        return sphere_points(*key)

    monkeypatch.setattr(sampling, "sphere_points", watching)
    for key in [(100, 0), (200, 0), (100, 1), (100, 1), (50_000, 0), (100, 0)]:
        ks._scan(key)
        assert list(ks._held) == [key]
        assert_one_whole_scan()
    assert held_while_drawing == [{}] * 5


def test_repeated_certificates_draw_nothing(empty_hold, monkeypatch):
    b = 0.3 * np.random.default_rng(4).standard_normal((3, 3, 3))
    runs = (ks_global_check, state_preservation_check, sampled_positivity_check)
    warm = [run(b) for run in runs]

    def refuse(*args, **kwargs):
        raise AssertionError("a warm certificate drew its points again")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    for run, first in zip(runs, warm):
        again = run(b)
        assert type(again) is type(first)
        for name, value in (vars(first) if first is not None else {}).items():
            assert np.asarray(getattr(again, name)).tobytes() == np.asarray(value).tobytes(), (run.__name__, name)


def test_numpy_integers_share_the_entry_of_python_integers(family_searched):
    b = build_coeff_tensor(0.5)
    ks_global_check(b, np.int64(2000), np.int64(0))
    ks_global_check(b, 2000, 0)
    (key,) = ks._held
    assert family_searched == [key] == [(2000, 0)] and {type(k) for k in key} == {int}


@pytest.mark.parametrize("samples, seed", [(10.5, 0), (np.float64(10.0), 0), (10, 1.5), (10, None), ("10", 0)])
def test_a_non_integer_budget_or_seed_raises_before_anything_is_held(empty_hold, samples, seed):
    b = build_coeff_tensor(0.5)
    for draw in (sampling.sphere_points, lambda samples, seed: ks_global_check(b, samples, seed)):
        with pytest.raises(TypeError):
            draw(samples, seed)
    assert ks._held == {}


def test_pair_coordinates_are_held_only_for_a_cached_draw(empty_hold):
    points, held = ks._scan((500, 2))
    assert ks._scan((500, 2))[1] is held
    frozen = points.copy()
    frozen.flags.writeable = False
    for other in (points, points.copy(), frozen):
        coeffs = _pair_coordinates(other)
        assert coeffs is not held and coeffs.flags.writeable
        assert coeffs.tobytes() == held.tobytes()
        assert _pair_coordinates(other) is not coeffs
    assert len(ks._held) == 1


def test_threads_sharing_the_cache_keep_it_consistent(empty_hold):
    # six keys over eight threads, so that nearly every call replaces the draw another thread is reading
    keys = [(60 + 10 * k, k) for k in range(6)]
    want = {key: fresh_draw(*key) for key in keys}
    want = {key: (p.tobytes(), _pair_coordinates(p).tobytes()) for key, p in want.items()}
    errors = []

    def work(offset):
        try:
            for i in range(1000):
                key = keys[(i + offset) % len(keys)]
                points, coords = ks._scan(key)
                if (points.tobytes(), coords.tobytes()) != want[key]:
                    errors.append(key)
        except Exception as exc:  # collected, so that the assertion below names it
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert_one_whole_scan()


def test_threads_missing_one_key_draw_it_once(empty_hold, monkeypatch):
    # the draw is slow enough that every thread reaches the hold while the first is still drawing
    key = (10, 0)
    sphere_points, drawn = sampling.sphere_points, []

    def slow(*args):
        drawn.append(args)
        time.sleep(0.2)
        return sphere_points(*args)

    monkeypatch.setattr(sampling, "sphere_points", slow)
    start, got = threading.Barrier(8), []

    def work():
        start.wait()
        got.append(ks._scan(key))

    threads = [threading.Thread(target=work) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert drawn == [key]
    assert len(got) == 8 and all(entry is got[0] for entry in got)
    assert ks._held == {key: got[0]}
    assert_one_whole_scan()


def test_cli_reports_do_not_depend_on_what_the_cache_holds(monkeypatch, capsys, tmp_path):
    tensor = tmp_path / "t.json"
    tensor.write_text(json.dumps({"b": (0.25 * np.random.default_rng(9).standard_normal((3, 3, 3))).tolist()}))
    calls = (
        ["--epsilon", "0.3333333333", "certify"],
        ["--epsilon", "0.1", "ks"],
        ["--tensor", str(tensor), "--samples", "3000", "--seed", "3", "certify"],
        ["--epsilon", "0.3333333333", "--samples", "3000", "--seed", "3", "ks"],
        ["--epsilon", "0.4", "--count", "3", "--samples", "500", "sweep"],
        ["--tensor", str(tensor), "ks"],
    )

    def reports(order, cold):
        if cold:
            monkeypatch.setattr(ks, "_held", {})
        got = {}
        for argv in order:
            code = cli.main(argv)
            got[tuple(argv)] = (code, capsys.readouterr().out)
        return got

    cold = reports(calls, True)
    assert reports(calls, False) == cold
    assert reports(calls[::-1], True) == cold
    assert {code for code, _ in cold.values()} == {0, 1}


def test_one_process_draws_once_per_budget_it_switches_to(draws, capsys, tmp_path):
    # certify then ks on one positive non-CP tensor share the default KS draw; a band sweep at its own
    # budget replaces it, so the same pair draws it once more
    b = 0.2 * np.random.default_rng(0).standard_normal((3, 3, 3))
    assert sampled_positivity_check(b).is_positive and not cp_check(b).is_cp
    tensor = tmp_path / "t.json"
    tensor.write_text(json.dumps({"b": b.tolist()}))
    pair = (["--tensor", str(tensor), "certify"], ["--tensor", str(tensor), "ks"])
    for calls in (pair, (["--epsilon", "0.2", "--count", "3", "sweep"],), pair):
        draws.clear()
        for argv in calls:
            assert cli.main(argv) in (0, 1), argv
        capsys.readouterr()
        assert len(draws) == 1, calls


# ---------------------------------------------------------------- the layers stay traceable


@pytest.mark.parametrize("layer", ["pauli", "core", "epsilon", "ks", "dynamics", "files", "sampling"])
def test_every_layer_callable_is_a_plain_function_or_a_class(layer):
    # qqbench/spans.py times each layer by rebinding its plain functions, so a callable a decorator
    # turned into another object (functools.lru_cache, say) would drop out of the per-layer view
    mod = importlib.import_module(f"qqocert.{layer}")
    hidden = [
        name
        for name, obj in vars(mod).items()
        if callable(obj) and getattr(obj, "__module__", None) == mod.__name__
        and not (inspect.isfunction(obj) or inspect.isclass(obj))
    ]
    assert hidden == []

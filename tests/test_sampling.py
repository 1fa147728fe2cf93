"""The one sampler behind the KS search's scan points, and the draw cache that holds them."""

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
    core,
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
def test_a_negative_seed_raises_before_anything_is_drawn_or_held(empty_cache, monkeypatch, eps):
    # CP at 0.1, so ks_global_check would return without a scan; not CP at 0.5, so the KS search scans;
    # the mesh certificates take no seed and draw nothing
    monkeypatch.setattr(np.random, "default_rng", refuse_to_draw)
    for draw in (sampling.sphere_points, core._scan):
        with pytest.raises(ValueError, match="seed must be non-negative"):
            draw(100, -1)
    b = build_coeff_tensor(eps)
    with pytest.raises(ValueError, match="seed must be non-negative"):
        ks_global_check(b, 2000, -1)
    state_preservation_check(b)
    sampled_positivity_check(b)
    assert core._cache == {}


def test_every_sampled_certificate_draws_through_the_one_sampler(empty_cache, monkeypatch):
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


def test_every_scan_left_is_the_ks_draw(empty_cache, monkeypatch, capsys, tmp_path):
    # preservation and positivity decide on the mesh, so every draw made at run time is the KS search's
    drawn, scan = [], core._scan

    def recording(samples, seed):
        drawn.append(sys._getframe(1).f_code.co_name)
        return scan(samples, seed)

    monkeypatch.setattr(core, "_scan", recording)
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
    assert drawn and set(drawn) == {"_search"}


# ---------------------------------------------------------------- the draw cache


@pytest.fixture
def empty_cache(monkeypatch):
    """An empty draw cache for one test; the process's own comes back afterwards."""
    monkeypatch.setattr(core, "_cache", {})


def fresh_draw(samples, seed):
    """The sampler's formula, drawn afresh: normalized complex Gaussians in C^3 from default_rng(seed)."""
    return complex_sphere(samples, seed, 3)


def held_bytes():
    return sum(a.nbytes for entry in core._cache.values() for a in entry)


def assert_whole_scans():
    """Every entry is one scan, (points, their pair coordinates), both read-only."""
    for key, (points, coords) in core._cache.items():
        assert points.tobytes() == fresh_draw(*key).tobytes(), key
        assert coords.tobytes() == _pair_coordinates(points).tobytes(), key
        assert not (points.flags.writeable or coords.flags.writeable), key


def test_the_sampler_holds_nothing(empty_cache):
    a = sampling.sphere_points(100, 3)
    b = sampling.sphere_points(100, 3)
    assert a is not b and a.flags.writeable and a.tobytes() == b.tobytes()
    assert core._cache == {}
    own = {name for name in vars(sampling) if not name.startswith("__")}
    assert own == {"annotations", "operator", "np", "sphere_points", "_draw_key"}


def test_cached_points_and_pair_coordinates_are_read_only(empty_cache):
    points, coords = core._scan(100, 3)
    for a in (points, coords):
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 0


def test_points_are_a_fresh_draw_on_a_hit_and_after_eviction(empty_cache, monkeypatch):
    want = fresh_draw(700, 11).tobytes()
    first = core._scan(700, 11)
    assert core._scan(700, 11) is first
    assert first[0].tobytes() == want
    monkeypatch.setattr(core, "CACHE_BYTES", 0)
    core._scan(5, 1)
    assert core._cache == {}
    again = core._scan(700, 11)
    assert again[0] is not first[0] and not again[0].flags.writeable
    assert again[0].tobytes() == want and again[1].tobytes() == first[1].tobytes()


def test_a_hit_makes_its_scan_the_most_recently_used(empty_cache, monkeypatch):
    # room for two scans of 100 points: a hit on A moves it past B, so drawing C evicts B, not A
    monkeypatch.setattr(core, "CACHE_BYTES", 2 * sum(a.nbytes for a in core._scan(100, 0)))
    core._cache.clear()
    a_key, b_key, c_key = ((100, seed) for seed in (1, 2, 3))
    a = core._scan(*a_key)
    core._scan(*b_key)
    assert core._scan(*a_key) is a
    core._scan(*c_key)
    assert list(core._cache) == [a_key, c_key]
    assert core._scan(*a_key) is a


def test_repeated_certificates_draw_nothing(empty_cache, monkeypatch):
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


def test_numpy_integers_share_the_entry_of_python_integers(empty_cache):
    a = core._scan(np.int64(50_000), np.int64(0))
    assert core._scan(50_000, 0) is a
    assert list(core._cache) == [(50_000, 0)]


@pytest.mark.parametrize("samples, seed", [(10.5, 0), (np.float64(10.0), 0), (10, 1.5), (10, None), ("10", 0)])
def test_a_non_integer_budget_or_seed_raises_before_anything_is_held(empty_cache, samples, seed):
    for draw in (sampling.sphere_points, core._scan):
        with pytest.raises(TypeError):
            draw(samples, seed)
    assert core._cache == {}


def test_the_cache_never_holds_more_than_its_bound(empty_cache):
    for seed in range(12):
        core._scan(50_000, seed)
        assert held_bytes() <= core.CACHE_BYTES
    assert 1 < len(core._cache) < 12
    assert_whole_scans()


def test_a_draw_larger_than_the_bound_is_handed_out_but_not_held(empty_cache, monkeypatch):
    monkeypatch.setattr(core, "CACHE_BYTES", 100_000)
    small = core._scan(100, 1)
    big_points, big_coords = big = core._scan(20_000, 1)
    assert not big_points.flags.writeable and big_points.tobytes() == fresh_draw(20_000, 1).tobytes()
    assert not big_coords.flags.writeable and big_coords.tobytes() == _pair_coordinates(big_points).tobytes()
    assert core._scan(20_000, 1) is not big
    assert core._cache == {}
    assert core._scan(100, 1) is not small


def test_pair_coordinates_are_held_only_for_a_cached_draw(empty_cache):
    points, held = core._scan(500, 2)
    assert core._scan(500, 2)[1] is held
    frozen = points.copy()
    frozen.flags.writeable = False
    for other in (points, points.copy(), frozen):
        coeffs = _pair_coordinates(other)
        assert coeffs is not held and coeffs.flags.writeable
        assert coeffs.tobytes() == held.tobytes()
        assert _pair_coordinates(other) is not coeffs
    assert len(core._cache) == 1


def test_threads_sharing_the_cache_keep_it_consistent(empty_cache, monkeypatch):
    # a bound of about one entry, so that every few calls evict what another thread is reading
    monkeypatch.setattr(core, "CACHE_BYTES", 20_000)
    keys = [(60 + 10 * k, k) for k in range(6)]
    want = {key: fresh_draw(*key) for key in keys}
    want = {key: (p.tobytes(), _pair_coordinates(p).tobytes()) for key, p in want.items()}
    errors = []

    def work(offset):
        try:
            for i in range(1000):
                key = keys[(i + offset) % len(keys)]
                points, coords = core._scan(*key)
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
    assert held_bytes() <= core.CACHE_BYTES
    assert_whole_scans()


def test_threads_missing_one_key_draw_it_once(empty_cache, monkeypatch):
    # the draw is slow enough that every thread reaches the cache while the first is still drawing
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
        got.append(core._scan(*key))

    threads = [threading.Thread(target=work) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert drawn == [key]
    assert len(got) == 8 and all(entry is got[0] for entry in got)
    assert core._cache == {key: got[0]}
    assert_whole_scans()


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
            monkeypatch.setattr(core, "_cache", {})
        got = {}
        for argv in order:
            code = cli.main(argv)
            got[tuple(argv)] = (code, capsys.readouterr().out)
        return got

    cold = reports(calls, True)
    assert reports(calls, False) == cold
    assert reports(calls[::-1], True) == cold
    assert {code for code, _ in cold.values()} == {0, 1}


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

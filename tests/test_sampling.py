"""The one sampler behind every sampled certificate's scan points."""

import importlib
import inspect
import json
import sys
import threading

import numpy as np
import pytest

from qqocert import cli, ks_global_check, sampled_positivity_check, sampling, state_preservation_check
from qqocert.core import _bloch_vector, _pair_coordinates, _sesquilinear_family


@pytest.mark.parametrize("n, complex_", [(1, False), (3, False), (2, True), (3, True)])
def test_sphere_points_unit_shaped_and_seeded(n, complex_):
    a = sampling.sphere_points(2000, 5, n, complex_)
    assert a.shape == (2000, n)
    assert a.dtype == (complex if complex_ else float)
    assert np.max(np.abs(np.linalg.norm(a, axis=1) - 1.0)) <= 1e-14
    assert np.array_equal(a, sampling.sphere_points(2000, 5, n, complex_))
    assert not np.allclose(a, sampling.sphere_points(2000, 6, n, complex_))


@pytest.mark.parametrize("samples", [0, -3])
def test_sphere_points_refuse_a_budget_below_one(samples):
    with pytest.raises(ValueError, match="need at least one sample"):
        sampling.sphere_points(samples, 0, 3, False)


@pytest.mark.parametrize("seed", [0, 1, 801])
def test_positivity_scan_points_are_uniform_on_the_bloch_sphere(seed):
    # uniform w on S^2 has mean 0 and second moments I/3
    w = _bloch_vector(sampling.sphere_points(20_000, seed, 2, True))
    assert np.linalg.norm(w.mean(axis=0)) < 0.02
    assert np.max(np.abs(w.T @ w / len(w) - np.eye(3) / 3.0)) < 0.01


def test_every_sampled_certificate_draws_through_the_one_sampler(monkeypatch):
    drawn = []
    sphere_points = sampling.sphere_points

    def recording(samples, seed, n, complex_):
        drawn.append((samples, n, complex_))
        return sphere_points(samples, seed, n, complex_)

    monkeypatch.setattr(sampling, "sphere_points", recording)
    b = 0.3 * np.random.default_rng(3).standard_normal((3, 3, 3))
    for run, expected in (
        (state_preservation_check, (20_000, 3, False)),
        (sampled_positivity_check, (20_000, 2, True)),
        (ks_global_check, (50_000, 3, True)),
    ):
        drawn.clear()
        run(b)
        assert drawn == [expected], run.__name__


# ---------------------------------------------------------------- the draw cache


@pytest.fixture
def empty_cache(monkeypatch):
    """An empty draw cache for one test; the process's own comes back afterwards."""
    for name, value in (("_cache", {}), ("_keys", {}), ("_held", 0)):
        monkeypatch.setattr(sampling, name, value)


def fresh_draw(samples, seed, n, complex_):
    """The sampler's formula, drawn afresh: normalized standard Gaussians from default_rng(seed)."""
    g = np.random.default_rng(seed).standard_normal((samples, n, 2) if complex_ else (samples, n))
    z = g[..., 0] + 1j * g[..., 1] if complex_ else g
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def held_bytes():
    return sum(a.nbytes for entry in sampling._cache.values() for a in entry)


BLOCKS = np.zeros((3, 3, 4, 4), dtype=complex)


def test_cached_points_and_pair_coordinates_are_read_only(empty_cache):
    points = sampling.sphere_points(100, 3, 3, True)
    coeffs, _ = _sesquilinear_family(points, BLOCKS)
    for a in (points, coeffs):
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 0


@pytest.mark.parametrize("n, complex_", [(3, False), (2, True), (3, True)])
def test_points_are_a_fresh_draw_on_a_hit_and_after_eviction(empty_cache, monkeypatch, n, complex_):
    want = fresh_draw(700, 11, n, complex_).tobytes()
    first = sampling.sphere_points(700, 11, n, complex_)
    assert sampling.sphere_points(700, 11, n, complex_) is first
    assert first.tobytes() == want
    monkeypatch.setattr(sampling, "CACHE_BYTES", 0)
    sampling.sphere_points(5, 1, 1, False)
    assert sampling._cache == {} and sampling._keys == {} and sampling._held == 0
    again = sampling.sphere_points(700, 11, n, complex_)
    assert again is not first and not again.flags.writeable
    assert again.tobytes() == want


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
    a = sampling.sphere_points(np.int64(50_000), np.int64(0), np.int64(3), np.bool_(True))
    assert sampling.sphere_points(50_000, 0, 3, True) is a
    assert list(sampling._cache) == [(50_000, 0, 3, True)]


@pytest.mark.parametrize("samples, seed", [(10.5, 0), (np.float64(10.0), 0), (10, 1.5), (10, None), ("10", 0)])
def test_a_non_integer_budget_or_seed_raises_before_anything_is_held(empty_cache, samples, seed):
    with pytest.raises(TypeError):
        sampling.sphere_points(samples, seed, 3, True)
    assert sampling._cache == {} and sampling._keys == {} and sampling._held == 0


def test_the_cache_never_holds_more_than_its_bound(empty_cache):
    for seed in range(12):
        points = sampling.sphere_points(50_000, seed, 3, True)
        _sesquilinear_family(points, BLOCKS)
        assert held_bytes() <= sampling._held <= sampling.CACHE_BYTES
        assert sorted(map(id, (e[0] for e in sampling._cache.values()))) == sorted(sampling._keys)
    assert 1 < len(sampling._cache) < 12


def test_a_draw_larger_than_the_bound_is_handed_out_but_not_held(empty_cache, monkeypatch):
    monkeypatch.setattr(sampling, "CACHE_BYTES", 100_000)
    small = sampling.sphere_points(100, 1, 3, True)
    big = sampling.sphere_points(20_000, 1, 3, True)
    assert not big.flags.writeable and big.tobytes() == fresh_draw(20_000, 1, 3, True).tobytes()
    assert sampling.sphere_points(20_000, 1, 3, True) is not big
    assert list(sampling._cache.values()) == [] and held_bytes() == sampling._held == 0
    coeffs = _sesquilinear_family(big, BLOCKS)[0]
    assert coeffs.flags.writeable and _sesquilinear_family(big, BLOCKS)[0] is not coeffs
    assert sampling.sphere_points(100, 1, 3, True) is not small


def test_pair_coordinates_are_held_only_for_a_cached_draw(empty_cache):
    points = sampling.sphere_points(500, 2, 3, True)
    held = _sesquilinear_family(points, BLOCKS)[0]
    assert _sesquilinear_family(points, BLOCKS)[0] is held
    frozen = points.copy()
    frozen.flags.writeable = False
    for other in (points.copy(), frozen):
        coeffs = _sesquilinear_family(other, BLOCKS)[0]
        assert coeffs is not held and coeffs.flags.writeable
        assert coeffs.tobytes() == held.tobytes()
        assert _sesquilinear_family(other, BLOCKS)[0] is not coeffs
    assert len(sampling._cache) == 1


def test_threads_sharing_the_cache_keep_it_consistent(empty_cache, monkeypatch):
    # a bound of about one entry, so that every few calls evict what another thread is reading
    monkeypatch.setattr(sampling, "CACHE_BYTES", 20_000)
    keys = [(60 + 10 * k, k, 3, True) for k in range(6)]
    want = {key: fresh_draw(*key) for key in keys}
    want = {key: (p.tobytes(), _pair_coordinates(p).tobytes()) for key, p in want.items()}
    errors = []

    def work(offset):
        try:
            for i in range(300):
                key = keys[(i + offset) % len(keys)]
                points = sampling.sphere_points(*key)
                got = (points.tobytes(), _sesquilinear_family(points, BLOCKS)[0].tobytes())
                if got != want[key]:
                    errors.append(key)
        except Exception as exc:  # collected, so that the assertion below names it
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert sampling._held == sum(a.nbytes + 1024 for e in sampling._cache.values() for a in e) <= sampling.CACHE_BYTES
    assert all(sampling._keys[id(e[0])] == key for key, e in sampling._cache.items())
    assert len(sampling._keys) == len(sampling._cache)


def test_a_replaced_draw_leaves_no_stale_id(empty_cache, monkeypatch):
    # two threads that miss one key both draw it, outside the lock; the later _keep replaces the earlier
    key = (10, 0, 3, True)
    first, second = fresh_draw(*key), fresh_draw(*key)
    sampling._keep(key, (first,))
    sampling._keep(key, (second,))
    assert sampling._keys == {id(second): key}
    sampling._keep(key, (second, _pair_coordinates(second)))  # the same draw with its pair coordinates
    assert sampling._keys == {id(second): key}
    monkeypatch.setattr(sampling, "CACHE_BYTES", 0)
    sampling._keep((20, 0, 3, True), (fresh_draw(20, 0, 3, True),))
    assert sampling._cache == {} and sampling._keys == {} and sampling._held == 0


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
            for name, value in (("_cache", {}), ("_keys", {}), ("_held", 0)):
                monkeypatch.setattr(sampling, name, value)
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

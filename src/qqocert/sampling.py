"""Seeded scan points on the unit sphere of R^n or C^n, one sampler for every sampled certificate.

A normalized standard Gaussian vector is uniform on the unit sphere
(Muller, Comm. ACM 2(4), 1959), in R^n and, with independent real and
imaginary parts, in C^n.  So the C^2 points of the positivity scan give
Bloch vectors uniform on S^2, the Hopf map carrying uniform S^3 onto
uniform S^2.

Each draw is made once per process and held read-only under (samples,
seed, n, complex_) with the pair coordinates core derives from it; past
CACHE_BYTES the least recently used go, to be drawn again, bitwise alike.
"""

from __future__ import annotations

import operator
import threading

import numpy as np

CACHE_BYTES = 32 << 20
# key -> (points,) or (points, derived), least recently used first; id(points) -> key; bytes held, 1 KiB extra an array
_cache, _keys, _held, _lock = {}, {}, 0, threading.Lock()


def sphere_points(samples: int, seed: int, n: int, complex_: bool) -> np.ndarray:
    """samples unit vectors in C^n (complex_) or R^n, normalized Gaussians from default_rng(seed); read-only, cached."""
    key = _draw_key(samples, seed, n, complex_)
    if (entry := _cache.get(key)) is None:
        g = np.random.default_rng(key[1]).standard_normal((key[0], key[2], 2) if complex_ else (key[0], key[2]))
        z = g[..., 0] + 1j * g[..., 1] if complex_ else g
        entry = (z / np.linalg.norm(z, axis=1, keepdims=True),)
    return _keep(key, entry)[0]


def _draw_key(samples: int, seed: int, n: int, complex_: bool) -> tuple:
    """The cache key of a draw; samples < 1 raises ValueError, a non-integer samples, seed or n TypeError."""
    if samples < 1:
        raise ValueError("need at least one sample")
    return operator.index(samples), operator.index(seed), operator.index(n), bool(complex_)


def _derived(points: np.ndarray, make) -> np.ndarray:
    """make(points), made once and held read-only beside points while they are a cached draw; afresh otherwise."""
    key = _keys.get(id(points))
    entry = _cache.get(key)
    if entry is None or entry[0] is not points:
        return make(points)
    return entry[1] if len(entry) > 1 else _keep(key, (points, make(points)))[1]


def _keep(key, entry: tuple) -> tuple:
    """Hold entry's arrays read-only as the newest under key, then drop the oldest past CACHE_BYTES; the one writer."""
    global _held
    for a in entry:
        a.flags.writeable = False
    with _lock:
        replaced = _cache.pop(key, ())
        _held += sum(a.nbytes + 1024 for a in entry) - sum(a.nbytes + 1024 for a in replaced)
        if replaced and replaced[0] is not entry[0]:  # another thread's draw of the same key
            del _keys[id(replaced[0])]
        _cache[key], _keys[id(entry[0])] = entry, key
        while _held > CACHE_BYTES:
            old = _cache.pop(next(iter(_cache)))
            del _keys[id(old[0])]
            _held -= sum(a.nbytes + 1024 for a in old)
    return entry

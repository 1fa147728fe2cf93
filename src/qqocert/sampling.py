"""Seeded scan points on the unit sphere of R^n or C^n, the one sampler behind the Kadison-Schwarz search.

A normalized standard Gaussian vector is uniform on the unit sphere
(Muller, Comm. ACM 2(4), 1959), in R^n and, with independent real and
imaginary parts, in C^n.  The KS search scans C^3; positivity and state
preservation are decided on a deterministic mesh (core._mesh) and draw
nothing.

The sampler holds nothing: each call draws afresh, bitwise alike for one
(samples, seed, n, complex_).  core._scan keeps each draw once per process,
with its pair coordinates, under that key.
"""

from __future__ import annotations

import operator

import numpy as np


def sphere_points(samples: int, seed: int, n: int, complex_: bool) -> np.ndarray:
    """samples unit vectors in C^n (complex_) or R^n, normalized Gaussians from default_rng(seed)."""
    samples, seed, n, complex_ = _draw_key(samples, seed, n, complex_)
    g = np.random.default_rng(seed).standard_normal((samples, n, 2) if complex_ else (samples, n))
    z = g[..., 0] + 1j * g[..., 1] if complex_ else g
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def _draw_key(samples: int, seed: int, n: int, complex_: bool) -> tuple:
    """The cache key of a draw; samples or n below 1 or seed below 0 raises ValueError, a non-integer one TypeError."""
    if samples < 1:
        raise ValueError("need at least one sample")
    if n < 1:
        raise ValueError("need at least one coordinate")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    return operator.index(samples), operator.index(seed), operator.index(n), bool(complex_)

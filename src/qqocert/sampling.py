"""Seeded scan points on the unit sphere of R^n or C^n, one sampler for every sampled certificate.

A normalized standard Gaussian vector is uniform on the unit sphere
(Muller, Comm. ACM 2(4), 1959), in R^n and, with independent real and
imaginary parts, in C^n.  So the C^2 points of the positivity scan give
Bloch vectors uniform on S^2, the Hopf map carrying uniform S^3 onto
uniform S^2.

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
    """The cache key of a draw; samples or n below 1 raises ValueError, a non-integer samples, seed or n TypeError."""
    if samples < 1:
        raise ValueError("need at least one sample")
    if n < 1:
        raise ValueError("need at least one coordinate")
    return operator.index(samples), operator.index(seed), operator.index(n), bool(complex_)

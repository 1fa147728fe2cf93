"""Seeded scan points on the unit sphere of C^3, the one sampler behind the Kadison-Schwarz search.

A normalized standard Gaussian vector with independent real and
imaginary parts is uniform on the unit sphere of C^n (Muller, Comm. ACM
2(4), 1959).  The KS search scans C^3; positivity and state preservation
are decided on a deterministic mesh (core._mesh) and draw nothing.

The sampler holds nothing: each call draws afresh, bitwise alike for one
(samples, seed).  The KS search holds its last draw (ks._scan).
"""

from __future__ import annotations

import operator

import numpy as np


def sphere_points(samples: int, seed: int) -> np.ndarray:
    """samples unit vectors in C^3, normalized complex Gaussians from default_rng(seed)."""
    samples, seed = _draw_key(samples, seed)
    g = np.random.default_rng(seed).standard_normal((samples, 3, 2))
    z = g[..., 0] + 1j * g[..., 1]
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def _draw_key(samples: int, seed: int) -> tuple:
    """The key of a draw; samples below 1 or seed below 0 raises ValueError, a non-integer one TypeError."""
    if samples < 1:
        raise ValueError("need at least one sample")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    return operator.index(samples), operator.index(seed)

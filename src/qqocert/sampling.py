"""Seeded scan points on the unit sphere of R^n or C^n, one sampler for every sampled certificate.

A normalized standard Gaussian vector is uniform on the unit sphere
(Muller, Comm. ACM 2(4), 1959), in R^n and, with independent real and
imaginary parts, in C^n.  So the C^2 points of the positivity scan give
Bloch vectors uniform on S^2, the Hopf map carrying uniform S^3 onto
uniform S^2.
"""

from __future__ import annotations

import numpy as np


def sphere_points(samples: int, seed: int, n: int, complex_: bool) -> np.ndarray:
    """samples unit vectors in C^n (complex_) or R^n, normalized Gaussians from np.random.default_rng(seed)."""
    if samples < 1:
        raise ValueError("need at least one sample")
    if complex_:
        g = np.random.default_rng(seed).standard_normal((samples, n, 2))
        z = g[..., 0] + 1j * g[..., 1]
    else:
        z = np.random.default_rng(seed).standard_normal((samples, n))
    return z / np.linalg.norm(z, axis=1, keepdims=True)

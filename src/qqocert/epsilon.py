"""The one-parameter family of quadratic operators with coupling epsilon.

The family has a single real coupling and closed-form spectra, which
makes every certification threshold explicit: the induced map is
completely positive iff |eps| <= 1/(3*sqrt(3)), positive iff
|eps| <= 1/3, and keeps the Bloch ball invariant under its quadratic
dynamics iff |eps| <= 1/sqrt(3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import PositivityReport
from .pauli import (
    ID4,
    SIGMA,
    POSITIVITY_EIG_TOL,
    PauliCoeffs,
    hermitian_eigh,
    tensor_product,
)
from .sampling import fibonacci_sphere

CP_THRESHOLD = 1.0 / (3.0 * np.sqrt(3.0))
POSITIVITY_THRESHOLD = 1.0 / 3.0
PRESERVATION_THRESHOLD = 1.0 / np.sqrt(3.0)


class NonRealInput(ValueError):
    """Raised when a real 3-vector is required but complex entries were passed."""


def classify_epsilon(eps: float) -> str:
    """Band of the coupling: 'cp', 'positive', 'state-preserving' or 'invalid'."""
    a = abs(float(eps))
    if not np.isfinite(a):
        raise ValueError("epsilon must be finite")
    if a <= CP_THRESHOLD:
        return "cp"
    if a <= POSITIVITY_THRESHOLD:
        return "positive"
    if a <= PRESERVATION_THRESHOLD:
        return "state-preserving"
    return "invalid"


def build_coeff_tensor(eps: float) -> np.ndarray:
    """The 27-entry coefficient tensor of the family, symmetric in the first two indices."""
    e = float(eps)
    b = np.zeros((3, 3, 3))
    b[0, 0] = (e, 0.0, 0.0)
    b[0, 1] = (0.0, 0.0, e)
    b[0, 2] = (0.0, e, 0.0)
    b[1, 1] = (0.0, e, 0.0)
    b[1, 2] = (e, 0.0, 0.0)
    b[2, 2] = (0.0, 0.0, e)
    for m in range(3):
        for l in range(m):
            b[m, l] = b[l, m]
    return b


# (m, l, component-of-w) triples of the nine tensor-product terms
_PP_TERMS = (
    (0, 0, 0), (0, 1, 2), (0, 2, 1),
    (1, 0, 2), (1, 1, 1), (1, 2, 0),
    (2, 0, 1), (2, 1, 0), (2, 2, 2),
)
_PP_MATS = [tensor_product(SIGMA[m], SIGMA[l]) for (m, l, _) in _PP_TERMS]


def delta_eps_apply(eps: float, x: PauliCoeffs) -> np.ndarray:
    """Direct expansion of the family's image of x, term by term.

    Kept separate from the coefficient-tensor route on purpose: the two
    paths must agree entrywise and cross-validate each other.
    """
    out = x.w0 * ID4.copy()
    for (_, _, comp), mat in zip(_PP_TERMS, _PP_MATS):
        out = out + eps * x.w[comp] * mat
    return out


def _require_real3(w) -> np.ndarray:
    arr = np.asarray(w)
    if np.iscomplexobj(arr) and np.max(np.abs(arr.imag)) > 0.0:
        raise NonRealInput("w must be a real 3-vector")
    return np.asarray(arr.real if np.iscomplexobj(arr) else arr, dtype=float).reshape(3)


def b_matrix(w) -> np.ndarray:
    """The 4x4 hermitian matrix B(w) with family image 1 + eps*B at coupling eps."""
    o1, o2, o3 = _require_real3(w)
    return np.array(
        [
            [o3, o2 - 1j * o1, o2 - 1j * o1, o1 - 2j * o3 - o2],
            [o2 + 1j * o1, -o3, o1 + o2, -o2 + 1j * o1],
            [o2 + 1j * o1, o1 + o2, -o3, -o2 + 1j * o1],
            [o1 + 2j * o3 - o2, -o2 - 1j * o1, -o2 - 1j * o1, o3],
        ],
        dtype=complex,
    )


@dataclass(frozen=True)
class SpectrumB:
    """Closed-form eigenvalues of B(w); lambda3 == lambda4 identically."""

    lambda1: float
    lambda2: float
    lambda3: float
    lambda4: float

    def as_array(self) -> np.ndarray:
        return np.array([self.lambda1, self.lambda2, self.lambda3, self.lambda4])


def spectrum_closed_form(w) -> SpectrumB:
    """Eigenvalues of B(w) for real w: t +/- 2*sqrt(R) and a double -t.

    Here t = w1+w2+w3 and R = sum w_i^2 - sum_{i<j} w_i w_j >= 0.
    """
    o = _require_real3(w)
    t = float(o.sum())
    r = float(np.dot(o, o) - o[0] * o[1] - o[0] * o[2] - o[1] * o[2])
    root = 2.0 * np.sqrt(max(r, 0.0))
    return SpectrumB(t + root, t - root, -t, -t)


def _sphere_lambdas(t: np.ndarray):
    """Closed-form eigenvalues on the unit sphere as functions of t = w1+w2+w3."""
    root = np.sqrt(2.0 * np.maximum(3.0 - t * t, 0.0))
    return t + root, t - root, -t


def _witness_from_t(t: float) -> np.ndarray:
    """A unit vector with coordinate sum t (any point of that circle works)."""
    t = float(np.clip(t, -np.sqrt(3.0), np.sqrt(3.0)))
    radial = np.sqrt(max(0.0, 1.0 - t * t / 3.0))
    return (t / 3.0) * np.ones(3) + radial * np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)


def positivity_check(
    eps: float, samples: int = 20_000, seed: int = 0
) -> PositivityReport:
    """Worst eigenvalue of 1 + eps*B(w) over the unit ball, via the closed forms.

    On the unit sphere all four eigenvalue branches are functions of
    t = w1+w2+w3 alone, so the sampled scan is followed by a 1-d golden
    section polish in t.  Positive iff the margin stays above the shared
    eigenvalue tolerance.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    e = float(eps)

    def objective_t(t):
        l1, l2, l3 = _sphere_lambdas(np.asarray(t, dtype=float))
        return np.minimum(np.minimum(1.0 + e * l1, 1.0 + e * l2), 1.0 + e * l3)

    pts = fibonacci_sphere(samples, seed)
    tvals = pts.sum(axis=1)
    vals = objective_t(tvals)
    i0 = int(np.argmin(vals))
    best_t = float(tvals[i0])

    span = np.sqrt(3.0)
    lo = max(-span, best_t - 0.2)
    hi = min(span, best_t + 0.2)
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    for _ in range(120):
        if objective_t(c) < objective_t(d):
            b = d
        else:
            a = c
        c = b - invphi * (b - a)
        d = a + invphi * (b - a)
    t_star = (a + b) / 2.0
    candidates = [float(tvals[i0]), float(t_star), -1.0, 1.0, -span, span]
    t_best = min(candidates, key=lambda t: float(objective_t(t)))
    margin = float(objective_t(t_best))
    return PositivityReport(
        is_positive=bool(margin >= -POSITIVITY_EIG_TOL),
        worst_w=_witness_from_t(t_best),
        margin=margin,
    )


def choi_matrix(eps: float) -> np.ndarray:
    """Twice the block matrix of family images of the 2x2 matrix units, shape (8, 8)."""
    out = np.zeros((8, 8), dtype=complex)
    for i in range(2):
        for j in range(2):
            eij = np.zeros((2, 2), dtype=complex)
            eij[i, j] = 1.0
            w0 = np.trace(eij) / 2.0
            w = np.array([np.trace(SIGMA[k] @ eij) / 2.0 for k in range(3)])
            out[4 * i : 4 * i + 4, 4 * j : 4 * j + 4] = delta_eps_apply(
                eps, PauliCoeffs(w0, w)
            )
    return 2.0 * out


@dataclass
class CpReport:
    """Outcome of the complete-positivity certificate."""

    is_cp: bool
    min_choi_eig: float


def cp_check(eps: float) -> CpReport:
    """Complete positivity iff the assembled 8x8 block matrix is positive."""
    vals, _ = hermitian_eigh(choi_matrix(eps))
    return CpReport(is_cp=bool(vals[0] >= -POSITIVITY_EIG_TOL), min_choi_eig=float(vals[0]))

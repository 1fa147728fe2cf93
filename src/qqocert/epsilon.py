"""The one-parameter family of quadratic operators with coupling epsilon.

The family has a single real coupling and closed-form spectra, which
makes every certification threshold explicit: the induced map is
completely positive iff |eps| <= 1/(3*sqrt(3)), positive iff
|eps| <= 1/3, and keeps the Bloch ball invariant under its quadratic
dynamics iff |eps| <= 1/sqrt(3).
"""

from __future__ import annotations

import numpy as np

from .core import PositivityReport
from .pauli import (
    ID4,
    SIGMA,
    POSITIVITY_EIG_TOL,
    PauliCoeffs,
)

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
_PP_MATS = [np.kron(SIGMA[m], SIGMA[l]) for (m, l, _) in _PP_TERMS]


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


def spectrum_closed_form(w) -> np.ndarray:
    """Eigenvalues of B(w) for real w: [t + 2*sqrt(R), t - 2*sqrt(R), -t, -t].

    Here t = w1+w2+w3 and R = sum w_i^2 - sum_{i<j} w_i w_j >= 0.
    """
    o = _require_real3(w)
    t = float(o.sum())
    r = float(np.dot(o, o) - o[0] * o[1] - o[0] * o[2] - o[1] * o[2])
    root = 2.0 * np.sqrt(max(r, 0.0))
    return np.array([t + root, t - root, -t, -t])


def _sphere_lambdas(t: np.ndarray):
    """Closed-form eigenvalues on the unit sphere as functions of t = w1+w2+w3."""
    root = np.sqrt(2.0 * np.maximum(3.0 - t * t, 0.0))
    return t + root, t - root, -t


def _witness_from_t(t: float) -> np.ndarray:
    """A unit vector with coordinate sum t (any point of that circle works)."""
    radial = np.sqrt(max(0.0, 1.0 - t * t / 3.0))
    return (t / 3.0) * np.ones(3) + radial * np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)


def positivity_check(eps: float) -> PositivityReport:
    """Worst eigenvalue of 1 + eps*B(w) over the unit ball, via the closed forms.

    On the unit sphere all four eigenvalue branches are functions of
    t = w1+w2+w3 alone.  The branches t +/- sqrt(2(3 - t^2)) reach +/-3 at
    t = +/-1 and -t reaches its extremes at the ends t = +/-sqrt(3), so
    the minimum over these four points is exact and no scan is needed;
    ties keep the first of them.  Positive iff the margin stays above the
    shared eigenvalue tolerance.
    """
    e = float(eps)
    span = np.sqrt(3.0)
    ts = np.array([-1.0, 1.0, -span, span])
    l1, l2, l3 = _sphere_lambdas(ts)
    objective = np.minimum(np.minimum(1.0 + e * l1, 1.0 + e * l2), 1.0 + e * l3)
    best = int(np.argmin(objective))
    margin = float(objective[best])
    return PositivityReport(
        is_positive=bool(margin >= -POSITIVITY_EIG_TOL),
        worst_w=_witness_from_t(ts[best]),
        margin=margin,
    )

"""The one-parameter family of quadratic operators with coupling epsilon.

The family has a single real coupling and closed-form spectra, which
makes every certification threshold explicit: the induced map is
completely positive iff |eps| <= 1/(3*sqrt(3)), positive iff
|eps| <= 1/3, and keeps the Bloch ball invariant under its quadratic
dynamics iff |eps| <= 1/sqrt(3).
"""

from __future__ import annotations

import numpy as np

from .core import PositivityReport, as_coeff_tensor
from .pauli import (
    ID4,
    SIGMA,
    POSITIVITY_EIG_TOL,
    PauliCoeffs,
)

CP_THRESHOLD = 1.0 / (3.0 * np.sqrt(3.0))
POSITIVITY_THRESHOLD = 1.0 / 3.0
PRESERVATION_THRESHOLD = 1.0 / np.sqrt(3.0)


def _finite(eps: float) -> float:
    e = float(eps)
    if not np.isfinite(e):
        raise ValueError("epsilon must be finite")
    return e


def classify_epsilon(eps: float) -> str:
    """Band of the coupling: 'cp', 'positive', 'state-preserving' or 'invalid'."""
    a = abs(_finite(eps))
    if a <= CP_THRESHOLD:
        return "cp"
    if a <= POSITIVITY_THRESHOLD:
        return "positive"
    if a <= PRESERVATION_THRESHOLD:
        return "state-preserving"
    return "invalid"


def build_coeff_tensor(eps: float) -> np.ndarray:
    """The 27-entry coefficient tensor of the family, symmetric in the first two indices, through the tensor gate."""
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
    return as_coeff_tensor(b)


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


def _witness_from_t(t: float) -> np.ndarray:
    """A unit vector with coordinate sum t (any point of that circle works)."""
    radial = np.sqrt(max(0.0, 1.0 - t * t / 3.0))
    return (t / 3.0) * np.ones(3) + radial * np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)


def positivity_check(eps: float) -> PositivityReport:
    """Worst eigenvalue of 1 + eps*B(w), the family image of 1 + w.sigma, over the unit ball, in closed form.

    On the unit sphere the eigenvalues of B(w) are t +/- sqrt(2(3 - t^2))
    and -t (twice), functions of t = w1+w2+w3 alone; they span [-3, 3],
    with -3 at t = -1 and 3 at t = 1.  So the margin is 1 - 3|eps|, reached
    at t = -1 for eps > 0 and at t = 1 for eps < 0; where 1 + 3*eps and
    1 + eps round to the same float (eps = 0, or eps < 0 of size below
    about 1e-17) the witness keeps t = -1.  No scan is needed.  Positive
    iff the margin stays above the shared eigenvalue tolerance.
    """
    e = _finite(eps)
    margin = 1.0 - 3.0 * abs(e)
    return PositivityReport(
        is_positive=bool(margin >= -POSITIVITY_EIG_TOL),
        worst_w=_witness_from_t(1.0 if 1.0 + 3.0 * e < 1.0 + e else -1.0),
        margin=margin,
    )

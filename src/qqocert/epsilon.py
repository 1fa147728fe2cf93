"""The one-parameter family of quadratic operators with coupling epsilon.

The family has a single real coupling and closed-form spectra, which
makes every certification threshold explicit: the induced map is
completely positive iff |eps| <= 1/(3*sqrt(3)), positive iff
|eps| <= 1/3, and keeps the Bloch ball invariant under its quadratic
dynamics iff |eps| <= 1/sqrt(3); past eps_KS = (sqrt(51) - sqrt(3))/24
one closed-form witness (ks_witness) shows it is not Kadison-Schwarz.
coupling reads eps off an exact family tensor, however it was spelled.
Only the preservation constant lives here, for the dynamics' domain;
the others and the band classifier are references in tests/oracles.py,
as is the family's image term by term; `sweep` reads each row's band off
the row's own checks.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .core import MAX_COEFF, PositivityReport, as_coeff_tensor
from .pauli import POSITIVITY_EIG_TOL

PRESERVATION_THRESHOLD = 1.0 / np.sqrt(3.0)


def _finite(eps: float) -> float:
    e = float(eps)
    if not abs(e) <= MAX_COEFF:  # the tensor gate's bound, "not <=" so that NaN fails too
        raise ValueError(f"epsilon must be finite and at most {MAX_COEFF:g} in absolute value")
    return e


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


_UNIT = build_coeff_tensor(1.0)


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


def ks_witness(eps: float) -> tuple:
    """w* = (1, z, z^2)/sqrt(3), z = exp(2i pi sign(eps)/3), and its defect's lambda_min 1 - sqrt(3)|eps| - 12 eps^2."""
    w = np.exp(2j * np.pi / 3.0 * np.sign(eps) * np.arange(3)) / np.sqrt(3.0)
    return w, float(1.0 - np.sqrt(3.0) * abs(eps) - 12.0 * eps * eps)


def coupling(b) -> Optional[float]:
    """The coupling eps when b, through the tensor gate, is exactly build_coeff_tensor(eps), else None."""
    b = as_coeff_tensor(b)
    e = float(b[0, 0, 0])
    return e if np.array_equal(b, e * _UNIT) else None

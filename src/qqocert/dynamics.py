"""Quadratic dynamics on the Bloch ball induced by a coefficient tensor.

The dual of the map squares a state: on Bloch vectors this is the
quadratic recursion V(f)_k = sum_ij b[i][j][k] f_i f_j.  For the
one-parameter family the components read

    V(f)_1 = eps * (f1^2 + 2 f2 f3)
    V(f)_2 = eps * (f2^2 + 2 f1 f3)
    V(f)_3 = eps * (f3^2 + 2 f1 f2)

and the squared norm rho(f) contracts by the factor 3*eps^2, which
drives every orbit to the origin strictly inside the critical coupling
1/sqrt(3) and away from the diagonal fixed points at the boundary.

The ball stays invariant iff sup ||V(f)|| <= 1 over unit f.  The family
tensor is symmetric in its first two indices, so that sup is the
injective norm of the dual action that core.state_preservation_check
computes: sqrt(3)|eps|, reached at the corner (1, 1, 1)/sqrt(3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .epsilon import PRESERVATION_THRESHOLD

DEFAULT_MAX_STEPS = 10_000
DEFAULT_CONV_TOL = 1e-10
# Wide enough that a coupling given to ten decimal digits still counts
# as the critical value 1/sqrt(3).
_EPS_DOMAIN_SLACK = 1e-9


class DomainError(ValueError):
    """Raised when the dynamics is requested outside its ball-preserving domain."""


def _in_eps_domain(eps: float) -> bool:
    """Whether the dynamics runs at this coupling; "<=" so that NaN is outside."""
    return abs(eps) <= PRESERVATION_THRESHOLD + _EPS_DOMAIN_SLACK


def _check_eps_domain(eps: float) -> float:
    e = float(eps)
    if not _in_eps_domain(e):
        raise DomainError(
            f"|eps| = {abs(e)!r} is not within 1/sqrt(3); the map may leave the ball"
        )
    return e


def _v_eps_raw(eps: float, f: np.ndarray) -> np.ndarray:
    """Family components without the domain check; broadcasts over leading axes."""
    f1, f2, f3 = f[..., 0], f[..., 1], f[..., 2]
    return eps * np.stack(
        [f1 * f1 + 2.0 * f2 * f3, f2 * f2 + 2.0 * f1 * f3, f3 * f3 + 2.0 * f1 * f2],
        axis=-1,
    )


@dataclass
class Trajectory:
    """Recorded orbit: (index, f, rho) per step, convergence flag and limit point."""

    steps: List[Tuple[int, np.ndarray, float]]
    converged: bool
    limit: np.ndarray


def iterate(
    eps: float,
    f0,
    max_steps: int = DEFAULT_MAX_STEPS,
    tol: float = DEFAULT_CONV_TOL,
) -> Trajectory:
    """Iterate the family dynamics from f0 until ||f|| < tol or the step budget ends.

    converged is True only when the norm stop fires.  An orbit whose step
    shrinks below 1e-9 relative to its norm is numerically stationary at
    a nonzero fixed point: it reports converged=False with the limit set
    to that point.  (The relative test matters: the diagonal fixed point
    at the critical coupling is repelling, so inputs rounded to a few
    digits would otherwise drift away and blow up doubly exponentially.)
    """
    e = _check_eps_domain(eps)
    if not 0 < tol < np.inf:
        raise ValueError("tol must be positive and finite")
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    f = np.asarray(f0, dtype=float).reshape(3).copy()
    if not np.linalg.norm(f) <= 1.0 + _EPS_DOMAIN_SLACK:
        raise DomainError("initial point lies outside the Bloch ball")
    steps: List[Tuple[int, np.ndarray, float]] = [(0, f, float(np.dot(f, f)))]
    converged = np.linalg.norm(f) < tol
    for n in range(1, max_steps + 1):
        if converged:
            break
        prev, f = f, _v_eps_raw(e, f)
        rho = float(np.dot(f, f))  # numpy's 2-norm of a real f is sqrt(dot(f, f)): bitwise sqrt(rho)
        steps.append((n, f, rho))
        converged = np.sqrt(rho) < tol
        if converged or np.linalg.norm(f - prev) <= 1e-9 * np.sqrt(rho):
            break
    return Trajectory(steps=steps, converged=bool(converged), limit=f.copy())


@dataclass
class FixedPointReport:
    """Fixed points inside the ball and their residuals ||V(p) - p||."""

    points: List[np.ndarray]
    residuals: List[float]


def fixed_points(eps: float) -> FixedPointReport:
    """Fixed points of the family dynamics inside the ball.

    Strictly inside the critical coupling only the origin is fixed; at
    |eps| = 1/sqrt(3) the diagonal point with components 1/(3*eps) joins
    it (its sign follows the sign of eps; the point has norm exactly one
    there and lies outside the ball for smaller couplings).  The list is
    analytic: V(f) = f has no other solution in the ball, which the test
    suite confirms with a Newton sweep from a dense grid.
    """
    e = _check_eps_domain(eps)
    points = [np.zeros(3)]
    if e != 0.0:
        c = 1.0 / (3.0 * e)
        if np.sqrt(3.0) * abs(c) <= 1.0 + 1e-12:
            points.append(np.array([c, c, c]))
    residuals = [float(np.linalg.norm(_v_eps_raw(e, p) - p)) for p in points]
    return FixedPointReport(points=points, residuals=residuals)

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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .core import dual_pair_apply
from .epsilon import PRESERVATION_THRESHOLD
from .sampling import fibonacci_sphere

DEFAULT_MAX_STEPS = 10_000
DEFAULT_CONV_TOL = 1e-10
# Wide enough that a coupling given to ten decimal digits still counts
# as the critical value 1/sqrt(3).
_EPS_DOMAIN_SLACK = 1e-9


class DomainError(ValueError):
    """Raised when the dynamics is requested outside its ball-preserving domain."""


def _check_eps_domain(eps: float) -> float:
    e = float(eps)
    # written as "not <=" so that NaN fails the test
    if not abs(e) <= PRESERVATION_THRESHOLD + _EPS_DOMAIN_SLACK:
        raise DomainError(
            f"|eps| = {abs(e):.6f} is not within 1/sqrt(3); the map may leave the ball"
        )
    return e


def v_apply(b, f) -> np.ndarray:
    """Quadratic image of f under a general tensor; the diagonal of the dual action."""
    return dual_pair_apply(b, f, f)


def _v_eps_raw(eps: float, f: np.ndarray) -> np.ndarray:
    """Family components without the domain check; broadcasts over leading axes."""
    f1, f2, f3 = f[..., 0], f[..., 1], f[..., 2]
    return eps * np.stack(
        [f1 * f1 + 2.0 * f2 * f3, f2 * f2 + 2.0 * f1 * f3, f3 * f3 + 2.0 * f1 * f2],
        axis=-1,
    )


def v_eps_apply(eps: float, f) -> np.ndarray:
    """One step of the family dynamics; requires |eps| <= 1/sqrt(3)."""
    e = _check_eps_domain(eps)
    f = np.asarray(f, dtype=float).reshape(3)
    return _v_eps_raw(e, f)


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
    f = np.asarray(f0, dtype=float).reshape(3).copy()
    if not np.linalg.norm(f) <= 1.0 + _EPS_DOMAIN_SLACK:
        raise DomainError("initial point lies outside the Bloch ball")
    steps: List[Tuple[int, np.ndarray, float]] = [(0, f.copy(), float(np.dot(f, f)))]
    converged = np.linalg.norm(f) < tol
    for n in range(1, max_steps + 1):
        if converged:
            break
        nxt = _v_eps_raw(e, f)
        steps.append((n, nxt.copy(), float(np.dot(nxt, nxt))))
        if np.linalg.norm(nxt) < tol:
            f = nxt
            converged = True
            break
        if np.linalg.norm(nxt - f) <= 1e-9 * np.linalg.norm(nxt):
            f = nxt
            break
        f = nxt
    return Trajectory(steps=steps, converged=bool(converged), limit=f.copy())


@dataclass
class FixedPointReport:
    """Fixed points inside the ball and their residuals ||V(p) - p||."""

    points: List[np.ndarray]
    residuals: List[float]


def _newton_sweep(eps: float, step: float = 0.05) -> np.ndarray:
    """All roots of V(f) = f found by Newton from a dense grid over the ball.

    Vectorized over the grid; returns the deduplicated roots with norm
    at most 1 (plus a hair of tolerance for the boundary points).
    """
    axis = np.arange(-1.0, 1.0 + step / 2.0, step)
    g0, g1, g2 = np.meshgrid(axis, axis, axis, indexing="ij")
    pts = np.column_stack([g0.ravel(), g1.ravel(), g2.ravel()])
    pts = pts[np.einsum("ni,ni->n", pts, pts) <= 1.0]
    cur = pts.copy()
    eye = np.eye(3)
    for _ in range(60):
        f1, f2, f3 = cur[:, 0], cur[:, 1], cur[:, 2]
        jac = 2.0 * eps * np.stack(
            [
                np.stack([f1, f3, f2], axis=-1),
                np.stack([f3, f2, f1], axis=-1),
                np.stack([f2, f1, f3], axis=-1),
            ],
            axis=-2,
        ) - eye[None, :, :]
        res = _v_eps_raw(eps, cur) - cur
        ok = np.abs(np.linalg.det(jac)) > 1e-12
        delta = np.zeros_like(cur)
        if np.any(ok):
            delta[ok] = np.linalg.solve(jac[ok], res[ok, :, None])[:, :, 0]
        cur = cur - delta
        cur = np.where(np.isfinite(cur), cur, 10.0)
    res = np.linalg.norm(_v_eps_raw(eps, cur) - cur, axis=1)
    good = cur[(res <= 1e-12) & (np.linalg.norm(cur, axis=1) <= 1.0 + 1e-12)]
    if good.size == 0:
        return np.zeros((0, 3))
    return np.unique(np.round(good, 8), axis=0)


def fixed_points(eps: float) -> FixedPointReport:
    """Fixed points of the family dynamics inside the ball.

    Strictly inside the critical coupling only the origin is fixed; at
    |eps| = 1/sqrt(3) the diagonal point with components 1/(3*eps) joins
    it (its sign follows the sign of eps; the point has norm exactly one
    there and lies outside the ball for smaller couplings).  The analytic
    list is cross-checked against a Newton sweep from a dense grid.
    """
    e = _check_eps_domain(eps)
    points = [np.zeros(3)]
    if e != 0.0:
        c = 1.0 / (3.0 * e)
        if np.sqrt(3.0) * abs(c) <= 1.0 + 1e-12:
            points.append(np.array([c, c, c]))
    residuals = [float(np.linalg.norm(_v_eps_raw(e, p) - p)) for p in points]

    swept = _newton_sweep(e)
    for root in swept:
        if not any(np.linalg.norm(root - p) <= 1e-6 for p in points):
            raise RuntimeError(
                f"fixed-point sweep found an unlisted root {root} at eps={e}"
            )
    return FixedPointReport(points=points, residuals=residuals)


@dataclass
class BallInvarianceReport:
    """Outcome of the ball-invariance scan."""

    invariant: bool
    worst_norm: float
    witness: np.ndarray


def ball_invariance_check(
    eps: float, samples: int = 20_000, seed: int = 0
) -> BallInvarianceReport:
    """Max image norm of the family dynamics over the sampled ball.

    Accepts any eps on purpose, so the loss of invariance beyond the
    critical coupling can be demonstrated; the image norm is homogeneous
    of degree two, so sampling the sphere suffices.  Sampled candidates
    are polished by projected gradient ascent on the squared image norm.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    e = float(eps)
    pts = fibonacci_sphere(samples, seed)
    imgs = _v_eps_raw(e, pts)
    norms = np.einsum("ni,ni->n", imgs, imgs)
    order = np.argsort(-norms, kind="stable")[: min(8, samples)]

    def image_sq(f):
        v = _v_eps_raw(e, f)
        return float(np.dot(v, v))

    best_sq = float(norms[order[0]])
    best_f = pts[order[0]].copy()
    for idx in order:
        f = pts[idx].copy()
        cur = image_sq(f)
        step = 0.1
        for _ in range(50):
            v = _v_eps_raw(e, f)
            f1, f2, f3 = f
            jac = 2.0 * e * np.array([[f1, f3, f2], [f3, f2, f1], [f2, f1, f3]])
            grad = 2.0 * jac.T @ v
            gn = np.linalg.norm(grad)
            if gn == 0.0:
                break
            cand = f + step * grad / gn
            cand /= np.linalg.norm(cand)
            new = image_sq(cand)
            if new > cur:
                f, cur = cand, new
            else:
                step *= 0.5
        if cur > best_sq:
            best_sq = cur
            best_f = f.copy()
    worst = float(np.sqrt(best_sq))
    return BallInvarianceReport(
        invariant=bool(worst <= 1.0 + 1e-9), worst_norm=worst, witness=best_f
    )

"""Pauli-basis representation of the 2x2 complex matrix algebra.

Every matrix is expanded in the basis {1, sigma_1, sigma_2, sigma_3} and
stored as a scalar coefficient ``w0`` plus a complex 3-vector ``w``.  The
module also provides the small dense-matrix kernel the certifiers build
on: Kronecker products, the (bilinear, unconjugated) cross product on
C^3, and the one hermitian eigen kernel: LAPACK (``np.linalg.eigh`` for
one matrix or a stack; ``eigvalsh`` for the lowest eigenvalues of a
stack, called only on the matrices whose trace bound lets them rank
among the few lowest) behind a guard that rejects non-finite,
non-square or non-hermitian input on both paths.  ``lowest_indices`` picks the few lowest entries of
an array in stable order without sorting all of it; the stack kernel
and ``core.scan_then_refine`` select with it.

Index convention: ``SIGMA[k]`` is sigma_{k+1}; storage is 0-indexed
throughout while the algebra's customary labels run 1..3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Tolerances shared across the package (declared once, used everywhere).
HERMITICITY_ATOL = 1e-13     # entrywise |m - m*| allowed before eigensolving
POSITIVITY_EIG_TOL = 1e-10   # min eigenvalue >= -tol counts as positive
REFINE_STARTS = 8            # scan entries refined; hermitian_lowest_eigvals keeps them exact

SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA = np.stack([SIGMA1, SIGMA2, SIGMA3])
ID2 = np.eye(2, dtype=complex)
ID4 = np.eye(4, dtype=complex)


class NonHermitianInput(ValueError):
    """Raised when an operation requires a hermitian matrix or real coefficients."""


@dataclass(frozen=True, eq=False)
class PauliCoeffs:
    """Coefficients (w0, w) of a 2x2 matrix w0*1 + w.sigma."""

    w0: complex
    w: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "w0", complex(self.w0))
        object.__setattr__(self, "w", np.asarray(self.w, dtype=complex).reshape(3))


def pauli_decompose(m: np.ndarray) -> PauliCoeffs:
    """Unique Pauli coefficients of a 2x2 matrix: w0 = tr(m)/2, wk = tr(sigma_k m)/2."""
    m = np.asarray(m, dtype=complex)
    w0 = np.trace(m) / 2.0
    w = np.array([np.trace(SIGMA[k] @ m) / 2.0 for k in range(3)])
    return PauliCoeffs(w0, w)


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product, block row-major."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def cross_product(u, v) -> np.ndarray:
    """Bilinear cross product on C^3, no conjugation; broadcasts over leading axes."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    out = np.empty(np.broadcast_shapes(u.shape, v.shape), dtype=complex)
    out[..., 0] = u[..., 1] * v[..., 2] - u[..., 2] * v[..., 1]
    out[..., 1] = u[..., 2] * v[..., 0] - u[..., 0] * v[..., 2]
    out[..., 2] = u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]
    return out


def require_hermitian(m: np.ndarray) -> np.ndarray:
    """Return m as a float or complex array, raising NonHermitianInput unless it is hermitian.

    m is one matrix or a stack of shape (..., n, n); every entry must be
    finite and max |m - m*| over the whole stack at most HERMITICITY_ATOL.  Real input
    stays real, so real symmetric matrices get real eigenvectors.
    """
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected square matrices of shape (..., n, n), got {m.shape}")
    m = m.astype(complex if np.iscomplexobj(m) else float, copy=False)
    if not np.all(np.isfinite(m)):
        raise NonHermitianInput("matrix has non-finite entries")
    dev = np.max(np.abs(m - np.conj(np.swapaxes(m, -1, -2)))) if m.size else 0.0
    if dev > HERMITICITY_ATOL:
        raise NonHermitianInput(f"matrix deviates from hermitian by {dev:.3e}")
    return m


def hermitian_eigh(m: np.ndarray):
    """Eigenvalues (ascending) and eigenvectors (matching columns) of a hermitian matrix or a stack (..., n, n)."""
    return np.linalg.eigh(require_hermitian(m))


def lowest_indices(values, k: int = REFINE_STARTS) -> np.ndarray:
    """The first k indices of np.argsort(values, kind="stable"), without a full sort.

    Partitions at the k-th lowest value, then stable-sorts only the
    entries not above it: every entry of the first k is among them, and
    every other entry sorts after all of them.
    """
    values = np.asarray(values)
    if values.size <= k:
        return np.argsort(values, kind="stable")
    kth = np.partition(values, k - 1)[k - 1]
    # "not above" rather than "at or below", so a NaN k-th value keeps every entry
    cand = np.flatnonzero(~(values > kth))
    return cand[np.argsort(values[cand], kind="stable")[:k]]


def hermitian_lowest_eigvals(ms: np.ndarray) -> np.ndarray:
    """Lowest eigenvalues of a stack (N, n, n), exact wherever they can rank among the lowest few.

    The whole stack passes the hermitian guard.  Each matrix A gets the
    trace bound lambda_min >= m - s*sqrt(n - 1), with m = tr(A)/n and
    s^2 = ||A - m*I||_F^2 / n (Wolkowicz & Styan, Linear Algebra Appl. 29,
    1980), taken over the triangle LAPACK reads and lowered by a rounding
    margin far above LAPACK's backward error.  The REFINE_STARTS lowest
    bounds are eigensolved first; a matrix can rank among the
    REFINE_STARTS lowest only if its bound is at most the largest of those
    exact values, so only those candidates go on, best bound first, in
    doubling blocks, until the next bound exceeds the REFINE_STARTS-th
    lowest eigenvalue found so far.  Solved entries hold LAPACK's
    lambda_min, the others their bound, which lies strictly above that
    value; so the first REFINE_STARTS entries of a stable argsort, and
    their values, equal those of the full eigvalsh(ms)[:, 0].
    """
    ms = require_hermitian(ms)
    if ms.ndim != 3:
        raise ValueError(f"expected a stack of shape (N, n, n), got {ms.shape}")
    n = ms.shape[-1]
    # LAPACK reads the lower triangle and the real part of the diagonal
    diag = np.real(np.diagonal(ms, axis1=1, axis2=2))
    mean = diag.sum(axis=1) / n
    rows, cols = np.tril_indices(n, -1)
    lower = np.abs(ms[:, rows, cols])
    centred = np.sum((diag - mean[:, None]) ** 2, axis=1)
    spread = np.sqrt((centred + 2 * np.sum(lower**2, axis=1)) / n)
    bound = mean - spread * np.sqrt(n - 1) - 1e-12 * (np.abs(mean) + spread + 1.0)
    vals = bound.copy()
    first = lowest_indices(bound)
    vals[first] = np.linalg.eigvalsh(ms[first])[:, 0]
    # only a bound at most the largest exact value so far can rank; in stable order the solved come first
    can_rank = np.count_nonzero(bound <= np.max(vals[first], initial=-np.inf))
    order = lowest_indices(bound, can_rank)
    done, block, kth = len(first), 2 * REFINE_STARTS, REFINE_STARTS - 1
    while done < len(order) and bound[order[done]] <= np.partition(vals[order[:done]], kth)[kth]:
        idx = order[done : done + block]
        vals[idx] = np.linalg.eigvalsh(ms[idx])[:, 0]
        done, block = done + len(idx), 2 * block
    return vals


"""The Pauli matrices and the package's one hermitian eigen kernel.

With the identity they are the basis {1, sigma_1, sigma_2, sigma_3} of
the 2x2 complex matrix algebra in which a tensor's coefficients are read.
The certifiers build on one kernel: LAPACK (``np.linalg.eigh`` for one
matrix or a stack; ``eigvalsh`` where only eigenvalues are read, for one
matrix or for the KS scan's family, real coefficients on a table of
matrices, whose few members with the lowest eigenvalues, the refine's
starts, it returns, building only the members whose trace bound lets
them rank among those few and solving only those that an LDL* test
cannot place above the few found: of 50,000 at the default budget, it
builds 249 to 1,679 and solves 8 to 14 at family couplings 0.195 to 0.5,
and builds 152 to 12,280 and solves 14 to 91 on qqbench's general
tensors at seeds 1 to 10 and 501) behind a guard that rejects
non-finite, non-square or non-hermitian input on every path.
``lowest_indices`` picks the few lowest entries of an array in stable
order without sorting all of it: the family kernel's members to solve
and starts, and the refine's starts among its candidates.

Index convention: ``SIGMA[k]`` is sigma_{k+1}; storage is 0-indexed
throughout while the algebra's customary labels run 1..3.
"""

from __future__ import annotations

import numpy as np

# Tolerances shared across the package (declared once, used everywhere).
HERMITICITY_ATOL = 1e-13     # entrywise |m - m*| allowed before eigensolving
POSITIVITY_EIG_TOL = 1e-10   # min eigenvalue >= -tol counts as positive
REFINE_STARTS = 8            # search points refined; hermitian_lowest_eigvals returns them
SCAN_BLOCK = 4096            # most members hermitian_lowest_eigvals builds at once

SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA = np.stack([SIGMA1, SIGMA2, SIGMA3])
ID2 = np.eye(2, dtype=complex)
ID4 = np.eye(4, dtype=complex)


class NonHermitianInput(ValueError):
    """Raised when an operation requires a hermitian matrix or real coefficients."""


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


def hermitian_eigvalsh(m: np.ndarray) -> np.ndarray:
    """Eigenvalues (ascending) of a hermitian matrix or a stack (..., n, n), without eigenvectors."""
    return np.linalg.eigvalsh(require_hermitian(m))


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


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m*) / 2 over the last two axes; exactly hermitian in floating point."""
    return 0.5 * (m + np.conj(np.swapaxes(m, -1, -2)))


def _members(coeffs, table) -> np.ndarray:
    """The members sum_i coeffs[k, i] table[i] of a linear family, shape (N, n, n), each exactly hermitian.

    Each is the hermitian part of one einsum row on the table's hermitian part in real coordinates,
    which rounds alike whichever rows are built with it (a one-row BLAS product does not); the raw
    row is hermitian only to a few ulps of the table, beyond the guard for large tensors.  Every
    matrix a scan, a mesh vertex, a refine step or ks_defect eigensolves is built here.
    """
    herm = _hermitian_part(np.asarray(table))
    rows = np.einsum("ki,ic->kc", np.asarray(coeffs, dtype=float), herm.reshape(len(herm), -1).view(float))
    return _hermitian_part(rows.view(herm.dtype).reshape(-1, *herm.shape[1:]))


def hermitian_lowest_eigvals(coeffs, table) -> tuple:
    """(starts, values): the REFINE_STARTS lowest members sum_i coeffs[k, i] table[i] and their lambda_min.

    coeffs is real (N, q), table (q, n, n).  starts are the first REFINE_STARTS indices of a stable
    argsort of every member's lambda_min, so ties keep index order, and values their LAPACK
    eigvalsh lambda_min, bitwise as if every member were built and solved.  The table passes the
    hermitian guard, so every member is covered, built or not; non-finite coefficients raise
    NonHermitianInput.  Each member A gets the trace bound lambda_min >= m - s*sqrt(n - 1),
    m = tr(A)/n, s^2 = ||A - m*I||_F^2 / n (Wolkowicz & Styan, Linear Algebra Appl. 29, 1980),
    without building A: m = coeffs @ tr(table)/n and sqrt(n)*s = ||coeffs @ R.T||, R the QR factor
    of the table's traceless parts in real coordinates.  QR is backward stable, so s (with no
    square root of a cancelled difference), m and the built A are off by O(u*||c||*||table||_F),
    c the member's coefficients, and LAPACK by O(u*||A||); the bound is lowered by
    1e-12*(|m| + s + ||c||*||table||_F + 1), far above all three.  The REFINE_STARTS lowest bounds
    are solved first; only a member whose bound is at most the largest of those exact values can
    rank, so only those go on, best bound first, in doubling blocks of at most SCAN_BLOCK, until the
    next bound exceeds t, the REFINE_STARTS-th lowest value found.

    Each block is built by _members, as the refine steps build theirs.  A built member A whose
    LDL* factorization of A - (t + slack)*I, slack = 1e-12*(|t| + ||c||*||table||_F + 1), has only
    positive pivots (_pivots_positive) has LAPACK lambda_min above t, so it sorts after the
    REFINE_STARTS values at most t and is neither guarded nor solved; only the others pass the guard
    and LAPACK, and t tightens for the next block.  The slack: the test and LAPACK read the same
    built A, so no build error enters, and ||A||_2 <= ||A||_F <= (1 + (q + 2)u)*||c||*||table||_F.
    Forming H = A - sigma*I, sigma = fl(t + slack), rounds sigma by u*|sigma| and each diagonal entry
    by u*(||A|| + |sigma|).  An LDL* run to the end with positive pivots is a Cholesky factorization,
    R = D^(1/2) L*, so its factors are exact for H + dH with |dH| <= g*|L| D |L*| (Higham, Accuracy
    and Stability of Numerical Algorithms, section 10.1): g = gamma_(n+1) in real arithmetic, at
    most 4*gamma_(n+1) with complex entries and a reciprocal in place of each division (section 3.6).
    ||(|L| D |L*|)||_2 <= tr(L D L*) ~ n*(||A|| + |sigma|), and L D L*, congruent to D, is positive
    definite, so lambda_min(A) > t + slack - (4n*gamma_(n+1) + 3u)*(||A|| + |sigma|); Rump (BIT 46,
    2006) proves the same test rigorously, underflow included.  LAPACK's eigvalsh is off by at most
    p(n)*u*||A||, p(n) <= 10n^2 (LAPACK Users' Guide, section 4.7; core._vertex_slack allows the same).
    For the package's 4x4 defects that is under 250u*(||c||*||table||_F + |t| + slack) in all, and
    under 6,000u times that sum for any n <= 20, u = 2^-53, while 1e-12 is about 9,000u.  So a member
    that passes has LAPACK lambda_min strictly above t, which is at least the final REFINE_STARTS-th
    lowest value.  LAPACK reads each failing member as built, so a member rebuilt alone gets the same
    lambda_min from eigvalsh.
    """
    table, coeffs = require_hermitian(table), np.asarray(coeffs, dtype=float)
    if table.ndim != 3 or coeffs.ndim != 2 or coeffs.shape[1] != len(table):
        raise ValueError(f"expected coefficients (N, q) and a table (q, n, n), got {coeffs.shape} and {table.shape}")
    if not np.all(np.isfinite(coeffs)):
        raise NonHermitianInput("coefficients have non-finite entries")
    herm = _hermitian_part(table)
    bound, size = _trace_bounds(coeffs, herm)
    vals = bound.copy()
    first = lowest_indices(bound)
    vals[first] = hermitian_eigvalsh(_members(coeffs[first], herm))[:, 0]
    # only a bound at most the largest exact value so far can rank; in stable order the solved come first
    can_rank = np.count_nonzero(bound <= np.max(vals[first], initial=-np.inf))
    order = lowest_indices(bound, can_rank)
    done, block, kth = len(first), 2 * REFINE_STARTS, REFINE_STARTS - 1
    while done < len(order) and bound[order[done]] <= (t := np.partition(vals[order[:done]], kth)[kth]):
        idx = order[done : done + block]
        ms = _members(coeffs[idx], herm)
        above = _pivots_positive(ms, t + 1e-12 * (abs(t) + size[idx] + 1.0))
        # lambda_min above t: the member sorts after REFINE_STARTS values at most t
        vals[idx[above]] = np.inf
        vals[idx[~above]] = hermitian_eigvalsh(ms[~above])[:, 0]
        done, block = done + len(idx), min(2 * block, SCAN_BLOCK)
    # an unbuilt member's bound, below its lambda_min, lies strictly above the REFINE_STARTS-th lowest
    # solved value, and a ruled-out member's lambda_min too, so the lowest members are all solved;
    # sorted first, ties keep index order
    solved = np.sort(order[:done])
    starts = solved[lowest_indices(vals[solved])]
    return starts, vals[starts]


def _trace_bounds(coeffs: np.ndarray, herm: np.ndarray) -> tuple:
    """(bound, size): each member's lowered trace bound on lambda_min and ||c||*||table||_F, none built."""
    n = herm.shape[-1]
    trace = np.real(np.trace(herm, axis1=1, axis2=2)) / n
    # real coordinates: a complex matrix as 2*n*n floats, a real one as n*n
    flat = herm.reshape(len(herm), -1).view(float)
    free = (herm - trace[:, None, None] * np.eye(n)).reshape(len(herm), -1).view(float)
    mean, y = coeffs @ trace, coeffs @ np.linalg.qr(free.T, mode="r").T
    spread = np.sqrt(np.einsum("ki,ki->k", y, y) / n)
    size = np.sqrt(np.einsum("ki,ki->k", coeffs, coeffs)) * np.linalg.norm(flat)
    return mean - spread * np.sqrt(n - 1) - 1e-12 * (np.abs(mean) + spread + size + 1.0), size


def _pivots_positive(ms: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Whether every pivot of the LDL* factorization of ms[k] - shift[k]*I is positive, for a stack (N, n, n).

    The lower triangle, which LAPACK reads, is held as one 1-D array over the stack per entry; column j's
    pivot d is the diagonal entry, and l = the entries below it updates the trailing lower triangle by
    -l l*/d.  A member whose pivots are all positive is positive definite up to the backward error
    that hermitian_lowest_eigvals derives; a non-positive pivot stops its updates.
    """
    n = ms.shape[-1]
    diag = [ms[:, i, i].real - shift for i in range(n)]
    low = {(i, j): ms[:, i, j] for i in range(n) for j in range(i)}
    positive = np.ones(len(ms), dtype=bool)
    for j in range(n):
        positive &= diag[j] > 0
        inv = np.divide(1.0, diag[j], out=np.zeros(len(ms)), where=positive)
        for i in range(j + 1, n):
            scaled = low[i, j] * inv
            diag[i] = diag[i] - (scaled * np.conj(low[i, j])).real
            for k in range(j + 1, i):
                low[i, k] = low[i, k] - scaled * np.conj(low[k, j])
    return positive

"""Coefficient-tensor representation of trace-invariant quadratic operators.

A unital map Delta from the qubit algebra into its two-fold tensor
product that leaves the normalized trace invariant is determined by 27
real numbers b[m][l][k]:

    Delta(w0*1 + w.sigma) = w0*(1 x 1) + sum_{m,l} (sum_i b[m][l][i] w_i) sigma_m x sigma_l

This module evaluates that map, its dual action on product states and
the 3x3 matrix field beta(f), and builds every certificate on shared
pieces: one scan-then-refine loop (a batch scan, then an exact
monotone step repeated from the eight best points, all eight advanced
together with one stacked eigensolve per half-step), one tensor-norm
routine (state_preservation_check, the injective norm of the dual
action) and one complete-positivity check on the Choi matrix, which
is built for all four matrix units at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pauli import (
    ID4,
    SIGMA,
    POSITIVITY_EIG_TOL,
    PauliCoeffs,
    hermitian_eigh,
    hermitian_lowest_eigvals,
    lowest_indices,
)
from .sampling import fibonacci_sphere

DEFAULT_SAMPLES = 20_000
DEFAULT_SEED = 0
# scan_then_refine: relative stop, round cap (it refines REFINE_STARTS starts)
REFINE_RTOL = 1e-15
REFINE_CAP = 1000

# sigma_m x sigma_l for all nine index pairs, shape (3, 3, 4, 4)
_SIGMA_PAIRS = np.array(
    [[np.kron(SIGMA[m], SIGMA[l]) for l in range(3)] for m in range(3)]
)
# Pauli coefficients of the matrix units, w0 = tr(e_ij)/2 and w[i, j, k] = tr(sigma_k e_ij)/2,
# read off SIGMA: a matrix product here would make every import pay for BLAS buffers
_UNIT_W0 = np.eye(2, dtype=complex) / 2
_UNIT_W = SIGMA.transpose(2, 1, 0) / 2


def as_coeff_tensor(b) -> np.ndarray:
    """Validate and return a coefficient tensor as a (3, 3, 3) float array."""
    arr = np.asarray(b, dtype=float)
    if arr.shape != (3, 3, 3):
        raise ValueError(f"coefficient tensor must have shape (3, 3, 3), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("coefficient tensor entries must be finite")
    return arr


def delta_sigma_images(b) -> np.ndarray:
    """The three 4x4 images of the Pauli matrices under the map, shape (3, 4, 4)."""
    arr = as_coeff_tensor(b)
    return np.einsum("mlk,mlab->kab", arr, _SIGMA_PAIRS)


def delta_apply(b, x: PauliCoeffs) -> np.ndarray:
    """Image of x = w0*1 + w.sigma: w0*I4 plus the tensor-weighted Pauli pairs."""
    arr = as_coeff_tensor(b)
    coeff = np.einsum("mli,i->ml", arr, x.w)
    return x.w0 * ID4 + np.einsum("ml,mlab->ab", coeff, _SIGMA_PAIRS)


def beta_matrix(b, f) -> np.ndarray:
    """The 3x3 matrix beta(f) with entry (i, j) = sum_k b[k][i][j] f_k."""
    arr = as_coeff_tensor(b)
    f = np.asarray(f, dtype=float).reshape(3)
    return np.einsum("kij,k->ij", arr, f)


def dual_pair_apply(b, f, p) -> np.ndarray:
    """Bloch vector of the dual action on a product state: out_k = sum b[i][j][k] f_i p_j.

    The sum is grouped by unordered index pairs so that tensors symmetric
    in the first two indices give bitwise-identical results under
    swapping f and p.
    """
    arr = as_coeff_tensor(b)
    f = np.asarray(f, dtype=float).reshape(3)
    p = np.asarray(p, dtype=float).reshape(3)
    out = np.zeros(3)
    for i in range(3):
        out += arr[i, i] * (f[i] * p[i])
    for i in range(3):
        for j in range(i + 1, 3):
            out += arr[i, j] * (f[i] * p[j]) + arr[j, i] * (f[j] * p[i])
    return out


def _spectral_norm_with_vectors(m: np.ndarray):
    """Largest singular value of a real 3x3 matrix, or of each in a stack, with its right singular vector v."""
    vals, vecs = hermitian_eigh(np.swapaxes(m, -1, -2) @ m)
    return np.sqrt(np.maximum(vals[..., -1], 0.0)), vecs[..., :, -1]


def scan_then_refine(points, values, step) -> tuple:
    """Minimize from the best scanned points by repeating an exact monotone step.

    values[i] is the scan value of points[i], exact at least where it
    ranks among the lowest; maximizers pass negated values.  The
    REFINE_STARTS lowest, in stable order so that ties keep scan order
    (lowest_indices, which sorts only the candidates), each start a
    descent over states (point, carry), advance together: step maps the
    stacked points and carries of the k starts still running (carries
    None in round 1, then what the next round needs, such as
    eigenvectors) to the next ones and k values.  A round that would
    raise a start's value is discarded and ends that start, as does one
    that lowers it by at most REFINE_RTOL relative; REFINE_CAP rounds end
    all.  Returns (best value, best point, the most rounds any start
    used), ties going to the earlier start.  An empty scan raises
    ValueError; the certificates refuse a budget below one before they scan.
    """
    values = np.asarray(values)
    if values.size < 1:
        raise ValueError("samples must be >= 1")
    order = lowest_indices(values)
    x, val = np.asarray(points)[order], values[order].astype(float)
    live, carry = np.arange(len(order)), None
    for rounds in range(1, REFINE_CAP + 1):
        new_x, new_carry, new = step(x[live], carry)
        fall = val[live] - new
        fell = fall > 0
        x[live[fell]], val[live[fell]] = new_x[fell], new[fell]
        going = fall > REFINE_RTOL * np.abs(val[live])
        live, carry = live[going], None if new_carry is None else new_carry[going]
        if live.size == 0:
            break
    best = int(np.argmin(val))
    return float(val[best]), x[best], rounds


@dataclass
class PreservationReport:
    """Outcome of the product-state preservation certificate."""

    max_norm: float
    witness_f: np.ndarray
    witness_p: np.ndarray
    passes: bool


def _norm_step(arr: np.ndarray):
    """One round of alternating singular-vector ascent on |b(f, p, .)|, negated, for a stack of f.

    p becomes the leading right-singular vector of N(f), then f that of
    N'(p), where b(f, p, .) = N(f) p = N'(p) f; each half-step picks the
    best partner for the other, so the norm never falls.  No carry.
    """

    def step(f, _):
        _, p = _spectral_norm_with_vectors(np.einsum("ijk,ni->nkj", arr, f))
        val, f = _spectral_norm_with_vectors(np.einsum("ijk,nj->nki", arr, p))
        return f, None, -val

    return step


def state_preservation_check(
    b, samples: int = DEFAULT_SAMPLES, seed: int = DEFAULT_SEED
) -> PreservationReport:
    """Injective norm of the dual action: the max of |b(f, p, .)| over unit f and p.

    This is the package's one tensor-norm routine.  The dual image
    b(f, p, .)_k = sum_ij b[i][j][k] f_i p_j is bilinear, so for each f of
    a Fibonacci scan the worst p is the leading right-singular vector of
    N(f); the best candidates are refined by alternating that step in f
    and p (the higher-order power method), and the norm is re-evaluated
    at the final pair.  The certificate passes iff the maximum stays
    within 1 + 1e-9.
    """
    arr = as_coeff_tensor(b)
    pts = fibonacci_sphere(samples, seed)
    # b(f, p, .) = N(f) p with N(f)[k, j] = sum_i b[i][j][k] f_i
    mats = np.einsum("ijk,ni->nkj", arr, pts)
    grams = np.einsum("nkj,nkl->njl", mats, mats)
    # the largest eigenvalues of the grams, as the lowest of their negatives
    largest = -hermitian_lowest_eigvals(-grams)
    norms = np.sqrt(np.maximum(largest, 0.0))
    _, f, _ = scan_then_refine(pts, -norms, _norm_step(arr))
    max_norm, p = _spectral_norm_with_vectors(np.einsum("ijk,i->kj", arr, f))
    return PreservationReport(
        max_norm=float(max_norm),
        witness_f=np.array(f),
        witness_p=p,
        passes=bool(max_norm <= 1.0 + 1e-9),
    )


@dataclass
class PositivityReport:
    """Outcome of a positivity scan over extreme points of the state space."""

    is_positive: bool
    worst_w: np.ndarray
    margin: float


def _eigen_descent_step(matrix_of, update):
    """A scan_then_refine step that alternates points w and eigenvectors psi, for a stack of w.

    psi (the carry) is the lowest eigenvector of the hermitian
    matrix_of(w); update(psi) returns unit w minimizing
    <psi, matrix_of(w) psi>, so lambda_min(matrix_of(w)) never rises.
    The new points' psi is kept, so a round costs one stacked eigensolve
    plus whatever update needs.
    """

    def lowest(w):
        vals, vecs = hermitian_eigh(matrix_of(w))
        return vals[:, 0], vecs[:, :, 0]

    def step(w, psi):
        if psi is None:
            psi = lowest(w)[1]
        w = update(psi)
        val, psi = lowest(w)
        return w, psi, val

    return step


def _positivity_step(ds: np.ndarray):
    """Exact descent on <psi, (1 + w.Dsigma) psi>: w = -g/|g| with g_k = <psi, Dsigma_k psi>."""

    def update(psi):
        g = np.real(np.einsum("na,kab,nb->nk", np.conj(psi), ds, psi))
        # |g| from one dot product per row, the way np.linalg.norm takes it for one g
        gn = np.sqrt(g[:, None, :] @ g[:, :, None])[:, 0]
        # g = 0 makes every unit w a minimizer
        zero = gn == 0.0
        return np.where(zero, np.eye(3)[0], -g / np.where(zero, 1.0, gn))

    return _eigen_descent_step(lambda w: ID4 + np.einsum("nk,kab->nab", w, ds), update)


def sampled_positivity_check(
    b, samples: int = DEFAULT_SAMPLES, seed: int = DEFAULT_SEED
) -> PositivityReport:
    """Positivity of the map probed on sampled boundary elements 1 + w.sigma.

    Positivity on rank-one projectors is enough by convexity, and scaling
    reduces those to w0 = 1 with a real unit w.  The margin is the
    smallest eigenvalue of the image over a Fibonacci scan, refined by
    exact alternating descent from the worst candidates.
    """
    ds = delta_sigma_images(as_coeff_tensor(b))
    pts = fibonacci_sphere(samples, seed)
    vals = hermitian_lowest_eigvals(ID4 + np.einsum("nk,kab->nab", pts, ds))
    margin, w, _ = scan_then_refine(pts, vals, _positivity_step(ds))
    return PositivityReport(
        is_positive=bool(margin >= -POSITIVITY_EIG_TOL),
        worst_w=np.array(w),
        margin=margin,
    )


def choi_matrix_from_tensor(b) -> np.ndarray:
    """Twice the block matrix [Delta(e_ij)] over the 2x2 matrix units, shape (8, 8), all four at once."""
    arr = as_coeff_tensor(b)
    coeff = np.einsum("mlk,ijk->ijml", arr, _UNIT_W)
    images = _UNIT_W0[:, :, None, None] * ID4 + np.einsum("ijml,mlab->ijab", coeff, _SIGMA_PAIRS)
    return 2.0 * images.transpose(0, 2, 1, 3).reshape(8, 8)


@dataclass
class CpReport:
    """Outcome of the complete-positivity certificate, with the ascending Choi spectrum."""

    is_cp: bool
    min_choi_eig: float
    eigenvalues: np.ndarray


def cp_check(b) -> CpReport:
    """Complete positivity iff the 8x8 Choi block matrix is positive semidefinite."""
    vals, _ = hermitian_eigh(choi_matrix_from_tensor(b))
    return CpReport(
        is_cp=bool(vals[0] >= -POSITIVITY_EIG_TOL), min_choi_eig=float(vals[0]), eigenvalues=vals
    )

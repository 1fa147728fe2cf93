"""Coefficient-tensor representation of trace-invariant quadratic operators.

A unital map Delta from the qubit algebra into its two-fold tensor
product that leaves the normalized trace invariant is determined by 27
real numbers b[m][l][k]:

    Delta(w0*1 + w.sigma) = w0*(1 x 1) + sum_{m,l} (sum_i b[m][l][i] w_i) sigma_m x sigma_l

This module evaluates that map, its dual action on product states, the
3x3 matrix field beta(f) that governs whether the induced quadratic
dynamics stays on the state space, and the sampled certificates built
from them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pauli import (
    ID2,
    ID4,
    SIGMA,
    POSITIVITY_EIG_TOL,
    PauliCoeffs,
    hermitian_eigh,
    hermitian_eigvalsh_batch,
    tensor_product,
)
from .sampling import fibonacci_sphere

DEFAULT_SAMPLES = 20_000
DEFAULT_SEED = 0

# sigma_m x sigma_l for all nine index pairs, shape (3, 3, 4, 4)
_SIGMA_PAIRS = np.array(
    [[tensor_product(SIGMA[m], SIGMA[l]) for l in range(3)] for m in range(3)]
)


def as_coeff_tensor(b) -> np.ndarray:
    """Validate and return a coefficient tensor as a (3, 3, 3) float array."""
    arr = np.asarray(b, dtype=float)
    if arr.shape != (3, 3, 3):
        raise ValueError(f"coefficient tensor must have shape (3, 3, 3), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("coefficient tensor entries must be finite")
    return arr


def tensor_is_symmetric(b, atol: float = 0.0) -> bool:
    """True iff b[m][l][k] == b[l][m][k] for all indices."""
    arr = as_coeff_tensor(b)
    return bool(np.max(np.abs(arr - arr.transpose(1, 0, 2))) <= atol)


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
    """Largest singular value of a real 3x3 matrix with its singular pair (u, v)."""
    g = m.T @ m
    vals, vecs = hermitian_eigh(g)
    sigma2 = max(vals[-1], 0.0)
    v = vecs[:, -1].real
    smax = float(np.sqrt(sigma2))
    u = m @ v / smax if smax > 0 else np.array([1.0, 0.0, 0.0])
    return smax, u, v


def b_norm_sup(b, samples: int = DEFAULT_SAMPLES, seed: int = DEFAULT_SEED) -> float:
    """Sup over the unit ball of the spectral norm of beta(f).

    beta is linear in f, so the sup lives on the unit sphere.  The scan
    samples a seeded Fibonacci lattice, then refines the best eight
    candidates by block-coordinate ascent on the underlying trilinear
    form (monotone, converges to a critical point of the norm).
    Deterministic for a fixed seed; a lower bound by construction.
    """
    arr = as_coeff_tensor(b)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    pts = fibonacci_sphere(samples, seed)
    betas = np.einsum("kij,nk->nij", arr, pts)
    grams = np.einsum("nji,njk->nik", betas, betas)
    norms = np.sqrt(np.maximum(hermitian_eigvalsh_batch(grams)[:, -1], 0.0))
    order = np.argsort(-norms, kind="stable")[: min(8, samples)]
    best = float(norms[order[0]])
    for idx in order:
        f = pts[idx]
        val, u, v = _spectral_norm_with_vectors(beta_matrix(arr, f))
        # Exact block-coordinate ascent on the trilinear form u . beta(f) v:
        # for fixed (u, v) the optimal unit f is the normalized gradient,
        # so each round is an ascent step with optimal step length.
        for _ in range(200):
            grad = np.einsum("kij,i,j->k", arr, u, v)
            gn = np.linalg.norm(grad)
            if gn <= val * (1.0 + 1e-15):
                break
            f = grad / gn
            val, u, v = _spectral_norm_with_vectors(beta_matrix(arr, f))
        best = max(best, val)
    return best


@dataclass
class PreservationReport:
    """Outcome of the product-state preservation certificate."""

    max_norm: float
    witness_f: np.ndarray
    witness_p: np.ndarray
    passes: bool


def state_preservation_check(
    b, samples: int = DEFAULT_SAMPLES, seed: int = DEFAULT_SEED
) -> PreservationReport:
    """Max over sampled state pairs (f, p) of the dual image norm.

    The dual image is bilinear, so for each sampled f the worst p is the
    leading right-singular vector of the induced 3x3 matrix; the top
    candidates are polished by alternating that step in f and p.  The
    certificate passes iff the maximum stays within 1 + 1e-9.
    """
    arr = as_coeff_tensor(b)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    pts = fibonacci_sphere(samples, seed)
    # out = N(f) p with N(f)[k, j] = sum_i b[i][j][k] f_i
    mats = np.einsum("ijk,ni->nkj", arr, pts)
    grams = np.einsum("nkj,nkl->njl", mats, mats)
    norms = np.sqrt(np.maximum(hermitian_eigvalsh_batch(grams)[:, -1], 0.0))
    order = np.argsort(-norms, kind="stable")[: min(8, samples)]

    best = -1.0
    best_f = pts[order[0]].copy()
    best_p = np.array([1.0, 0.0, 0.0])
    for idx in order:
        f = pts[idx]
        p = np.array([1.0, 0.0, 0.0])
        val = -1.0
        # alternation is exact block ascent: each half-step picks the
        # optimal partner vector for the current one
        for _ in range(200):
            _, _, p = _spectral_norm_with_vectors(np.einsum("ijk,i->kj", arr, f))
            new, _, f = _spectral_norm_with_vectors(np.einsum("ijk,j->ki", arr, p))
            if new <= val * (1.0 + 1e-15):
                val = max(val, new)
                break
            val = new
        if val > best:
            best = val
            best_f, best_p = f.copy(), p.copy()
    return PreservationReport(
        max_norm=float(best),
        witness_f=best_f,
        witness_p=best_p,
        passes=bool(best <= 1.0 + 1e-9),
    )


def haar_unital_check(b, atol: float = 1e-13) -> bool:
    """Both partial normalized traces of every basis image equal tau(x) * I2.

    Structurally true for any real tensor because the Pauli pairs are
    traceless in each slot; kept as a regression test of the assembled
    matrices.
    """
    arr = as_coeff_tensor(b)
    basis = [PauliCoeffs(1.0, np.zeros(3))] + [
        PauliCoeffs(0.0, np.eye(3)[k]) for k in range(3)
    ]
    for x in basis:
        m = delta_apply(arr, x).reshape(2, 2, 2, 2)
        left = 0.5 * np.einsum("ikil->kl", m)
        right = 0.5 * np.einsum("ikjk->ij", m)
        target = x.w0 * ID2  # tau(x) = w0
        if np.max(np.abs(left - target)) > atol or np.max(np.abs(right - target)) > atol:
            return False
    return True


@dataclass
class PositivityReport:
    """Outcome of a positivity scan over extreme points of the state space."""

    is_positive: bool
    worst_w: np.ndarray
    margin: float


def sampled_positivity_check(
    b, samples: int = DEFAULT_SAMPLES, seed: int = DEFAULT_SEED
) -> PositivityReport:
    """Positivity of the map probed on sampled boundary elements 1 + w.sigma.

    Positivity on rank-one projectors is enough by convexity, and scaling
    reduces those to w0 = 1 with a real unit w.  The margin is the
    smallest eigenvalue of the image over the scan, refined by projected
    gradient descent from the worst candidates.
    """
    arr = as_coeff_tensor(b)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    ds = delta_sigma_images(arr)
    pts = fibonacci_sphere(samples, seed)
    mats = ID4[None, :, :] + np.einsum("nk,kab->nab", pts, ds)
    vals = hermitian_eigvalsh_batch(mats)[:, 0]
    order = np.argsort(vals, kind="stable")[: min(8, samples)]

    worst = float(vals[order[0]])
    worst_w = pts[order[0]].copy()
    for idx in order:
        w = pts[idx]
        step = 0.1
        for _ in range(50):
            evals, evecs = hermitian_eigh(ID4 + np.einsum("k,kab->ab", w, ds))
            cur = evals[0]
            vec = evecs[:, 0]
            grad = np.array([np.real(vec.conj() @ ds[k] @ vec) for k in range(3)])
            gn = np.linalg.norm(grad)
            if gn == 0.0:
                break
            cand = w - step * grad / gn
            cand /= np.linalg.norm(cand)
            new_vals, _ = hermitian_eigh(ID4 + np.einsum("k,kab->ab", cand, ds))
            if new_vals[0] < cur:
                w = cand
                cur = new_vals[0]
            else:
                step *= 0.5
        if cur < worst:
            worst = float(cur)
            worst_w = w.copy()
    return PositivityReport(
        is_positive=bool(worst >= -POSITIVITY_EIG_TOL),
        worst_w=worst_w,
        margin=worst,
    )


def choi_matrix_from_tensor(b) -> np.ndarray:
    """Twice the block matrix [Delta(e_ij)] over the 2x2 matrix units, shape (8, 8)."""
    arr = as_coeff_tensor(b)
    out = np.zeros((8, 8), dtype=complex)
    for i in range(2):
        for j in range(2):
            eij = np.zeros((2, 2), dtype=complex)
            eij[i, j] = 1.0
            w0 = np.trace(eij) / 2.0
            w = np.array([np.trace(SIGMA[k] @ eij) / 2.0 for k in range(3)])
            out[4 * i : 4 * i + 4, 4 * j : 4 * j + 4] = delta_apply(arr, PauliCoeffs(w0, w))
    return 2.0 * out

"""Kadison-Schwarz certification for coefficient-tensor operators.

The map satisfies the Kadison-Schwarz inequality iff the defect

    defect(w) = ||w||^2 * I4 - i*[w, conj(w)].Dsigma - (conj(w).Dsigma)(w.Dsigma)

is positive semidefinite for every unit w in C^3, where Dsigma collects
the three images of the Pauli matrices and v.Dsigma = sum_k v_k Dsigma_k.
The defect equals the direct evaluation of the image of (w.sigma)*(w.sigma)
minus the product of adjoint images, which is enforced as a test oracle.

The defect is sesquilinear in w: defect(w) = sum_jk conj(w_j) w_k M_jk,
so <psi, defect(w) psi> = (w x psi)* M (w x psi) for one 12x12 hermitian
matrix M (ks_form) with 4x4 blocks

    M_jk = delta_jk I4 - Dsigma_j Dsigma_k - i sum_l eps_lkj Dsigma_l.

Contracting M against psi instead gives the 3x3 hermitian matrix
T(psi)_jk = <psi, M_jk psi>, with <psi, defect(w) psi> = w* T(psi) w.
The search seeks the minimum of this biquadratic form over the two unit
spheres.  A scan builds every sampled defect with one matrix product and
hands the stack to the guarded lowest-eigenvalue kernel, which solves
only the defects that can rank among the best; exact alternating
eigen-descent then polishes the best candidates (psi := lowest
eigenvector of defect(w), then w := lowest eigenvector of T(psi);
neither half-step can raise the value).  A violation witness is any unit
w whose defect has a negative eigenvalue; the search certifies
violations only, never the property itself.  ks_necessary_check
evaluates the two scalar necessary conditions and reports both sides of
each, with the component split abcd.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    _eigen_descent_step,
    as_coeff_tensor,
    beta_matrix,
    delta_sigma_images,
    scan_then_refine,
)
from .pauli import ID4, hermitian_eigh, hermitian_lowest_eigvals

KS_DEFAULT_SAMPLES = 50_000
KS_DEFAULT_TOL = 1e-8
KS_COND_TOL = 1e-12

# cyclic index map: PI[m], PI[m+1] pair the three conditions
PI = (1, 2, 0, 1)
# _LEVI_CIVITA[j, k] = e_j x e_k, so its entry [j, k, l] is eps_jkl
_LEVI_CIVITA = np.cross(np.eye(3)[:, None, :], np.eye(3)[None, :, :])


@dataclass(frozen=True, eq=False)
class KSWitness:
    """A unit direction whose defect operator has a negative eigenvalue."""

    w: np.ndarray
    min_eig: float


@dataclass
class KSNecessaryReport:
    """Both sides of the two necessary conditions plus the component split.

    abcd holds the squared moduli of the three components of the vector
    inside the norm condition and the right-hand side; at f = (1, 0, 0)
    these are exactly the closed-form quantities A, B, C, D with
    lhs2 = sqrt(A + B + C) and rhs2 = D.
    """

    lhs11: float
    rhs11: float
    lhs2: float
    rhs2: float
    abcd: tuple
    holds11: bool
    holds2: bool


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m*) / 2 over the last two axes; exactly hermitian in floating point."""
    return 0.5 * (m + np.conj(np.swapaxes(m, -1, -2)))


def ks_form(b) -> np.ndarray:
    """The 12x12 hermitian M with <psi, defect(w) psi> = (w x psi)* M (w x psi).

    Rows and columns are indexed (j, a) -> 4*j + a, so the 4x4 block
    M[4j:4j+4, 4k:4k+4] is M_jk and defect(w) = sum_jk conj(w_j) w_k M_jk.
    """
    ds = delta_sigma_images(as_coeff_tensor(b))
    blocks = (
        np.eye(3)[:, :, None, None] * ID4
        - np.einsum("jab,kbc->jkac", ds, ds)
        + 1j * np.einsum("jkl,lab->jkab", _LEVI_CIVITA, ds)
    )
    return _hermitian_part(blocks.transpose(0, 2, 1, 3).reshape(12, 12))


def _contract(table: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sum_jk conj(v_j) v_k T_jk for v of shape (..., n); table[n*j + k] is the block T_jk.

    The blocks of one entry and of its mirror are summed in different
    orders, so the raw product is hermitian only to a few ulps of |M|;
    that exceeds the eigen kernel's absolute guard once the tensor's
    entries reach about 5, hence the exact hermitian part.
    """
    n = v.shape[-1]
    pairs = (np.conj(v)[..., :, None] * v[..., None, :]).reshape(v.shape[:-1] + (n * n,))
    flat = pairs @ table.reshape(n * n, -1)
    return _hermitian_part(flat.reshape(v.shape[:-1] + table.shape[1:]))


def _tables(form: np.ndarray) -> tuple:
    """The form's blocks two ways: M_jk as (9, 4, 4) for defect(w), M[(., a), (., b)] as (16, 3, 3) for T(psi)."""
    f = form.reshape(3, 4, 3, 4)
    return f.transpose(0, 2, 1, 3).reshape(9, 4, 4), f.transpose(1, 3, 0, 2).reshape(16, 3, 3)


def ks_defect(b, w) -> np.ndarray:
    """Defect operator at direction w; hermitian, PSD for all unit w iff the map is KS."""
    w = np.asarray(w, dtype=complex).reshape(3)
    return _contract(_tables(ks_form(b))[0], w)


def _scan_directions(samples: int, seed: int) -> np.ndarray:
    """samples unit vectors in C^3: normalized complex Gaussians, uniform on the sphere."""
    if samples < 1:
        raise ValueError("need at least one sample")
    g = np.random.default_rng(seed).standard_normal((samples, 3, 2))
    z = g[..., 0] + 1j * g[..., 1]
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def _descent_step(w_table: np.ndarray, psi_table: np.ndarray):
    """Alternating eigen-descent on the form for a stack of w: w becomes the lowest eigenvector of T(psi)."""
    # one (1, n^2) row per start, as for a single w: a (k, n^2) matrix product can round differently
    return _eigen_descent_step(
        lambda w: _contract(w_table, w[:, None])[:, 0],
        lambda psi: hermitian_eigh(_contract(psi_table, psi[:, None])[:, 0])[1][:, :, 0],
    )


def ks_global_check(
    b,
    samples: int = KS_DEFAULT_SAMPLES,
    seed: int = 0,
    tol: float = KS_DEFAULT_TOL,
) -> Optional[KSWitness]:
    """Search unit complex directions for a defect with a negative eigenvalue.

    Scans `samples` normalized complex Gaussian directions drawn from
    np.random.default_rng(seed): all defects come from one (N, 9) @ (9, 16)
    product with the blocks of ks_form and go through the guarded
    lowest-eigenvalue kernel, exact for every defect that can rank among
    the eight lowest.  scan_then_refine then polishes the eight most negative
    candidates by exact alternating eigen-descent on the form (see the
    module docstring).  The witness has its largest-modulus component real and
    positive, and min_eig is lambda_min of the defect re-evaluated there.
    Returns the worst witness found (min eigenvalue below -tol) or None;
    absence of a witness at finite budget is not a proof.  Deterministic
    for a fixed seed.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    w_table, psi_table = _tables(ks_form(b))
    ws = _scan_directions(samples, seed)
    vals = hermitian_lowest_eigvals(_contract(w_table, ws))
    _, best_w, _ = scan_then_refine(ws, vals, _descent_step(w_table, psi_table))
    top = np.argmax(np.abs(best_w))
    best_w = best_w * np.conj(best_w[top]) / np.abs(best_w[top])
    best_val = float(hermitian_eigh(_contract(w_table, best_w))[0][0])
    if best_val < -tol:
        return KSWitness(w=best_w, min_eig=best_val)
    return None


def _auxiliaries(arr: np.ndarray, f: np.ndarray, w: np.ndarray) -> tuple:
    """(x, alpha, gamma, q) of the necessary conditions at a state f and direction w.

    x is the 3x3 array whose row m is the vector x_m; alpha the
    skew-symmetric scalar array; gamma the 3x3 array of 3-vectors; q the
    3-vector coupling beta(f) to the cross product [w, conj(w)].
    Conventions are locked by the exact-fraction calibration of the
    necessary conditions (see ks_necessary_check): x_m carries no
    conjugation of w, the skew products alpha conjugate their first
    argument, and q pairs beta(f) with the conjugated cross product.
    """
    x = np.einsum("mli,i->ml", arr, w)
    inner = np.conj(x) @ x.T  # inner[m, l] = <x_m, x_l>, conjugate-first
    alpha = inner - inner.T
    gamma = np.empty((3, 3, 3), dtype=complex)
    for m in range(3):
        for l in range(3):
            gamma[m, l] = np.cross(x[m], np.conj(x[l])) + np.cross(np.conj(x[m]), x[l])
    q = beta_matrix(arr, f) @ np.conj(np.cross(w, np.conj(w)))
    return x, alpha, gamma, q


def ks_necessary_check(b, f, w) -> KSNecessaryReport:
    """Evaluate both necessary conditions for the Kadison-Schwarz property.

    Condition 1:  ||w||^2 >= Re(i * sum_m f_m alpha_{pi(m), pi(m+1)}) + sum_m ||x_m||^2.
    Condition 2:  || q - i * sum_m ( f_m gamma_{pi(m), pi(m+1)} + [x_m, conj(x_m)] ) ||
                  <= the slack of condition 1.

    The scope of the i factor and the conjugation sides are fixed so the
    f = (1, 0, 0) specialization reproduces the known closed-form
    quantities A, B, C, D exactly; that calibration is a mandatory test.
    """
    f = np.asarray(f, dtype=float).reshape(3)
    w = np.asarray(w, dtype=complex).reshape(3)
    x, alpha, gamma, q = _auxiliaries(as_coeff_tensor(b), f, w)

    nw2 = float(np.sum(np.abs(w) ** 2))
    sum_x2 = float(np.sum(np.abs(x) ** 2))
    ialpha = 1j * sum(f[m] * alpha[PI[m], PI[m + 1]] for m in range(3))
    lhs11 = nw2
    rhs11 = float(np.real(ialpha)) + sum_x2
    holds11 = lhs11 >= rhs11 - KS_COND_TOL

    vec = q - 1j * sum(
        f[m] * gamma[PI[m], PI[m + 1]] + np.cross(x[m], np.conj(x[m]))
        for m in range(3)
    )
    lhs2 = float(np.linalg.norm(vec))
    rhs2 = nw2 - float(np.real(ialpha)) - sum_x2
    holds2 = lhs2 <= rhs2 + KS_COND_TOL

    comps = np.abs(vec) ** 2
    abcd = (float(comps[0]), float(comps[1]), float(comps[2]), rhs2)
    return KSNecessaryReport(
        lhs11=lhs11,
        rhs11=rhs11,
        lhs2=lhs2,
        rhs2=rhs2,
        abcd=abcd,
        holds11=bool(holds11),
        holds2=bool(holds2),
    )

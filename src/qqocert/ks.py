"""Kadison-Schwarz certification for coefficient-tensor operators.

The map satisfies the Kadison-Schwarz inequality iff the defect

    defect(w) = ||w||^2 * I4 - i*[w, conj(w)].Dsigma - (conj(w).Dsigma)(w.Dsigma)

is positive semidefinite for every unit w in C^3, where Dsigma collects
the three images of the Pauli matrices and v.Dsigma = sum_k v_k Dsigma_k.
The defect equals the direct evaluation of the image of (w.sigma)*(w.sigma)
minus the product of adjoint images, which is enforced as a test oracle.

A violation witness is any unit w whose defect has a negative eigenvalue;
the search certifies violations only, never the property itself.  The
scan builds every sampled direction and defect as one stacked array and
eigensolves the stack in one guarded batch; the local polish calls the
single-matrix kernel.  The evaluators for the two scalar necessary
conditions expose every intermediate quantity (x_m, alpha, gamma, q) for
inspection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import minimize
from scipy.stats import qmc

from .core import as_coeff_tensor, beta_matrix, delta_sigma_images
from .pauli import ID4, cross_product, hermitian_eigh, hermitian_eigvalsh_batch

KS_DEFAULT_SAMPLES = 50_000
KS_DEFAULT_TOL = 1e-8
KS_COND_TOL = 1e-12

# cyclic index map: PI[m], PI[m+1] pair the three conditions
PI = (1, 2, 0, 1)


@dataclass(frozen=True, eq=False)
class KSWitness:
    """A unit direction whose defect operator has a negative eigenvalue."""

    w: np.ndarray
    min_eig: float


@dataclass(eq=False)
class KSAuxiliaries:
    """Intermediate quantities of the necessary conditions.

    x is the 3x3 array whose row m is the vector x_m; alpha the
    skew-symmetric scalar array; gamma the 3x3 array of 3-vectors; q the
    3-vector coupling beta(f) to the cross product [w, conj(w)].
    """

    x: np.ndarray
    alpha: np.ndarray
    gamma: np.ndarray
    q: np.ndarray


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


def _defect_from_images(ds: np.ndarray, w: np.ndarray) -> np.ndarray:
    wd = np.einsum("k,kab->ab", w, ds)
    cw = cross_product(w, np.conj(w))
    cwd = np.einsum("k,kab->ab", cw, ds)
    n2 = float(np.sum(np.abs(w) ** 2))
    return n2 * ID4 - 1j * cwd - wd.conj().T @ wd


def ks_defect(b, w) -> np.ndarray:
    """Defect operator at direction w; hermitian, PSD for all unit w iff the map is KS."""
    arr = as_coeff_tensor(b)
    w = np.asarray(w, dtype=complex).reshape(3)
    return _defect_from_images(delta_sigma_images(arr), w)


def _w_from_params(params: np.ndarray) -> np.ndarray:
    """Unit complex 3-vector(s) from two modulus angles and two relative phases.

    params has shape (4,) or (N, 4), the result (3,) or (N, 3).  The first
    component is kept real, which fixes the irrelevant global phase of the
    defect.  The map lands on the unit sphere for any real parameter
    values, so refinement can run unconstrained.
    """
    a, bb, p2, p3 = np.asarray(params, dtype=float).T
    out = np.empty(np.shape(a) + (3,), dtype=complex)
    out[..., 0] = np.sin(a) * np.cos(bb)
    out[..., 1] = np.sin(a) * np.sin(bb) * np.exp(1j * p2)
    out[..., 2] = np.cos(a) * np.exp(1j * p3)
    return out


def _defect_batch(ds: np.ndarray, ws: np.ndarray) -> np.ndarray:
    wd = np.einsum("nk,kab->nab", ws, ds)
    cw = cross_product(ws, np.conj(ws))
    cwd = np.einsum("nk,kab->nab", cw, ds)
    n2 = np.sum(np.abs(ws) ** 2, axis=1)
    return (
        n2[:, None, None] * ID4[None, :, :]
        - 1j * cwd
        - np.conj(np.swapaxes(wd, 1, 2)) @ wd
    )


def ks_global_check(
    b,
    samples: int = KS_DEFAULT_SAMPLES,
    seed: int = 0,
    tol: float = KS_DEFAULT_TOL,
) -> Optional[KSWitness]:
    """Search unit complex directions for a defect with a negative eigenvalue.

    Low-discrepancy scan over the four free parameters (the defect is
    invariant under a global phase), then Nelder-Mead polish from the
    eight most negative candidates.  Returns the worst witness found
    (min eigenvalue below -tol) or None; absence of a witness at finite
    budget is not a proof.  Deterministic for a fixed seed.
    """
    arr = as_coeff_tensor(b)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if tol <= 0:
        raise ValueError("tol must be positive")
    ds = delta_sigma_images(arr)

    u = qmc.Halton(d=4, scramble=True, seed=seed).random(samples)
    params = np.column_stack(
        [
            u[:, 0] * (np.pi / 2.0),
            u[:, 1] * (np.pi / 2.0),
            u[:, 2] * (2.0 * np.pi),
            u[:, 3] * (2.0 * np.pi),
        ]
    )
    ws = _w_from_params(params)
    vals = hermitian_eigvalsh_batch(_defect_batch(ds, ws))[:, 0]
    order = np.argsort(vals, kind="stable")[: min(8, samples)]

    def objective(p):
        d = _defect_from_images(ds, _w_from_params(p))
        return hermitian_eigh(d)[0][0]

    best_val = float(vals[order[0]])
    best_w = ws[order[0]]
    for idx in order:
        res = minimize(
            objective,
            params[idx],
            method="Nelder-Mead",
            options={"maxiter": 200, "xatol": 1e-10, "fatol": 1e-12},
        )
        if res.fun < best_val:
            best_val = float(res.fun)
            best_w = _w_from_params(res.x)
    if best_val < -tol:
        return KSWitness(w=best_w, min_eig=best_val)
    return None


def ks_auxiliaries(b, f, w) -> KSAuxiliaries:
    """The vectors x_m and the derived alpha, gamma, q at a state f and direction w.

    Conventions are locked by the exact-fraction calibration of the
    necessary conditions (see ks_necessary_check): x_m carries no
    conjugation of w, the skew products alpha conjugate their first
    argument, and q pairs beta(f) with the conjugated cross product.
    """
    arr = as_coeff_tensor(b)
    f = np.asarray(f, dtype=float).reshape(3)
    w = np.asarray(w, dtype=complex).reshape(3)
    x = np.einsum("mli,i->ml", arr, w)
    inner = np.conj(x) @ x.T  # inner[m, l] = <x_m, x_l>, conjugate-first
    alpha = inner - inner.T
    gamma = np.empty((3, 3, 3), dtype=complex)
    for m in range(3):
        for l in range(3):
            gamma[m, l] = cross_product(x[m], np.conj(x[l])) + cross_product(
                np.conj(x[m]), x[l]
            )
    q = beta_matrix(arr, f) @ np.conj(cross_product(w, np.conj(w)))
    return KSAuxiliaries(x=x, alpha=alpha, gamma=gamma, q=q)


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
    aux = ks_auxiliaries(b, f, w)

    nw2 = float(np.sum(np.abs(w) ** 2))
    sum_x2 = float(np.sum(np.abs(aux.x) ** 2))
    ialpha = 1j * sum(f[m] * aux.alpha[PI[m], PI[m + 1]] for m in range(3))
    lhs11 = nw2
    rhs11 = float(np.real(ialpha)) + sum_x2
    holds11 = lhs11 >= rhs11 - KS_COND_TOL

    vec = aux.q - 1j * sum(
        f[m] * aux.gamma[PI[m], PI[m + 1]] + cross_product(aux.x[m], np.conj(aux.x[m]))
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

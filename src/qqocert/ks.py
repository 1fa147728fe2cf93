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
spheres with core.product_form_minimum, the one search every sampled
certificate runs: its scan hands the guarded lowest-eigenvalue kernel the
real coordinates of conj(w) w^T and nine hermitian combinations of the
M_jk, the kernel builds and solves only the defects that can rank among
the best, and its own loop, the package's only refine, polishes the best
candidates (psi := lowest eigenvector of defect(w), then w := lowest
eigenvector of T(psi); neither half-step can raise it).
Every defect and T(psi) is built by pauli._members, as the kernel builds
the scanned defects, so ks_defect at a scanned direction has bitwise its
scan value under eigvalsh.  A violation witness is any unit w whose
defect has a negative eigenvalue.  M_jk = Delta(sigma_j sigma_k) -
Delta(sigma_j) Delta(sigma_k), so M is PSD for every CP map (Schwarz's
inequality in a Stinespring dilation), and a PSD M proves the property,
<psi, defect(w) psi> >= lambda_min(M) at unit w and psi: ks_global_check
then runs no scan.  The search itself certifies violations only.

ks_necessary_check reads the two scalar necessary conditions off the
same defect: with c the Pauli coordinates of E(w) = ||w||^2 I4 - defect(w)
in the basis P_a x P_c, P = (1, sigma_1, sigma_2, sigma_3), condition 1
is the expectation of defect(w) in rho_f x 1/2 and condition 2 bounds the
vector c_0k + i sum_m f_m c_mk by it.  The report gives both sides of
each, with the component split abcd.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import core, sampling
from .pauli import ID2, ID4, SIGMA, _hermitian_part, _members, hermitian_eigvalsh

KS_DEFAULT_SAMPLES = 50_000
KS_DEFAULT_TOL = 1e-8
KS_COND_TOL = 1e-12

# P_a x P_c for P = (1, sigma_1, sigma_2, sigma_3), shape (4, 4, 4, 4)
_PAULI = np.concatenate([ID2[None], SIGMA])
_PAULI_PAIRS = np.array([[np.kron(p, q) for q in _PAULI] for p in _PAULI])
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


def ks_form(b) -> np.ndarray:
    """The 12x12 hermitian M with <psi, defect(w) psi> = (w x psi)* M (w x psi).

    Rows and columns are indexed (j, a) -> 4*j + a, so the 4x4 block
    M[4j:4j+4, 4k:4k+4] is M_jk and defect(w) = sum_jk conj(w_j) w_k M_jk.
    """
    ds = core.delta_sigma_images(b)
    blocks = (
        np.eye(3)[:, :, None, None] * ID4
        - np.einsum("jab,kbc->jkac", ds, ds)
        + 1j * np.einsum("jkl,lab->jkab", _LEVI_CIVITA, ds)
    )
    return _hermitian_part(blocks.transpose(0, 2, 1, 3).reshape(12, 12))


def ks_defect(b, w) -> np.ndarray:
    """Defect operator at direction w; hermitian, PSD for all unit w iff the map is KS."""
    w = np.asarray(w, dtype=complex).reshape(1, 3)
    return _members(core._pair_coordinates(w), core._side_tables(ks_form(b), 3, 4, True)[0])[0]


def ks_global_check(
    b,
    samples: int = KS_DEFAULT_SAMPLES,
    seed: int = core.DEFAULT_SEED,
    tol: float = KS_DEFAULT_TOL,
) -> Optional[KSWitness]:
    """Search unit complex directions for a defect with a negative eigenvalue, unless M = ks_form(b) proves none.

    samples and seed pass the sampler's checks first; then the kernel's eigenvalues-only entry
    (hermitian_eigvalsh) gives lambda_min(M).
    For unit w, lambda_min(defect(w)) >= ||w||^2 lambda_min(M) for the float M the defects are built
    from, and that eigensolve, a defect's build (pauli._members) and eigvalsh, and ||w||^2 - 1 err by
    a few hundred u*(||M||_F + 1) in all, u = 2^-53.  So if lambda_min(M) - 1e-12*(||M||_F + 1) >= -tol
    (about 4500u of slack), no value the search could reach is below -tol, and None returns without a
    scan.
    Otherwise runs core.product_form_minimum on M at `samples` unit directions in C^3 from
    sampling.sphere_points (normalized complex Gaussians): the guarded lowest-eigenvalue kernel builds
    and solves exactly only the defects that can rank among the eight lowest, and the eight most
    negative are polished by exact alternating eigen-descent on the form (see the module docstring).
    The witness has its largest-modulus component real and positive, and min_eig is lambda_min of the
    defect re-evaluated there.  Returns the worst witness found (min eigenvalue below -tol) or None;
    after a scan, absence of a witness at finite budget is not a proof.  Deterministic for a fixed seed.
    """
    if not 0 < tol < np.inf:
        raise ValueError("tol must be positive and finite")
    form = ks_form(b)
    sampling._draw_key(samples, seed, 3, True)
    if hermitian_eigvalsh(form)[0] - 1e-12 * (np.linalg.norm(form) + 1.0) >= -tol:
        return None
    _, best_w, w_table = core.product_form_minimum(form, 3, 4, *core._scan(samples, seed, 3, True))
    top = np.argmax(np.abs(best_w))
    best_w = best_w * np.conj(best_w[top]) / np.abs(best_w[top])
    best_val = float(core._lowest(best_w[None], w_table)[0][0])
    if best_val < -tol:
        return KSWitness(w=best_w, min_eig=best_val)
    return None


def ks_necessary_check(b, f, w) -> KSNecessaryReport:
    """Evaluate both necessary conditions for the Kadison-Schwarz property.

    Both conditions read the Pauli coordinates c_ac = tr[(P_a x P_c) E]/4,
    P = (1, sigma_1, sigma_2, sigma_3), of the 4x4 hermitian matrix

        E(w) = ||w||^2 I4 - defect(w) = i (w x conj(w)).Dsigma + (w.Dsigma)^* (w.Dsigma).

    Condition 1:  ||w||^2 >= c_00 + sum_m f_m c_m0.  Its slack rhs2 is
                  tr[(rho_f x 1/2) defect(w)] with rho_f = (1 + f.sigma)/2.
    Condition 2:  |v| <= rhs2, with v_k = c_0k + i sum_m f_m c_mk.

    These are the paper's conditions, stated there through the vectors
    (x_m)_l = sum_i b[m][l][i] w_i, their skew products alpha and cross
    products gamma, and beta(f) (w x conj(w)); tests/oracles.py keeps that
    route as the reference.  At f = (1, 0, 0) the report reproduces the
    closed-form quantities A, B, C, D exactly; that calibration is a
    mandatory test.
    """
    f = np.asarray(f, dtype=float).reshape(3)
    w = np.asarray(w, dtype=complex).reshape(3)
    if not (np.all(np.isfinite(f)) and np.all(np.isfinite(w))):
        raise ValueError("f and w must be finite")
    ds = core.delta_sigma_images(b)
    wd = np.einsum("k,kab->ab", w, ds)
    # E(w) itself, not ||w||^2 I4 - ks_defect(b, w), whose rounding leaves rhs11 off 0.0 at the zero tensor
    e = np.einsum("k,kab->ab", 1j * np.cross(w, np.conj(w)), ds) + np.conj(wd.T) @ wd
    c = np.real(np.einsum("acij,ji->ac", _PAULI_PAIRS, e)) / 4

    lhs11 = float(np.sum(np.abs(w) ** 2))
    rhs11 = float(c[0, 0] + f @ c[1:, 0])
    rhs2 = lhs11 - rhs11
    v = c[0, 1:] + 1j * (f @ c[1:, 1:])
    lhs2 = float(np.linalg.norm(v))
    comps = np.abs(v) ** 2
    return KSNecessaryReport(
        lhs11=lhs11,
        rhs11=rhs11,
        lhs2=lhs2,
        rhs2=rhs2,
        abcd=(float(comps[0]), float(comps[1]), float(comps[2]), rhs2),
        holds11=bool(lhs11 >= rhs11 - KS_COND_TOL),
        holds2=bool(lhs2 <= rhs2 + KS_COND_TOL),
    )

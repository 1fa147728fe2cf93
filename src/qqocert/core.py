"""Coefficient-tensor representation of trace-invariant quadratic operators.

A unital map Delta from the qubit algebra into its two-fold tensor
product that leaves the normalized trace invariant is determined by 27
real numbers b[m][l][k]:

    Delta(w0*1 + w.sigma) = w0*(1 x 1) + sum_{m,l} (sum_i b[m][l][i] w_i) sigma_m x sigma_l

This module evaluates that map, its dual action on product states and the
3x3 matrix field beta(f), and builds every certificate on shared pieces:
one search, product_form_minimum, that every sampled certificate runs on
its own hermitian form (KS on ks_form, the tensor norm on -G, positivity
on the Choi matrix) over one scan, _scan: the points of the one sampler,
sampling.sphere_points, and their pair coordinates, made together once
per process and held read-only under the draw's key; its one
scan-then-refine loop (a batch scan, then an exact monotone step repeated
from the eight best points, all eight advanced together, every matrix
built by pauli._members); and one complete-positivity check on the Choi
matrix, built for all four matrix units at once.  Every tensor enters
through as_coeff_tensor, which refuses entries above MAX_COEFF in size.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from . import sampling
from .pauli import (
    ID4,
    SIGMA,
    POSITIVITY_EIG_TOL,
    PauliCoeffs,
    _members,
    hermitian_eigh,
    hermitian_lowest_eigvals,
    lowest_indices,
)

DEFAULT_SAMPLES = 20_000
DEFAULT_SEED = 0
# scan_then_refine: relative stop, round cap (it refines REFINE_STARTS starts)
REFINE_RTOL = 1e-15
REFINE_CAP = 1000
# bound on the tensor entries: every quantity formed is at most quartic in them, MAX_COEFF**4 = 1e256
MAX_COEFF = 1e64
CACHE_BYTES = 32 << 20
# draw key -> (points, pair coordinates), least recently used first; bytes held, 1 KiB extra an array
_cache, _held, _lock = {}, 0, threading.Lock()

# sigma_m x sigma_l for all nine index pairs, shape (3, 3, 4, 4)
_SIGMA_PAIRS = np.array(
    [[np.kron(SIGMA[m], SIGMA[l]) for l in range(3)] for m in range(3)]
)
# Pauli coefficients of the matrix units, w0 = tr(e_ij)/2 and w[i, j, k] = tr(sigma_k e_ij)/2,
# read off SIGMA: a matrix product here would make every import pay for BLAS buffers
_UNIT_W0 = np.eye(2, dtype=complex) / 2
_UNIT_W = SIGMA.transpose(2, 1, 0) / 2
# diagonal and upper-triangle indices for v, w, f, p and psi; np.triu_indices takes ~10 us a call
_PAIRS = {n: (np.arange(n), *np.triu_indices(n, 1)) for n in (2, 3, 4)}


def as_coeff_tensor(b) -> np.ndarray:
    """Validate and return a coefficient tensor as a (3, 3, 3) float array, entries at most MAX_COEFF in size."""
    arr = np.asarray(b, dtype=float)
    if arr.shape != (3, 3, 3):
        raise ValueError(f"coefficient tensor must have shape (3, 3, 3), got {arr.shape}")
    # written as "not <=" so that NaN fails the test
    if not np.all(np.abs(arr) <= MAX_COEFF):
        raise ValueError(f"coefficient tensor entries must be finite and at most {MAX_COEFF:g} in absolute value")
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


def _pair_coordinates(v: np.ndarray) -> np.ndarray:
    """|v_j|^2 and, over j < l, Re and (complex v only) Im of conj(v_j) v_l, one row per point."""
    _, j, l = _PAIRS[v.shape[1]]
    z = np.conj(v[:, j]) * v[:, l]
    return np.column_stack((np.real(np.conj(v) * v), z.real, z.imag)[: 3 if np.iscomplexobj(v) else 2])


def _pair_table(blocks: np.ndarray, complex_: bool) -> np.ndarray:
    """The table _pair_coordinates weigh: blocks[j, j], blocks[j, l] + blocks[l, j], i*(blocks[j, l] - blocks[l, j]).

    The last only if complex_; the kernel and pauli._members read it.
    """
    d, j, l = _PAIRS[len(blocks)]
    table = (blocks[d, d], blocks[j, l] + blocks[l, j], 1j * (blocks[j, l] - blocks[l, j]))
    return np.concatenate(table[: 3 if complex_ else 2])


def _sesquilinear_family(v: np.ndarray, blocks: np.ndarray) -> tuple:
    """(coeffs, table) whose member k is sum_jl conj(v[k, j]) v[k, l] blocks[j, l], blocks[l, j] = blocks[j, l]*."""
    return _pair_coordinates(v), _pair_table(blocks, np.iscomplexobj(v))


def _scan(samples: int, seed: int, n: int, complex_: bool) -> tuple:
    """(points, _pair_coordinates(points)) of sampling.sphere_points(samples, seed, n, complex_), read-only.

    Drawn once per process, outside the lock, and held under sampling._draw_key as the newest entry;
    past CACHE_BYTES the least recently used go, to be drawn again, bitwise alike.
    """
    global _held
    key = sampling._draw_key(samples, seed, n, complex_)
    if (entry := _cache.get(key)) is None:
        points = sampling.sphere_points(*key)
        entry = (points, _pair_coordinates(points))
        for a in entry:
            a.flags.writeable = False
    with _lock:
        _held += sum(a.nbytes + 1024 for a in entry) - sum(a.nbytes + 1024 for a in _cache.pop(key, ()))
        _cache[key] = entry
        while _held > CACHE_BYTES:
            _held -= sum(a.nbytes + 1024 for a in _cache.pop(next(iter(_cache))))
    return entry


def _product_blocks(form: np.ndarray, nx: int, ny: int) -> tuple:
    """A hermitian form M on x (x) y, indexed (i, a) -> ny*i + a, as blocks in x and in y.

    x_blocks[i, j] = M[(i, .), (j, .)] gives M(x) = sum_ij conj(x_i) x_j x_blocks[i, j] on y, and
    y_blocks[a, b] = M[(., a), (., b)] gives M(y) on x, so <y, M(x) y> = <x, M(y) x>.
    """
    f = form.reshape(nx, ny, nx, ny)
    return f.transpose(0, 2, 1, 3), f.transpose(1, 3, 0, 2)


def _lowest(v: np.ndarray, blocks: np.ndarray) -> tuple:
    """lambda_min of M(v) = sum_jk conj(v_j) v_k blocks[j, k] and its eigenvector, for a stack of v.

    Built as the scans build theirs, by pauli._members, so a scanned point gets its scan value.
    """
    vals, vecs = hermitian_eigh(_members(*_sesquilinear_family(v, blocks)))
    return vals[:, 0], vecs[:, :, 0]


def scan_then_refine(points, values, step) -> tuple:
    """Minimize from the best scanned points by repeating an exact monotone step (product_form_minimum's refine).

    values[i] is the scan value of points[i], exact at least where it
    ranks among the lowest; preservation maximizes by searching -G.  The
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


def product_form_minimum(form: np.ndarray, nx: int, ny: int, points: np.ndarray, coords: np.ndarray) -> tuple:
    """The least value of a hermitian form M on unit product vectors x (x) y, x in C^nx (or R^nx), y in C^ny.

    The one search every sampled certificate runs: the kernel scans lambda_min(M(x)) at the given
    points x from their _pair_coordinates, coords (a _scan gives both), then scan_then_refine
    polishes the best by alternating eigen-descent, with y (the carry) the lowest eigenvector of
    M(x): a round sets x to that of M(y), then y to that of M(x), so lambda_min(M(x)) never rises.
    Returns (value, x, x_blocks), x_blocks for reading M(x) off.
    """
    x_blocks, y_blocks = _product_blocks(form, nx, ny)
    vals = hermitian_lowest_eigvals(coords, _pair_table(x_blocks, np.iscomplexobj(points)))

    def step(x, y):
        if y is None:
            y = _lowest(x, x_blocks)[1]
        x = _lowest(y, y_blocks)[1]
        val, y = _lowest(x, x_blocks)
        return x, y, val

    value, x, _ = scan_then_refine(points, vals, step)
    return value, x, x_blocks


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
    """Injective norm of the dual action: the max of |b(f, p, .)| over unit f and p.

    This is the package's one tensor-norm routine, a product-form search
    like the KS one: |b(f, p, .)|^2 = (f x p)^T G (f x p) with
    G[(i, j), (l, m)] = sum_k b[i][j][k] b[l][m][k], so the norm squared
    is the largest eigenvalue of G(f) = N(f)^T N(f), N(f)[k, j] =
    sum_i b[i][j][k] f_i.  The kernel scans -G(f) at `samples` unit f in
    R^3 from sampling.sphere_points, building only the members that can
    rank; product_form_minimum then refines the best on -G (p := top
    eigenvector of G(f), f := that of G(p)), and max_norm and witness_p
    are read off G at the final f.  The certificate passes iff max_norm
    stays within 1 + 1e-9.
    """
    arr = as_coeff_tensor(b)
    gram = np.einsum("ijk,lmk->ijlm", arr, arr).reshape(9, 9)
    _, f, f_blocks = product_form_minimum(-gram, 3, 3, *_scan(samples, seed, 3, False))
    lowest, p = _lowest(f[None], f_blocks)
    max_norm = np.sqrt(max(0.0, -lowest[0]))  # 0.0 first: max keeps it against -0.0
    return PreservationReport(
        max_norm=float(max_norm),
        witness_f=np.array(f),
        witness_p=p[0],
        passes=bool(max_norm <= 1.0 + 1e-9),
    )


@dataclass
class PositivityReport:
    """Outcome of a positivity scan over extreme points of the state space."""

    is_positive: bool
    worst_w: np.ndarray
    margin: float


def _bloch_vector(v: np.ndarray) -> np.ndarray:
    """The Bloch vector w of u = conj(v) for unit v in C^2 (last axis): w_k = <u, sigma_k u>."""
    z = v[..., 0] * np.conj(v[..., 1])
    return np.stack([2.0 * z.real, 2.0 * z.imag, abs(v[..., 0]) ** 2 - abs(v[..., 1]) ** 2], axis=-1)


def sampled_positivity_check(
    b, samples: int = DEFAULT_SAMPLES, seed: int = DEFAULT_SEED
) -> PositivityReport:
    """Positivity on rank-one projectors |u><u| (enough by convexity), as the Choi matrix's product-form minimum.

    2*Delta(|u><u|) = 1 + w.Dsigma, w the Bloch vector of u, is sum_ij conj(v_i) v_j C_ij at v = conj(u),
    C the Choi matrix (Jamiolkowski), so the margin is the minimum of <v (x) psi, C v (x) psi> over unit v
    and psi, never below lambda_min(C).  product_form_minimum scans C(v) at `samples` unit v in C^2 from
    sampling.sphere_points and refines the worst, as the KS search does on ks_form, and worst_w is read
    off the final v.
    """
    margin, v, _ = product_form_minimum(choi_matrix_from_tensor(b), 2, 4, *_scan(samples, seed, 2, True))
    return PositivityReport(
        is_positive=bool(margin >= -POSITIVITY_EIG_TOL),
        worst_w=_bloch_vector(v),
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

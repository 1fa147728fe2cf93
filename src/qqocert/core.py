"""Coefficient-tensor representation of trace-invariant quadratic operators.

A unital map Delta from the qubit algebra into its two-fold tensor
product that leaves the normalized trace invariant is determined by 27
real numbers b[m][l][k]:

    Delta(w0*1 + w.sigma) = w0*(1 x 1) + sum_{m,l} (sum_i b[m][l][i] w_i) sigma_m x sigma_l

This module evaluates that map on the Pauli matrices (delta_sigma_images)
and on the matrix units (the Choi matrix), and builds every certificate
on shared pieces: one search, product_form_minimum, that every sampled
certificate runs on its own hermitian form (KS on ks_form, the tensor
norm of the dual action on -G, positivity on the Choi matrix) over one
scan, _scan: the points of the one sampler, sampling.sphere_points, and
their pair coordinates, made together once per process and held
read-only under the draw's key; its loop, the one scan-then-refine (a
batch scan whose kernel hands over the eight best points, then
alternating eigen-descent from them, all eight advanced together, on
side tables built once per search, every matrix built by pauli._members); and
one complete-positivity check on the Choi matrix, built for all four
matrix units at once.  Every tensor enters through as_coeff_tensor,
which refuses entries above MAX_COEFF in size.  The term-by-term
definitions of the map, its dual action and beta(f) are test oracles
(tests/oracles.py), not package code.
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
    _members,
    hermitian_eigh,
    hermitian_lowest_eigvals,
)

DEFAULT_SAMPLES = 20_000
DEFAULT_SEED = 0
# product_form_minimum's refine: relative stop, round cap (it refines the kernel's REFINE_STARTS starts)
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


def _pair_coordinates(v: np.ndarray) -> np.ndarray:
    """|v_j|^2 and, over j < l, Re and (complex v only) Im of conj(v_j) v_l, one row per point."""
    _, j, l = _PAIRS[v.shape[1]]
    z = np.conj(v[:, j]) * v[:, l]
    return np.column_stack((np.real(np.conj(v) * v), z.real, z.imag)[: 3 if np.iscomplexobj(v) else 2])


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


def _side_tables(form: np.ndarray, nx: int, ny: int, complex_: bool) -> tuple:
    """(x_table, y_table) of a hermitian form M on x (x) y, indexed (i, a) -> ny*i + a; x, y complex iff complex_.

    With blocks[i, j] = M[(i, .), (j, .)], M(x) = sum_ij conj(x_i) x_j blocks[i, j] on y is the member
    _pair_coordinates(x) weigh on x_table: blocks[j, j], blocks[j, l] + blocks[l, j] and (complex_ only)
    i*(blocks[j, l] - blocks[l, j]).  y_table is built alike from M[(., a), (., b)], so
    <y, M(x) y> = <x, M(y) x>.  The kernel reads x_table, _lowest both.
    """
    f = form.reshape(nx, ny, nx, ny)
    tables = []
    for blocks in (f.transpose(0, 2, 1, 3), f.transpose(1, 3, 0, 2)):
        d, j, l = _PAIRS[len(blocks)]
        parts = (blocks[d, d], blocks[j, l] + blocks[l, j], 1j * (blocks[j, l] - blocks[l, j]))
        tables.append(np.concatenate(parts[: 3 if complex_ else 2]))
    return tuple(tables)


def _lowest(v: np.ndarray, table: np.ndarray) -> tuple:
    """lambda_min of the member _pair_coordinates(v) weigh on a side table, and its eigenvector, for a stack of v.

    Built as the scans build theirs, by pauli._members, so a scanned point gets its scan value.
    """
    vals, vecs = hermitian_eigh(_members(_pair_coordinates(v), table))
    return vals[:, 0], vecs[:, :, 0]


def product_form_minimum(form: np.ndarray, nx: int, ny: int, points: np.ndarray, coords: np.ndarray) -> tuple:
    """The least value of a hermitian form M on unit product vectors x (x) y, x in C^nx (or R^nx), y in C^ny.

    The one search every sampled certificate runs (preservation maximizes by searching -G), and the
    package's one refine loop.  The kernel scans lambda_min(M(x)) at the given points x from their
    _pair_coordinates, coords (a _scan gives both), on the x-side table and hands over its starts,
    lowest first, ties in scan order, with their exact values.  Alternating eigen-descent then polishes
    all the starts together: y is the lowest eigenvector of M(x), and a round sets x to that of M(y),
    then y to that of M(x), so lambda_min(M(x)) never rises; each half-step is one stacked eigensolve
    over the starts still running.  A round that lowers a start's value is kept; one that lowers it by
    at most REFINE_RTOL relative, or would raise it (and is discarded), ends that start; REFINE_CAP
    rounds end all.  Both side tables are built once, by _side_tables.  Returns (value, x, x_table) of
    the best start, ties going to the earlier one, x_table for reading M(x) off with _lowest.  No
    points raise ValueError; the certificates refuse a budget below one before they scan.
    """
    x_table, y_table = _side_tables(form, nx, ny, np.iscomplexobj(points))
    starts, val = hermitian_lowest_eigvals(coords, x_table)
    x = points[starts]
    live, y = np.arange(len(val)), _lowest(x, x_table)[1]
    for _ in range(REFINE_CAP):
        new_x = _lowest(y, y_table)[1]
        new, y = _lowest(new_x, x_table)
        fall = val[live] - new
        fell = fall > 0
        x[live[fell]], val[live[fell]] = new_x[fell], new[fell]
        going = fall > REFINE_RTOL * np.abs(val[live])
        live, y = live[going], y[going]
        if live.size == 0:
            break
    best = int(np.argmin(val))
    return float(val[best]), x[best], x_table


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
    _, f, f_table = product_form_minimum(-gram, 3, 3, *_scan(samples, seed, 3, False))
    lowest, p = _lowest(f[None], f_table)
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

"""Coefficient-tensor representation of trace-invariant quadratic operators.

A unital map Delta from the qubit algebra into its two-fold tensor
product that leaves the normalized trace invariant is determined by 27
real numbers b[m][l][k]:

    Delta(w0*1 + w.sigma) = w0*(1 x 1) + sum_{m,l} (sum_i b[m][l][i] w_i) sigma_m x sigma_l

This module evaluates that map on the Pauli matrices (delta_sigma_images)
and on the matrix units (the Choi matrix), and builds every certificate
on shared pieces: one refine, product_form_minimum, that every
certificate but complete positivity runs on its own hermitian form (KS
on ks_form, the tensor norm of the dual action on -G, positivity on the
Choi matrix) from the form's side tables, built once per certificate,
and the eight lowest of its caller's points, all eight advanced together
by alternating eigen-descent, every matrix built by pauli._members; one
adaptive icosahedral mesh of S^2, _mesh, on which positivity and
preservation, concave and homogeneous of degree 1 there, are decided
from vertex values and a per-face bound (_face_bounds), every vertex
solve handed to the refine; and one complete-positivity check
on the Choi matrix, built for all four matrix units at once.  Only the
KS search samples; ks._scan holds its draw.  Every tensor enters
through as_coeff_tensor, which refuses entries above MAX_COEFF in size.
The term-by-term definitions of the map, its dual action and beta(f)
are test oracles (tests/oracles.py), not package code.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .pauli import (
    ID4,
    SIGMA,
    POSITIVITY_EIG_TOL,
    _members,
    hermitian_eigh,
    hermitian_eigvalsh,
    lowest_indices,
)

DEFAULT_SAMPLES = 20_000
# product_form_minimum's refine: relative stop, round cap (it refines REFINE_STARTS starts)
REFINE_RTOL = 1e-15
REFINE_CAP = 1000
# _mesh: most vertices solved, relative lowering of each face's plane distance
MESH_CAP = 2000
MESH_RTOL = 1e-12
# state preservation passes while the tensor norm stays within 1 + NORM_TOL
NORM_TOL = 1e-9
# bound on the tensor entries: every quantity formed is at most quartic in them, MAX_COEFF**4 = 1e256
MAX_COEFF = 1e64

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


def _side_tables(form: np.ndarray, nx: int) -> tuple:
    """(x_table, y_table) of a hermitian form M on x (x) y, indexed (i, a) -> ny*i + a, ny = len(M) // nx.

    With blocks[i, j] = M[(i, .), (j, .)], M(x) = sum_ij conj(x_i) x_j blocks[i, j] on y is the member
    _pair_coordinates(x) weigh on x_table: blocks[j, j], blocks[j, l] + blocks[l, j] and, where M is
    complex (x and y are then too), i*(blocks[j, l] - blocks[l, j]).  y_table is built alike from
    M[(., a), (., b)], so <y, M(x) y> = <x, M(y) x>.  The kernel and the mesh read x_table, _lowest both.
    """
    f = form.reshape(nx, len(form) // nx, nx, len(form) // nx)
    tables = []
    for blocks in (f.transpose(0, 2, 1, 3), f.transpose(1, 3, 0, 2)):
        d, j, l = _PAIRS[len(blocks)]
        parts = (blocks[d, d], blocks[j, l] + blocks[l, j], 1j * (blocks[j, l] - blocks[l, j]))
        tables.append(np.concatenate(parts[: 3 if np.iscomplexobj(form) else 2]))
    return tuple(tables)


def _lowest(v: np.ndarray, table: np.ndarray) -> tuple:
    """lambda_min of the member _pair_coordinates(v) weigh on a side table, and its eigenvector, for a stack of v.

    Built as the kernel and the mesh build theirs, by pauli._members, so a point they solved gets their value.
    """
    vals, vecs = hermitian_eigh(_members(_pair_coordinates(v), table))
    return vals[:, 0], vecs[:, :, 0]


def product_form_minimum(tables: tuple, x: np.ndarray, val: np.ndarray) -> tuple:
    """The least value of a hermitian form M on unit product vectors x (x) y, x in C^nx (or R^nx), y in C^ny.

    The package's one refine loop, which every certificate but complete positivity runs (preservation
    maximizes by searching -G), on M's side tables (x_table, y_table) from _side_tables, built once by
    the caller, from the lowest_indices(val) of candidates x, val their lambda_min(M(x)) as pauli._members
    and eigvalsh give it (the KS kernel's starts, every mesh vertex), ties in the order handed.  Alternating
    eigen-descent polishes all the starts together: y is the lowest eigenvector of M(x), and a round
    sets x to that of M(y), then y to that of M(x), so lambda_min(M(x)) never rises; each half-step is
    one stacked eigensolve over the starts still running.  A round that lowers a start's value is
    kept; one that lowers it by at most REFINE_RTOL relative, or would raise it (and is discarded),
    ends that start; REFINE_CAP rounds end all.  Returns (value, x) of the best start, ties going to
    the earlier one; the arrays handed in are not written.  No candidates raise ValueError.
    """
    x_table, y_table = tables
    starts = lowest_indices(val)
    x, val = np.asarray(x)[starts], np.asarray(val, dtype=float)[starts]
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
    return float(val[best]), x[best]


def _icosahedron() -> tuple:
    """The 12 unit vertices of the icosahedron, (0, +-1, +-phi)/|.| and their cyclic shifts, read-only, and its 20 faces."""
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    base = np.array([(0.0, s, t * phi) for s in (1.0, -1.0) for t in (1.0, -1.0)]) / np.sqrt(1.0 + phi * phi)
    v = np.concatenate([np.roll(base, k, axis=1) for k in range(3)])
    v.flags.writeable = False
    # neighbours lie 1.05 apart, the next nearest 1.70
    near = ((v[:, None] - v[None]) ** 2).sum(axis=2) < 2.0
    triples = np.array(list(itertools.combinations(range(12), 3)))
    i, j, k = triples.T
    return v, triples[near[i, j] & near[j, k] & near[i, k]]


_ICOSAHEDRON = _icosahedron()


def _face_bounds(points: np.ndarray, faces: np.ndarray, lows: np.ndarray) -> np.ndarray:
    """min(mu, mu/h) for each face: a lower bound of a concave, degree-1 homogeneous g on its spherical triangle.

    mu is the least of the vertices' lows, lower bounds of g there, and h the distance from 0 to the
    plane of the flat face, taken MESH_RTOL relative lower: its rounding stays under 20u relative
    while the face's angles stay near the icosahedron's 60 degrees (splits keep them above 50).  A point
    of the spherical triangle is x/|x|, x = sum a_i v_i on the flat face (a in the simplex), h <= |x| <= 1,
    and g(x/|x|) = g(x)/|x| >= mu/|x| by concavity, which is at least mu/h for mu < 0 and mu for mu >= 0.
    """
    a, b, c = points[faces].transpose(1, 0, 2)
    normal = np.cross(b - a, c - a)
    h = np.abs(np.einsum("ij,ij->i", normal, a)) / np.linalg.norm(normal, axis=1) * (1.0 - MESH_RTOL)
    mu = np.min(lows[faces], axis=1)
    return np.minimum(mu, mu / h)


def _mesh(value, floor: float) -> tuple:
    """Decide whether a concave, degree-1 homogeneous g on R^3 stays at or above floor on the unit sphere S^2.

    value(w) gives, for a stack of unit w, the computed g(w), lower bounds of the exact g(w) and the raw
    lambda_min g was read off.  The mesh starts from the icosahedron and splits every face whose
    _face_bounds lies below floor into four, at normalized edge midpoints that neighbouring faces
    share.  A midpoint lies on its edge's great circle, so the spherical faces tile S^2 even where a
    neighbour stays whole (to rounding, which a vertex's lows cover).  It stops at "violated" when a
    vertex's computed value lies below floor, at "certified" when every face's bound clears it, and
    at "undecided" when the next split would take more than MESH_CAP vertices.  Returns (outcome,
    points, raw), every vertex solved, the icosahedron's first, and their raw lambda_min.
    """
    points, faces = _ICOSAHEDRON
    vals, lows, raw = value(points)
    midpoints = {}
    while np.min(vals) >= floor:
        faces = faces[_face_bounds(points, faces, lows) < floor]
        if len(faces) == 0:
            return "certified", points, raw
        # each face's edges ij, jk, ki, as sorted vertex pairs
        sides = np.sort(faces[:, [[0, 1], [1, 2], [2, 0]]], axis=2).tolist()
        edges = sorted({tuple(e) for face in sides for e in face} - midpoints.keys())
        if len(points) + len(edges) > MESH_CAP:
            return "undecided", points, raw
        midpoints.update((e, len(points) + k) for k, e in enumerate(edges))
        new = points[edges].sum(axis=1)
        new /= np.linalg.norm(new, axis=1, keepdims=True)
        vals, lows, raw = (np.concatenate(pair) for pair in zip((vals, lows, raw), value(new)))
        points = np.concatenate([points, new])
        (i, j, k), (ij, jk, ki) = faces.T, np.array([[midpoints[tuple(e)] for e in face] for face in sides]).T
        faces = np.stack([i, ij, ki, j, jk, ij, k, ki, jk, ij, jk, ki], axis=1).reshape(-1, 3)
    return "violated", points, raw


def _vertex_slack(m: np.ndarray) -> float:
    """How far below the exact lambda_min a computed one may lie: 1e-12*(||m||_F + 1), m a side table or a form.

    A unit point's pair coordinates have norm at most 1, so its member built by pauli._members is
    off by at most (q + 2)u*||table||_F (q <= 4 or 6 table terms, then the hermitian part), and
    LAPACK's eigvalsh by p(n)u times the member's norm, p(n) a modest function of n (LAPACK Users'
    Guide, section 4.7), allowed 10n^2 = 160 for the 3x3 and 4x4 members; the spinor of a positivity
    vertex moves its Bloch vector by under 10u.  That is under 190u*(||table||_F + 1) in all, u = 2^-53,
    and 1e-12 is about 4,500u.  ks_global_check's PSD skip takes it on M = ks_form(b), lambda_min(defect(w))
    >= ||w||^2 lambda_min(M) at unit w: eigvalsh of the 12x12 M (1,440u), a defect's build (q = 9) and
    eigvalsh on M's side table, ||table||_F <= sqrt(2)*||M||_F, and ||w||^2 - 1 stay under 1,800u*(||M||_F + 1).
    """
    return 1e-12 * (np.linalg.norm(m) + 1.0)


def _vertex_eigvals(x: np.ndarray, table: np.ndarray) -> np.ndarray:
    """lambda_min of the member _pair_coordinates(x) weigh on a side table, for a stack of x, as the kernel solves it."""
    return hermitian_eigvalsh(_members(_pair_coordinates(x), table))[:, 0]


@dataclass
class PreservationReport:
    """Outcome of the product-state preservation certificate."""

    max_norm: float
    witness_f: np.ndarray
    witness_p: np.ndarray
    passes: bool


def state_preservation_check(b) -> PreservationReport:
    """Injective norm of the dual action: the max of |b(f, p, .)| over unit f and p.

    This is the package's one tensor-norm routine, a product-form search
    like the KS one: |b(f, p, .)|^2 = (f x p)^T G (f x p) with
    G[(i, j), (l, m)] = sum_k b[i][j][k] b[l][m][k], so the norm squared
    is the largest eigenvalue of G(f) = N(f)^T N(f), N(f)[k, j] =
    sum_i b[i][j][k] f_i.  The largest singular value of N(f) is a norm
    of a linear map of f, so -sqrt(-lambda_min(-G(f))) is concave and
    homogeneous of degree 1, and _mesh decides it against -(1 + NORM_TOL)
    on S^2, each vertex read off the member of -G's f-side table at f;
    product_form_minimum, handed every vertex solve, refines from the eight
    lowest on -G (p := top eigenvector of G(f), f := that of G(p)), and max_norm and
    witness_p are read off G at the final f.  The certificate passes iff
    max_norm stays within 1 + NORM_TOL.
    """
    arr = as_coeff_tensor(b)
    tables = _side_tables(-np.einsum("ijk,lmk->ijlm", arr, arr).reshape(9, 9), 3)
    slack = _vertex_slack(tables[0])

    def value(f):
        # sqrt is increasing, so sqrt of the squared norm plus its slack bounds the norm from above
        raw = _vertex_eigvals(f, tables[0])
        squared = np.maximum(0.0, -raw)
        return -np.sqrt(squared), -np.sqrt(squared + slack), raw

    _, points, raw = _mesh(value, -(1.0 + NORM_TOL))
    _, f = product_form_minimum(tables, points, raw)
    lowest, p = _lowest(f[None], tables[0])
    max_norm = np.sqrt(max(0.0, -lowest[0]))  # 0.0 first: max keeps it against -0.0
    return PreservationReport(
        max_norm=float(max_norm),
        witness_f=np.array(f),
        witness_p=p[0],
        passes=bool(max_norm <= 1.0 + NORM_TOL),
    )


@dataclass
class PositivityReport:
    """Outcome of a positivity check over extreme points of the state space."""

    is_positive: bool
    worst_w: np.ndarray
    margin: float


def _bloch_vector(v: np.ndarray) -> np.ndarray:
    """The Bloch vector w of u = conj(v) for unit v in C^2 (last axis): w_k = <u, sigma_k u>."""
    z = v[..., 0] * np.conj(v[..., 1])
    return np.stack([2.0 * z.real, 2.0 * z.imag, abs(v[..., 0]) ** 2 - abs(v[..., 1]) ** 2], axis=-1)


def _spinors(w: np.ndarray) -> np.ndarray:
    """A unit v in C^2 with _bloch_vector(v) = w for each unit w in R^3, its real entry the larger one."""
    r = np.sqrt((1.0 + np.abs(w[:, 2])) / 2.0)
    z = (w[:, 0] + 1j * w[:, 1]) / (2.0 * r)
    # (r, conj(z)) on the upper hemisphere, (z, r) on the lower, so that r >= 1/sqrt(2)
    return np.where((w[:, 2] >= 0.0)[:, None], np.stack([r, np.conj(z)], axis=1), np.stack([z, r], axis=1))


def sampled_positivity_check(b) -> PositivityReport:
    """Positivity on rank-one projectors |u><u| (enough by convexity), as the Choi matrix's product-form minimum.

    2*Delta(|u><u|) = 1 + w.Dsigma, w the Bloch vector of u, is sum_ij conj(v_i) v_j C_ij at v = conj(u),
    C the Choi matrix (Jamiolkowski), so the margin is the minimum of <v (x) psi, C v (x) psi> over unit v
    and psi, never below lambda_min(C).  It is 1 + min g over S^2, g(w) = lambda_min(w.Dsigma) concave
    and homogeneous of degree 1, so _mesh decides g against -1 - POSITIVITY_EIG_TOL, each vertex w read
    off C's member at v = _spinors(w), less 1; product_form_minimum, handed every vertex solve, refines
    from the eight lowest, as the KS search does from its scan on ks_form; worst_w is read off the final v.
    """
    tables = _side_tables(choi_matrix_from_tensor(b), 2)
    slack = _vertex_slack(tables[0])

    def value(w):
        raw = _vertex_eigvals(_spinors(w), tables[0])
        return raw - 1.0, raw - 1.0 - slack, raw

    _, points, raw = _mesh(value, -1.0 - POSITIVITY_EIG_TOL)
    margin, v = product_form_minimum(tables, _spinors(points), raw)
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

"""Literal expected values and reference routes used as independent test oracles, and the random draws tests share."""

from dataclasses import dataclass

import numpy as np

from qqocert.core import (
    REFINE_CAP,
    REFINE_RTOL,
    _SIGMA_PAIRS,
    _pair_coordinates,
    as_coeff_tensor,
    delta_sigma_images,
)
from qqocert.dynamics import _check_eps_domain, _v_eps_raw
from qqocert.epsilon import PRESERVATION_THRESHOLD, _finite
from qqocert.ks import KS_COND_TOL
from qqocert.pauli import (
    ID2,
    ID4,
    REFINE_STARTS,
    SIGMA,
    _members,
    hermitian_eigh,
    lowest_indices,
    require_hermitian,
)


# the family's exact CP and positivity thresholds: references for the bands sweep reads off its checks
CP_THRESHOLD = 1.0 / (3.0 * np.sqrt(3.0))
POSITIVITY_THRESHOLD = 1.0 / 3.0
# the family's Kadison-Schwarz threshold: past it the defect at w* = (1, z, z^2)/sqrt(3), z = exp(2*pi*i/3)
# (its conjugate for eps < 0), has a negative eigenvalue; EPS_KS is the positive root of ks_min_eig_closed_form
EPS_KS = (np.sqrt(51.0) - np.sqrt(3.0)) / 24.0


def ks_min_eig_closed_form(eps: float) -> float:
    """lambda_min of the family's defect at w*, the KS search's minimum for |eps| > EPS_KS."""
    return 1.0 - np.sqrt(3.0) * abs(eps) - 12.0 * eps * eps


def classify_epsilon(eps: float) -> str:
    """Band of the coupling: 'cp', 'positive', 'state-preserving' or 'invalid'."""
    a = abs(_finite(eps))
    if a <= CP_THRESHOLD:
        return "cp"
    if a <= POSITIVITY_THRESHOLD:
        return "positive"
    if a <= PRESERVATION_THRESHOLD:
        return "state-preserving"
    return "invalid"


# ------------------------------------------------- the paper's definitions, term by term
# The map, its dual action on product states, beta(f) and the family image,
# each written out as the paper defines it; the package computes the same
# quantities through delta_sigma_images, the Choi matrix and the Gram form.


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


# (m, l, component-of-w) triples of the nine tensor-product terms
_PP_TERMS = (
    (0, 0, 0), (0, 1, 2), (0, 2, 1),
    (1, 0, 2), (1, 1, 1), (1, 2, 0),
    (2, 0, 1), (2, 1, 0), (2, 2, 2),
)
_PP_MATS = [np.kron(SIGMA[m], SIGMA[l]) for (m, l, _) in _PP_TERMS]


def delta_eps_apply(eps: float, x: PauliCoeffs) -> np.ndarray:
    """Direct expansion of the family's image of x, term by term.

    Kept separate from the coefficient-tensor route on purpose: the two
    paths must agree entrywise and cross-validate each other.
    """
    out = x.w0 * ID4.copy()
    for (_, _, comp), mat in zip(_PP_TERMS, _PP_MATS):
        out = out + eps * x.w[comp] * mat
    return out


def sigma_images_apply(b, x: PauliCoeffs) -> np.ndarray:
    """Image of x = w0*1 + w.sigma along the package's route: w0*I4 + sum_k w_k delta_sigma_images(b)[k]."""
    return x.w0 * ID4 + np.einsum("k,kab->ab", x.w, delta_sigma_images(b))


def pauli_compose(c):
    """Assemble the 2x2 matrix w0*1 + w1*sigma1 + w2*sigma2 + w3*sigma3, the inverse of pauli_decompose."""
    return c.w0 * ID2 + np.einsum("k,kab->ab", c.w, SIGMA)


def state_eval(f, c):
    """Value of the state with Bloch vector f on the matrix (w0, w): w0 + sum w_k f_k."""
    f = np.asarray(f, dtype=float).reshape(3)
    return complex(c.w0 + np.dot(c.w, f))


def v_eps_apply(eps, f):
    """One step of the family dynamics; requires |eps| <= 1/sqrt(3)."""
    return _v_eps_raw(_check_eps_domain(eps), np.asarray(f, dtype=float).reshape(3))


def choi_matrix_family(eps):
    """Twice the block matrix of family images of the 2x2 matrix units, shape (8, 8).

    Assembled through the term-by-term family expansion (delta_eps_apply),
    not the coefficient tensor, as the reference for choi_matrix_from_tensor.
    """
    out = np.zeros((8, 8), dtype=complex)
    for i in range(2):
        for j in range(2):
            eij = np.zeros((2, 2), dtype=complex)
            eij[i, j] = 1.0
            w0 = np.trace(eij) / 2.0
            w = np.array([np.trace(SIGMA[k] @ eij) / 2.0 for k in range(3)])
            out[4 * i : 4 * i + 4, 4 * j : 4 * j + 4] = delta_eps_apply(
                eps, PauliCoeffs(w0, w)
            )
    return 2.0 * out


# Expected 8x8 block matrix K with the family Choi matrix == I8 + eps*K, stored
# literally so an assembly bug (or a transcription error in either place)
# is caught by comparison rather than silently reproduced.
CHOI_BLOCK_UNIT = np.array(
    [
        [1, 0, 0, -2j, 0, 0, 0, 1 - 1j],
        [0, -1, 0, 0, 2j, 0, 1 + 1j, 0],
        [0, 0, -1, 0, 2j, 1 + 1j, 0, 0],
        [2j, 0, 0, 1, 1 - 1j, -2j, -2j, 0],
        [0, -2j, -2j, 1 + 1j, -1, 0, 0, 2j],
        [0, 0, 1 - 1j, 2j, 0, 1, 0, 0],
        [0, 1 - 1j, 0, 2j, 0, 0, 1, 0],
        [1 + 1j, 0, 0, 0, -2j, 0, 0, -1],
    ],
    dtype=complex,
)

# Exact fractions of the closed-form quantities A, B, C, D in the
# necessary-condition specialization at f = (1, 0, 0), coupling 1/3,
# direction w = (-1/9, 5/36, 5i/27).
ABCD_EXACT = (
    9594 / 19131876,
    19625 / 86093442,
    1625 / 3779136,
    589 / 17496,
)
ABCD_W = np.array([-1.0 / 9.0, 5.0 / 36.0, 5.0j / 27.0])


# ------------------------------------------------- the paper's auxiliary vectors
# The necessary conditions as the paper writes them, through x_m, alpha,
# gamma and beta(f); ks.ks_necessary_check reads the same numbers off the
# Pauli coordinates of the defect and must match this route.

# cyclic index map: PI[m], PI[m+1] pair the three conditions
PI = (1, 2, 0, 1)


def _auxiliaries(arr: np.ndarray, f: np.ndarray, w: np.ndarray) -> tuple:
    """(x, alpha, gamma, q) of the necessary conditions at a state f and direction w.

    x is the 3x3 array whose row m is the vector x_m; alpha the
    skew-symmetric scalar array; gamma the 3x3 array of 3-vectors; q the
    3-vector coupling beta(f) to the cross product [w, conj(w)].
    Conventions are locked by the exact-fraction calibration of the
    necessary conditions: x_m carries no conjugation of w, the skew
    products alpha conjugate their first argument, and q pairs beta(f)
    with the conjugated cross product.
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


def necessary_conditions_paper(b, f, w) -> dict:
    """The fields of ks_necessary_check's report, from the auxiliaries.

    Condition 1:  ||w||^2 >= Re(i * sum_m f_m alpha_{pi(m), pi(m+1)}) + sum_m ||x_m||^2.
    Condition 2:  || q - i * sum_m ( f_m gamma_{pi(m), pi(m+1)} + [x_m, conj(x_m)] ) ||
                  <= the slack of condition 1.
    """
    f = np.asarray(f, dtype=float).reshape(3)
    w = np.asarray(w, dtype=complex).reshape(3)
    x, alpha, gamma, q = _auxiliaries(as_coeff_tensor(b), f, w)
    nw2 = float(np.sum(np.abs(w) ** 2))
    sum_x2 = float(np.sum(np.abs(x) ** 2))
    ialpha = float(np.real(1j * sum(f[m] * alpha[PI[m], PI[m + 1]] for m in range(3))))
    vec = q - 1j * sum(f[m] * gamma[PI[m], PI[m + 1]] + np.cross(x[m], np.conj(x[m])) for m in range(3))
    lhs2 = float(np.linalg.norm(vec))
    rhs11 = ialpha + sum_x2
    rhs2 = nw2 - ialpha - sum_x2
    comps = np.abs(vec) ** 2
    return {
        "lhs11": nw2,
        "rhs11": rhs11,
        "lhs2": lhs2,
        "rhs2": rhs2,
        "abcd": (float(comps[0]), float(comps[1]), float(comps[2]), rhs2),
        "holds11": nw2 >= rhs11 - KS_COND_TOL,
        "holds2": lhs2 <= rhs2 + KS_COND_TOL,
    }


def rand_tensor(rng, scale=1.0):
    """A (3, 3, 3) tensor of standard normals from rng, times scale."""
    return scale * rng.standard_normal((3, 3, 3))


def rand_ball(rng):
    """A point of the closed unit ball in R^3 from rng, uniform in volume."""
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v) * rng.uniform() ** (1.0 / 3.0)


def rotation(rng):
    """A Haar-random element of SO(3): the Q of a Gaussian matrix with its column signs fixed, det +1."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    return q * np.linalg.det(q)


def complex_sphere(samples: int, seed: int, n: int) -> np.ndarray:
    """samples unit vectors in C^n, normalized complex Gaussians from default_rng(seed): the KS draw's formula, any n."""
    g = np.random.default_rng(seed).standard_normal((samples, n, 2))
    z = g[..., 0] + 1j * g[..., 1]
    return z / np.linalg.norm(z, axis=1, keepdims=True)


# ------------------------------------------------- serial refine and per-unit Choi
# The one-start-at-a-time loop and single-matrix steps that the stacked loop of
# core.product_form_minimum replaced; the stacked route must reproduce them bitwise.


def serial_scan_then_refine(points, values, step):
    """Each of the REFINE_STARTS lowest scan entries descended alone; step maps (point, carry) to (state, value)."""
    values = np.asarray(values)
    order = lowest_indices(values)
    best_val, best_x, most = float(values[order[0]]), points[order[0]], 0
    for idx in order:
        state, val = (points[idx], None), float(values[idx])
        for rounds in range(1, REFINE_CAP + 1):
            new_state, new = step(state)
            fall = val - new
            if fall > 0:
                state, val = new_state, float(new)
            if fall <= REFINE_RTOL * abs(val):
                break
        most = max(most, rounds)
        if val < best_val:
            best_val, best_x = val, state[0]
    return best_val, best_x, most


def serial_product_step(x_table, y_table):
    """Alternating eigen-descent on a form's side tables at x (x) y for one x: x, then y, the lowest eigenvector of M(y), M(x)."""

    def lowest(v, table):
        vals, vecs = hermitian_eigh(_members(_pair_coordinates(v[None]), table)[0])
        return vals[0], vecs[:, 0]

    def step(state):
        x, y = state
        if y is None:
            y = lowest(x, x_table)[1]
        x = lowest(y, y_table)[1]
        val, y = lowest(x, x_table)
        return (x, y), val

    return step


def choi_matrix_blocks(b):
    """Twice the block matrix [Delta(e_ij)], each block one delta_apply, joined by np.block."""
    units = np.eye(4).reshape(2, 2, 2, 2)
    blocks = [[delta_apply(b, pauli_decompose(units[i, j])) for j in range(2)] for i in range(2)]
    return 2.0 * np.block(blocks)


# ------------------------------------------------- whole-stack eigen kernel
# The kernel that took every member of a scan already built; the factored
# pauli.hermitian_lowest_eigvals must select the same lowest members.


def stack_lowest_eigvals(ms):
    """Lowest eigenvalue of each matrix of a built stack (N, n, n), exact wherever it can rank among the lowest few.

    The whole stack passes the hermitian guard; each matrix gets the trace
    bound m - s*sqrt(n - 1), taken over the triangle LAPACK reads and
    lowered by 1e-12*(|m| + s + 1); then the REFINE_STARTS lowest bounds
    are eigensolved, and the other candidates in doubling blocks while the
    next bound is at most the REFINE_STARTS-th lowest exact value.
    """
    ms = require_hermitian(ms)
    if ms.ndim != 3:
        raise ValueError(f"expected a stack of shape (N, n, n), got {ms.shape}")
    n = ms.shape[-1]
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
    can_rank = np.count_nonzero(bound <= np.max(vals[first], initial=-np.inf))
    order = lowest_indices(bound, can_rank)
    done, block, kth = len(first), 2 * REFINE_STARTS, REFINE_STARTS - 1
    while done < len(order) and bound[order[done]] <= np.partition(vals[order[:done]], kth)[kth]:
        idx = order[done : done + block]
        vals[idx] = np.linalg.eigvalsh(ms[idx])[:, 0]
        done, block = done + len(idx), 2 * block
    return vals


# ------------------------------------------------- closed-form family spectrum
# B(w) and its eigenvalues written out by hand, the references for the
# family image and for the closed forms behind epsilon.positivity_check.


class NonRealInput(ValueError):
    """Raised when a real 3-vector is required but complex entries were passed."""


def _require_real3(w) -> np.ndarray:
    arr = np.asarray(w)
    if np.iscomplexobj(arr) and np.max(np.abs(arr.imag)) > 0.0:
        raise NonRealInput("w must be a real 3-vector")
    return np.asarray(arr.real if np.iscomplexobj(arr) else arr, dtype=float).reshape(3)


def b_matrix(w) -> np.ndarray:
    """The 4x4 hermitian matrix B(w) with family image 1 + eps*B at coupling eps."""
    o1, o2, o3 = _require_real3(w)
    return np.array(
        [
            [o3, o2 - 1j * o1, o2 - 1j * o1, o1 - 2j * o3 - o2],
            [o2 + 1j * o1, -o3, o1 + o2, -o2 + 1j * o1],
            [o2 + 1j * o1, o1 + o2, -o3, -o2 + 1j * o1],
            [o1 + 2j * o3 - o2, -o2 - 1j * o1, -o2 - 1j * o1, o3],
        ],
        dtype=complex,
    )


def spectrum_closed_form(w) -> np.ndarray:
    """Eigenvalues of B(w) for real w: [t + 2*sqrt(R), t - 2*sqrt(R), -t, -t].

    Here t = w1+w2+w3 and R = sum w_i^2 - sum_{i<j} w_i w_j >= 0.
    """
    o = _require_real3(w)
    t = float(o.sum())
    r = float(np.dot(o, o) - o[0] * o[1] - o[0] * o[2] - o[1] * o[2])
    root = 2.0 * np.sqrt(max(r, 0.0))
    return np.array([t + root, t - root, -t, -t])


def family_positivity_at_candidates(eps) -> tuple:
    """(margin, t) of the family's positivity as the four-candidate minimum over t = -1, 1, -sqrt(3), sqrt(3).

    Each candidate takes the least of 1 + eps*l over the sphere branches
    l = t +/- sqrt(2(3 - t^2)) and -t, and ties keep the first candidate:
    the scan-free route that epsilon.positivity_check's closed form replaced.
    """
    ts = np.array([-1.0, 1.0, -np.sqrt(3.0), np.sqrt(3.0)])
    root = np.sqrt(2.0 * np.maximum(3.0 - ts * ts, 0.0))
    with np.errstate(over="ignore"):  # |eps| near the float maximum gives +/-inf, as it should
        objective = np.minimum(np.minimum(1.0 + eps * (ts + root), 1.0 + eps * (ts - root)), 1.0 + eps * -ts)
    best = int(np.argmin(objective))
    return float(objective[best]), float(ts[best])

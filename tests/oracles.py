"""Literal expected values and reference routes used as independent test oracles."""

import numpy as np

from qqocert import PauliCoeffs, delta_apply, delta_eps_apply
from qqocert.core import REFINE_CAP, REFINE_RTOL
from qqocert.ks import _contract
from qqocert.pauli import ID4, SIGMA, hermitian_eigh, lowest_indices, pauli_decompose


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


# ------------------------------------------------- serial refine and per-unit Choi
# The one-start-at-a-time loop and single-matrix steps that core.scan_then_refine
# and its stacked steps replaced; the stacked route must reproduce them bitwise.


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


def _serial_spectral_norm(m):
    vals, vecs = hermitian_eigh(m.T @ m)
    return float(np.sqrt(max(vals[-1], 0.0))), vecs[:, -1]


def serial_norm_step(arr):
    """One round of alternating singular-vector ascent on |b(f, p, .)| for one f, negated."""

    def step(state):
        _, p = _serial_spectral_norm(np.einsum("ijk,i->kj", arr, state[0]))
        val, f = _serial_spectral_norm(np.einsum("ijk,j->ki", arr, p))
        return (f, None), -val

    return step


def _serial_eigen_descent_step(matrix_of, update):
    def lowest(w):
        vals, vecs = hermitian_eigh(matrix_of(w))
        return vals[0], vecs[:, 0]

    def step(state):
        w, psi = state
        if psi is None:
            psi = lowest(w)[1]
        w = update(psi)
        val, psi = lowest(w)
        return (w, psi), val

    return step


def serial_positivity_step(ds):
    """Exact descent on <psi, (1 + w.Dsigma) psi> for one w: w = -g/|g|."""

    def update(psi):
        g = np.real(np.einsum("a,kab,b->k", np.conj(psi), ds, psi))
        gn = np.linalg.norm(g)
        return -g / gn if gn > 0.0 else np.array([1.0, 0.0, 0.0])

    return _serial_eigen_descent_step(lambda w: ID4 + np.einsum("k,kab->ab", w, ds), update)


def serial_ks_step(w_table, psi_table):
    """Alternating eigen-descent on the KS form for one direction w."""
    return _serial_eigen_descent_step(
        lambda w: _contract(w_table, w),
        lambda psi: hermitian_eigh(_contract(psi_table, psi))[1][:, 0],
    )


def choi_matrix_blocks(b):
    """Twice the block matrix [Delta(e_ij)], each block one delta_apply, joined by np.block."""
    units = np.eye(4).reshape(2, 2, 2, 2)
    blocks = [[delta_apply(b, pauli_decompose(units[i, j])) for j in range(2)] for i in range(2)]
    return 2.0 * np.block(blocks)

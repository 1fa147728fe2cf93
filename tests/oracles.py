"""Literal expected values and reference routes used as independent test oracles."""

import numpy as np

from qqocert import PauliCoeffs, delta_eps_apply
from qqocert.pauli import SIGMA


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

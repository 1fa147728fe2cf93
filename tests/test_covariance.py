"""Covariance of the mesh certificates: rotated, swapped or negated tensors get the same verdicts and values.

An SO(3) rotation of a qubit factor is a unitary conjugation, so (R1, R2, R3) acting on a tensor by
b'[a, c, e] = sum R1[a, m] R2[c, l] R3[e, k] b[m, l, k] changes no verdict; nor does swapping the two
output factors, b[m, l, k] -> b[l, m, k], nor b -> -b, which maps w.Dsigma to (-w).Dsigma and N(f) to
-N(f).  The mesh is not rotation-invariant, so a rotated tensor meets its minimum between other
vertices: a refine start that misses the minimum shows here as a changed value.
"""

import numpy as np
import pytest

from qqocert import sampled_positivity_check, state_preservation_check


def rotation(rng):
    """A Haar-random element of SO(3): the Q of a Gaussian matrix with its column signs fixed, det +1."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    return q * np.linalg.det(q)


def images(rng, b):
    """b under a random SO(3)^3 element, under the output swap and under b -> -b."""
    r1, r2, r3 = (rotation(rng) for _ in range(3))
    return {
        "rotated": np.einsum("am,cl,ek,mlk->ace", r1, r2, r3, b),
        "swapped": b.transpose(1, 0, 2),
        "negated": -b,
    }


@pytest.mark.parametrize("seed", range(20))
def test_mesh_certificates_are_covariant(seed):
    rng = np.random.default_rng(900 + seed)
    b = rng.uniform(0.02, 3.0) * rng.standard_normal((3, 3, 3)) / 3.0
    if seed % 2:
        b = b + b.transpose(1, 0, 2)
    pos, pres = sampled_positivity_check(b), state_preservation_check(b)
    for name, image in images(rng, b).items():
        pos2, pres2 = sampled_positivity_check(image), state_preservation_check(image)
        assert pos2.is_positive == pos.is_positive and pres2.passes == pres.passes, name
        # the margin is 1 + min g, g homogeneous in the tensor, so its scale is |margin - 1|
        assert abs(pos2.margin - pos.margin) <= 1e-12 * abs(pos.margin - 1.0), name
        assert abs(pres2.max_norm - pres.max_norm) <= 1e-12 * pres.max_norm, name

"""Covariance of the certificates: rotated, swapped or negated tensors get the same verdicts and values.

An SO(3) rotation of a qubit factor is a unitary conjugation, so (R1, R2, R3) acting on a tensor by
b'[a, c, e] = sum R1[a, m] R2[c, l] R3[e, k] b[m, l, k] changes no verdict; nor does swapping the two
output factors, b[m, l, k] -> b[l, m, k], nor b -> -b, which maps w.Dsigma to (-w).Dsigma and N(f) to
-N(f).  The mesh is not rotation-invariant, so a rotated tensor meets its minimum between other
vertices: a refine start that misses the minimum shows here as a changed value.  Complete positivity reads
the whole Choi spectrum, and a rotated family tensor is no longer the family's: epsilon.coupling does not
recognise it, so the KS search meets it and must still reach the family's closed-form minimum.  The
witnesses move with the tensor: under (R1, R2, R3) the image of w.sigma is (R3 w).sigma' conjugated by a
local unitary, and the swap exchanges f and p, so each witness re-evaluates at its image to the value
reported for the original.
"""

import numpy as np
import pytest

from qqocert import (
    build_coeff_tensor,
    cp_check,
    delta_sigma_images,
    ks_defect,
    ks_global_check,
    sampled_positivity_check,
    state_preservation_check,
)

from oracles import ks_min_eig_closed_form, rotation


def moves(rng, b):
    """b under a random SO(3)^3 element and under the output swap, each with where it takes (f, p) and w."""
    r1, r2, r3 = (rotation(rng) for _ in range(3))
    return {
        "rotated": (np.einsum("am,cl,ek,mlk->ace", r1, r2, r3, b), lambda f, p: (r1 @ f, r2 @ p), r3),
        "swapped": (b.transpose(1, 0, 2), lambda f, p: (p, f), np.eye(3)),
    }


def images(rng, b):
    """b under a random SO(3)^3 element, under the output swap and under b -> -b."""
    return {name: image for name, (image, _, _) in moves(rng, b).items()} | {"negated": -b}


def tensor(seed):
    """A random tensor of random scale, symmetric in its first two indices for odd seeds, and its generator."""
    rng = np.random.default_rng(900 + seed)
    b = rng.uniform(0.02, 3.0) * rng.standard_normal((3, 3, 3)) / 3.0
    return (b + b.transpose(1, 0, 2) if seed % 2 else b), rng


@pytest.mark.parametrize("seed", range(20))
def test_mesh_certificates_are_covariant(seed):
    b, rng = tensor(seed)
    pos, pres, cp = sampled_positivity_check(b), state_preservation_check(b), cp_check(b)
    for name, image in images(rng, b).items():
        pos2, pres2, cp2 = sampled_positivity_check(image), state_preservation_check(image), cp_check(image)
        assert pos2.is_positive == pos.is_positive and pres2.passes == pres.passes and cp2.is_cp == cp.is_cp, name
        # the rotations and the swap conjugate the Choi matrix by a unitary; b -> -b negates its traceless part,
        # whose spectrum is symmetric about 0
        assert abs(cp2.min_choi_eig - cp.min_choi_eig) <= 1e-12 * np.abs(cp.eigenvalues).max(), name
        # the margin is 1 + min g, g homogeneous in the tensor, so its scale is |margin - 1|
        assert abs(pos2.margin - pos.margin) <= 1e-12 * abs(pos.margin - 1.0), name
        assert abs(pres2.max_norm - pres.max_norm) <= 1e-12 * pres.max_norm, name


@pytest.mark.parametrize("eps", [1.0 / 3.0, -0.5])
def test_the_ks_search_on_a_rotated_family_tensor_reaches_the_closed_form(eps):
    rotated = images(np.random.default_rng(5), build_coeff_tensor(eps))["rotated"]
    witness = ks_global_check(rotated)
    expected = ks_min_eig_closed_form(eps)
    assert witness is not None
    assert abs(witness.min_eig - expected) <= 1e-12 * (1.0 + abs(expected))


@pytest.mark.parametrize("seed", range(12))
def test_witnesses_reevaluate_at_their_images(seed):
    b, rng = tensor(seed)
    pos, pres, witness = sampled_positivity_check(b), state_preservation_check(b), ks_global_check(b, 5000, 0)
    for name, (image, move_fp, r3) in moves(rng, b).items():
        # lambda_min(1 + w.Dsigma) at the positivity witness, |b(f, p, .)| at the preservation witness
        ds = delta_sigma_images(image)
        margin = np.linalg.eigvalsh(np.eye(4) + np.einsum("k,kab->ab", r3 @ pos.worst_w, ds))[0]
        assert abs(margin - pos.margin) <= 1e-12 * abs(pos.margin - 1.0), name
        f, p = move_fp(pres.witness_f, pres.witness_p)
        norm = np.linalg.norm(np.einsum("ace,a,c->e", image, f, p))
        assert abs(norm - pres.max_norm) <= 1e-12 * pres.max_norm, name
        if witness is not None:
            want = np.linalg.eigvalsh(ks_defect(b, witness.w))
            got = np.linalg.eigvalsh(ks_defect(image, r3 @ witness.w))
            assert np.abs(got - want).max() <= 1e-12 * (1.0 + np.abs(want).max()), name

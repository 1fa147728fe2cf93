"""The adaptive icosahedral mesh behind positivity and preservation, against dense searches."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qqocert import core, delta_sigma_images, ks, pauli
from qqocert.core import (
    MESH_CAP,
    NORM_TOL,
    _ICOSAHEDRON,
    _bloch_vector,
    _face_bounds,
    _pair_coordinates,
    _spinors,
    sampled_positivity_check,
    state_preservation_check,
)
from qqocert.pauli import POSITIVITY_EIG_TOL, hermitian_lowest_eigvals

CERTIFICATES = {
    # the certificate, its mesh's g at a stack of unit w computed independently, and its report's value as g
    "positivity": (
        sampled_positivity_check,
        lambda b, w: np.linalg.eigvalsh(np.einsum("nk,kab->nab", w, delta_sigma_images(b)))[:, 0],
        lambda rep: rep.margin - 1.0,
    ),
    "preservation": (
        state_preservation_check,
        lambda b, f: -np.linalg.svd(np.einsum("ijk,ni->nkj", b, f), compute_uv=False)[:, 0],
        lambda rep: -rep.max_norm,
    ),
}
DENSE = 200_000


def run_recording_mesh(check, b):
    """check(b) and its one mesh call, as (report, value, floor, outcome, points, raw)."""
    meshes, mesh = [], core._mesh

    def recording(value, floor):
        meshes.append((value, floor, *mesh(value, floor)))
        return meshes[-1][2:]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_mesh", recording)
        rep = check(b)
    (call,) = meshes
    return (rep, *call)


def unit(v):
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def linear_tensor(certificate, normal, scale):
    """A tensor whose g is -scale*|normal.w|, linear on each hemisphere, so a face bound is tight on it."""
    b = np.zeros((3, 3, 3))
    if certificate == "positivity":
        b[0, 0] = scale * normal  # w.Dsigma = scale*(normal.w) sigma_1 x sigma_1, eigenvalues +-scale*(normal.w)
    else:
        b[:, 0, 0] = scale * normal  # N(f) = scale*(normal.f) e_0 e_0^T
    return b


@settings(deadline=None, max_examples=12)
@given(
    seed=st.integers(0, 2**32 - 1),
    certificate=st.sampled_from(sorted(CERTIFICATES)),
    linear=st.booleans(),
    log_scale=st.floats(-1.5, 0.5),
    radius=st.floats(0.05, 0.6),
)
def test_face_bound_lies_below_a_dense_search(seed, certificate, linear, log_scale, radius):
    # an acute spherical triangle, its vertices `radius` radians from a random normal at irregular
    # azimuths, is bounded by _face_bounds on the certificate's own vertex lows; no point of a dense
    # search inside it may lie below.  The normal meets the triangle at the foot of 0 on its plane, and
    # on a linear tensor along that normal the bound is tight there, so a bound taken without 1/h, or
    # with h from the centroid (off the foot, since the triangle is not equilateral), lies above
    # points near the foot.
    rng = np.random.default_rng(seed)
    check, g, _ = CERTIFICATES[certificate]
    normal = unit(rng.standard_normal(3))
    side = unit(np.cross(normal, rng.standard_normal(3)))
    azimuth = np.array([0.0, 2 * np.pi / 3 + rng.uniform(0.2, 0.5), 4 * np.pi / 3 - rng.uniform(0.2, 0.5)])
    ring = np.cos(azimuth)[:, None] * side + np.sin(azimuth)[:, None] * np.cross(normal, side)
    tri = np.cos(radius) * normal + np.sin(radius) * ring
    scale = 10.0**log_scale
    b = linear_tensor(certificate, normal, scale) if linear else scale * rng.standard_normal((3, 3, 3))
    _, value, _, _, _, _ = run_recording_mesh(check, b)
    vals, lows, _ = value(tri)
    assert np.all(lows <= vals)
    (bound,) = _face_bounds(tri, np.array([[0, 1, 2]]), lows)
    # uniform barycentric weights, then onto the sphere; the vertices themselves too
    weights = rng.dirichlet(np.ones(3), DENSE)
    dense_min = float(np.min(g(b, np.concatenate([tri, unit(weights @ tri)]))))
    assert dense_min >= bound


@settings(deadline=None, max_examples=40)
@given(
    seed=st.integers(0, 2**32 - 1),
    certificate=st.sampled_from(sorted(CERTIFICATES)),
    symmetric=st.booleans(),
    exponent=st.sampled_from([2, 4, 6, 8]),
    above=st.booleans(),
)
def test_mesh_decides_rays_near_the_floor(seed, certificate, symmetric, exponent, above):
    # g is linear along a ray t*b, so t sets the distance of min g, the certificate's own value, to
    # the floor: 10^-exponent above (certified) or below (violated); both must be decided within
    # MESH_CAP, and the report agree
    rng = np.random.default_rng(seed)
    check, _, reported = CERTIFICATES[certificate]
    b = rng.standard_normal((3, 3, 3))
    if symmetric:
        b = b + b.transpose(1, 0, 2)
    floor = -1.0 - POSITIVITY_EIG_TOL if certificate == "positivity" else -1.0 - NORM_TOL
    t = (floor + (1 if above else -1) * 10.0**-exponent) / reported(check(b))
    rep, _, mesh_floor, outcome, points, _ = run_recording_mesh(check, t * b)
    assert mesh_floor == floor
    assert outcome == ("certified" if above else "violated")
    assert len(points) <= MESH_CAP
    assert (reported(rep) >= floor) == above


def test_icosahedron_tiles_the_sphere():
    points, faces = _ICOSAHEDRON
    assert points.shape == (12, 3) and faces.shape == (20, 3)
    assert np.max(np.abs(np.linalg.norm(points, axis=1) - 1.0)) <= 1e-15
    # every edge borders two faces, and the faces' solid angles add up to the sphere's 4*pi
    edges = [tuple(sorted(e)) for f in faces.tolist() for e in zip(f, f[1:] + f[:1])]
    assert len(set(edges)) == 30 and all(edges.count(e) == 2 for e in set(edges))
    a, b, c = points[faces].transpose(1, 0, 2)
    triple = np.abs(np.einsum("ij,ij->i", a, np.cross(b, c)))
    dots = 1.0 + np.einsum("ij,ij->i", a, b) + np.einsum("ij,ij->i", b, c) + np.einsum("ij,ij->i", c, a)
    assert np.sum(2.0 * np.arctan2(triple, dots)) == pytest.approx(4.0 * np.pi, rel=1e-14)


def test_a_split_mesh_shares_its_midpoints_and_keeps_every_vertex_on_the_sphere():
    # a g that never clears the floor but never crosses it: every face splits until the cap
    calls = []

    def value(w):
        calls.append(len(w))
        return np.zeros(len(w)), np.full(len(w), -2.0), w[:, 0]

    outcome, points, raw = core._mesh(value, -1.0)
    assert outcome == "undecided"
    # the raw values come back in vertex order, the midpoints' after the icosahedron's
    assert raw.tobytes() == points[:, 0].tobytes()
    # 12 + 30 + 120 + 480 = 642 vertices after three rounds of splits; the fourth would take 1920 more
    assert calls == [12, 30, 120, 480] and len(points) == 642 <= MESH_CAP < 642 + 1920
    assert np.max(np.abs(np.linalg.norm(points, axis=1) - 1.0)) <= 1e-15
    assert len(np.unique(np.round(points, 12), axis=0)) == len(points)


def test_mesh_stops_at_the_icosahedron_when_it_decides():
    # g(w) = w_3 reaches -0.85 at the icosahedron's lowest vertices, below a floor of -0.5; a
    # constant g = 0 clears a floor of -1 on every face at once
    for value, floor, outcome in (
        (lambda w: (w[:, 2], w[:, 2], w[:, 2]), -0.5, "violated"),
        (lambda w: (np.zeros(len(w)), np.zeros(len(w)), np.zeros(len(w))), -1.0, "certified"),
    ):
        got, points, raw = core._mesh(value, floor)
        assert got == outcome and points is _ICOSAHEDRON[0] and len(raw) == 12


@pytest.mark.parametrize("seed", range(5))
def test_spinors_carry_each_bloch_vector(seed):
    w = unit(np.random.default_rng(seed).standard_normal((1000, 3)))
    w = np.concatenate([w, np.eye(3), -np.eye(3)])
    v = _spinors(w)
    assert np.max(np.abs(np.linalg.norm(v, axis=1) - 1.0)) <= 1e-15
    # within the 10u that core._vertex_slack allows the spinor
    assert np.max(np.abs(_bloch_vector(v) - w)) <= 10 * 2.0**-53


def mesh_tensors(count):
    """count seeded general tensors, from well inside the unit ball to entries of size 3."""
    rng = np.random.default_rng(2024)
    return [rng.uniform(0.02, 3.0) * rng.standard_normal((3, 3, 3)) for _ in range(count)]


def refuse(*args, **kwargs):
    raise AssertionError("the pruning kernel ran")


def test_each_mesh_vertex_is_solved_once(monkeypatch):
    # the mesh certificates run no kernel, and LAPACK's eigvalsh reads each vertex's member once: the
    # mesh's own solve, whose values also start the refine
    for mod in (pauli, core, ks):
        monkeypatch.setattr(mod, "hermitian_lowest_eigvals", refuse, raising=False)
    solved, eigvalsh = [], np.linalg.eigvalsh

    def counting(ms, *args, **kwargs):
        solved.append(len(ms) if np.ndim(ms) == 3 else 1)
        return eigvalsh(ms, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    for b in mesh_tensors(20):
        for check in (sampled_positivity_check, state_preservation_check):
            solved.clear()
            _, _, _, _, points, _ = run_recording_mesh(check, b)
            assert sum(solved) == len(points), check.__name__


@pytest.mark.parametrize("certificate", sorted(CERTIFICATES))
def test_mesh_starts_are_the_kernels_bitwise(certificate, monkeypatch):
    # the kernel as the oracle: on the mesh's vertices (their spinors for positivity), all of which the
    # certificate hands its refine, its starts are bitwise the rows of the refine's first x-side solve,
    # and its values bitwise the ones handed at those starts
    check = CERTIFICATES[certificate][0]
    handed, refine, lowest = [], core.product_form_minimum, core._lowest

    def recording(tables, x, val):
        handed.append((tables[0], x.copy(), val.copy(), []))
        return refine(tables, x, val)

    def recording_lowest(v, table):
        handed[-1][3].append((table, v.copy()))
        return lowest(v, table)

    monkeypatch.setattr(core, "product_form_minimum", recording)
    monkeypatch.setattr(core, "_lowest", recording_lowest)
    for b in mesh_tensors(60):
        handed.clear()
        _, _, _, _, points, _ = run_recording_mesh(check, b)
        (table, x, val, calls), = handed
        (first_table, first), *_ = calls
        vertices = _spinors(points) if certificate == "positivity" else points
        starts, values = hermitian_lowest_eigvals(_pair_coordinates(vertices), table)
        assert x.tobytes() == vertices.tobytes() and first_table is table
        assert first.tobytes() == vertices[starts].tobytes()
        assert val[starts].tobytes() == values.tobytes()

import numpy as np
import pytest

from shapefit import meshing
from shapefit.errors import NumericError, StructuralError
from shapefit.rng import substream


def sphere_field(r=0.5):
    def f(pts):
        pts = np.atleast_2d(pts)
        return np.linalg.norm(pts, axis=1) - r

    return f


def test_sphere_vertices_near_level_set():
    res = 64
    mesh = meshing.marching_cubes(sphere_field(0.5), res)
    assert not mesh.is_empty
    dev = np.abs(np.linalg.norm(mesh.vertices, axis=1) - 0.5)
    assert dev.max() < 2 * (2.0 / res)


def test_sphere_resolution_refinement_halves_error():
    errs = {}
    for res in (32, 64):
        mesh = meshing.marching_cubes(sphere_field(0.5), res)
        errs[res] = np.abs(np.linalg.norm(mesh.vertices, axis=1) - 0.5).max()
    assert errs[64] <= errs[32] / 2


def test_constant_positive_field_empty_mesh():
    mesh = meshing.marching_cubes(lambda p: np.ones(np.atleast_2d(p).shape[0]), 16)
    assert mesh.is_empty


def test_plane_field_linear_exactness():
    def plane(pts):
        return np.atleast_2d(pts)[:, 2]

    mesh = meshing.marching_cubes(plane, 15)  # odd: z=0 not a grid plane
    assert not mesh.is_empty
    assert np.abs(mesh.vertices[:, 2]).max() < 1e-9


def test_nonfinite_field_raises_with_location():
    def bad(pts):
        pts = np.atleast_2d(pts)
        out = np.linalg.norm(pts, axis=1) - 0.5
        out[np.all(np.abs(pts) < 0.1, axis=1)] = np.nan
        return out

    with pytest.raises(NumericError, match="grid point"):
        meshing.marching_cubes(bad, 16)


def test_resolution_too_low_raises():
    with pytest.raises(StructuralError):
        meshing.marching_cubes(sphere_field(), 4)


def test_vertices_lie_on_sign_changing_edges():
    res = 24
    f = sphere_field(0.45)
    mesh = meshing.marching_cubes(f, res)
    cell = 2.0 / res
    # each vertex sits on a grid edge whose endpoints change sign
    for v in mesh.vertices[substream(0, "pick").choice(len(mesh.vertices), 50)]:
        # find the axis along which the vertex is off-grid
        rel = (v + 1.0) / cell
        frac = np.abs(rel - np.round(rel))
        axis = int(np.argmax(frac))
        lo = v.copy()
        lo[axis] = -1.0 + np.floor(rel[axis]) * cell
        hi = lo.copy()
        hi[axis] += cell
        s0, s1 = float(f(lo[None])[0]), float(f(hi[None])[0])
        assert s0 == 0 or s1 == 0 or (s0 < 0) != (s1 < 0)


def test_pointwise_field_callable_raises():
    # fields are batched; an error from the field propagates unchanged
    def f(p):
        p = np.asarray(p)
        if p.ndim == 2:
            raise TypeError("scalar field only")
        return float(np.linalg.norm(p) - 0.4)

    with pytest.raises(TypeError, match="scalar field only"):
        meshing.marching_cubes(f, 12)


def test_wrong_field_output_size_raises():
    # 9^3 = 729 grid points in one chunk; the field returns one value too many
    with pytest.raises(StructuralError, match="730 values for grid points 0:729, expected 729"):
        meshing.marching_cubes(lambda p: np.zeros(len(p) + 1), 8)


def test_degenerate_triangles_removed_and_indices_valid():
    mesh = meshing.marching_cubes(sphere_field(0.5), 32)
    assert mesh.triangle_areas().min() > meshing.MIN_TRIANGLE_AREA
    mesh.validate()


def test_sample_single_triangle():
    mesh = meshing.TriangleMesh(
        np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1.0, 0]]), np.array([[0, 1, 2]])
    )
    pts = meshing.sample_mesh_surface(mesh, 200, seed=1)
    assert np.abs(pts[:, 2]).max() == 0.0
    # inside the triangle: x, y >= 0 and x + y <= 1
    assert (pts[:, 0] >= 0).all() and (pts[:, 1] >= 0).all()
    assert (pts[:, 0] + pts[:, 1] <= 1 + 1e-12).all()


def test_sample_area_weighting_binomial():
    # two triangles with areas 1 and 3
    verts = np.array(
        [[0, 0, 0], [2, 0, 0], [0, 1, 0], [0, 0, 5], [2, 0, 5], [0, 3, 5]], dtype=float
    )
    mesh = meshing.TriangleMesh(verts, np.array([[0, 1, 2], [3, 4, 5]]))
    n = 4000
    pts = meshing.sample_mesh_surface(mesh, n, seed=2)
    frac_big = np.mean(pts[:, 2] > 2.5)
    p = 0.75
    sigma = np.sqrt(p * (1 - p) / n)
    assert abs(frac_big - p) < 3 * sigma + 1e-9


def test_sample_sphere_centroid():
    mesh = meshing.marching_cubes(sphere_field(0.5), 32)
    pts = meshing.sample_mesh_surface(mesh, 20000, seed=3)
    assert np.linalg.norm(pts.mean(axis=0)) < 0.02


def test_sample_deterministic_and_errors():
    mesh = meshing.marching_cubes(sphere_field(0.5), 16)
    a = meshing.sample_mesh_surface(mesh, 100, seed=5)
    b = meshing.sample_mesh_surface(mesh, 100, seed=5)
    np.testing.assert_array_equal(a, b)
    empty = meshing.TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
    with pytest.raises(StructuralError):
        meshing.sample_mesh_surface(empty, 10, seed=0)

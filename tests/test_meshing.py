import dataclasses
import tracemalloc

import numpy as np
import pytest

from shapefit import autodiff as ad
from shapefit import fields, meshing, training
from shapefit._mc_tables import TRIANGLES
from shapefit.errors import NumericError, StructuralError
from shapefit.rng import substream
from shapefit.synthdata import make_family, sample_shape

from oracles import dense_marching_cubes, table_triangles


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


@pytest.mark.parametrize("resolution", [8.5, 16.0, "16", None])
def test_non_integer_resolution_raises(resolution):
    with pytest.raises(StructuralError, match="integer"):
        meshing.marching_cubes(sphere_field(), resolution)


def test_numpy_integer_resolution_accepted():
    a = meshing.marching_cubes(sphere_field(), np.int64(16))
    b = meshing.marching_cubes(sphere_field(), 16)
    np.testing.assert_array_equal(a.vertices, b.vertices)


def counted(field):
    """The field plus a list holding the number of points it was asked for."""
    n = [0]

    def f(pts):
        n[0] += len(pts)
        return field(pts)

    return f, n


def assert_same_mesh(got, want):
    assert not want.is_empty
    assert got.vertices.tobytes() == want.vertices.tobytes()
    assert got.triangles.tobytes() == want.triangles.tobytes()


@pytest.mark.parametrize("category", ["car", "chair", "plane"])
@pytest.mark.parametrize("resolution", [32, 48, 64])
def test_coarse_to_fine_matches_dense_analytic(category, resolution):
    # strides 2, 3 and 4; no level-0 point falls inside the chair's seat,
    # back or legs (0.08-0.09 thick), so no level-0 block of the chair
    # changes sign and the half-diagonal rule alone keeps its blocks
    shape = make_family(category, 1, seed=0)[0]
    field, n = counted(shape.sdf)
    assert_same_mesh(meshing.marching_cubes(field, resolution), dense_marching_cubes(shape.sdf, resolution))
    assert n[0] < 0.3 * (resolution + 1) ** 3


def test_closure_finds_the_surface_of_a_steep_field():
    # ten times an SDF: the half-diagonal rule drops blocks that hold
    # surface, and the face-neighbour closure meshes them again from the
    # crossed cells they touch (without it, 2,680 of 3,928 triangles)
    shape = make_family("chair", 1, seed=0)[0]

    def steep(pts):
        return 10.0 * shape.sdf(pts)

    assert_same_mesh(meshing.marching_cubes(steep, 48), dense_marching_cubes(steep, 48))


@pytest.mark.parametrize("resolution", [64, 96, 128])
@pytest.mark.parametrize("shape", ["car", "sphere"])
def test_levels_match_dense(shape, resolution):
    # strides 4, 6 and 8: res 64 splits twice (4 -> 2 -> 1), res 96 three
    # times through a level of mixed gaps (6 -> 3 -> 2 or 1 -> 1), res 128
    # three times (8 -> 4 -> 2 -> 1)
    field = make_family("car", 1, seed=0)[0].sdf if shape == "car" else sphere_field(0.5)
    assert_same_mesh(meshing.marching_cubes(field, resolution), dense_marching_cubes(field, resolution))


@pytest.mark.parametrize("resolution", [67, 96, 128])
def test_no_grid_point_evaluated_twice(resolution):
    asked = []

    def field(pts):
        asked.append(pts.copy())
        return make_family("car", 1, seed=0)[0].sdf(pts)

    meshing.marching_cubes(field, resolution)
    pts = np.concatenate(asked)
    assert len(np.unique(pts, axis=0)) == len(pts)


@pytest.mark.parametrize("resolution", [67, 130])
def test_coarse_to_fine_short_last_block(resolution):
    # the stride (4, 8) does not divide the resolution, so the last coarse
    # block is shorter; the sphere crosses the upper faces of the cube
    def corner_sphere(pts):
        return np.linalg.norm(pts - 0.9, axis=1) - 0.5

    assert_same_mesh(
        meshing.marching_cubes(corner_sphere, resolution), dense_marching_cubes(corner_sphere, resolution)
    )


def test_coarse_to_fine_matches_dense_trained_field(monkeypatch):
    # at sine frequency 5 the trained field is smooth enough that the levels
    # skip over half of the grid; at OMEGA0 they evaluate 97% of it
    monkeypatch.setattr(ad, "OMEGA0", 5.0)
    prior = fields.init_prior(
        "car", latent_dim=8, template_hidden=(16, 16), deform_hidden=(10, 10), hyper_hidden=16, seed=3
    )
    shapes = make_family("car", 2, seed=3)
    data = [(s.name, sample_shape(s, 200, 200, seed=4)) for s in shapes]
    cfg = training.TrainConfig(
        epochs=20, batch_shapes=2, surface_points_per_shape=200, free_points_per_shape=200,
        lr=1e-3, lr_latent=1e-3, seed=0,
    )
    prior, _, _ = training.fit(prior, data, cfg)
    exact = fields.instance_field(prior, prior.latents[shapes[0].name])
    field, n = counted(exact)
    assert_same_mesh(meshing.marching_cubes(field, 64), dense_marching_cubes(exact, 64))
    assert n[0] < 0.5 * 65**3


@pytest.fixture(scope="module", params=["car", "chair"])
def steep_trained_field(request):
    """An instance field of a tiny car or chair prior at OMEGA0:
    steeper than an SDF in places (grid gradient norm at res 96: median 1.2
    and largest 6.1 for the car, 0.62 and 3.1 for the chair), with small
    components apart from the main surface."""
    category = request.param
    prior = fields.init_prior(
        category, latent_dim=8, template_hidden=(16, 16), deform_hidden=(10, 10), hyper_hidden=16, seed=3
    )
    shapes = make_family(category, 2, seed=3)
    data = [(s.name, sample_shape(s, 500, 500, seed=4)) for s in shapes]
    cfg = training.TrainConfig(
        epochs=100, batch_shapes=2, surface_points_per_shape=500, free_points_per_shape=500,
        lr=1e-3, lr_latent=1e-3, seed=0,
    )
    prior, _, _ = training.fit(prior, data, cfg)
    return fields.instance_field(prior, prior.latents[shapes[0].name])


@pytest.mark.parametrize("resolution", [96, 128])
def test_levels_match_dense_steep_trained_field(steep_trained_field, resolution):
    # small components sit in blocks that no crossed block borders; a rule
    # that asked for a crossed neighbour lost them: below level 0 for the
    # car (56 triangles at res 96, 76 at res 128), and at a level 0 of 32
    # blocks per axis for the chair (198 at res 96, 374 at res 128)
    field = steep_trained_field
    assert_same_mesh(meshing.marching_cubes(field, resolution), dense_marching_cubes(field, resolution))


def assert_table_order(field, resolution):
    # the triangles' positions and order reach `sample_mesh_surface` and so
    # every chamfer; `dense_marching_cubes` shares `_triangulate` and cannot
    # see a reorder, so the loop of `table_triangles` pins it
    mesh = meshing.marching_cubes(field, resolution)
    want = table_triangles(field, resolution)
    assert len(mesh.triangles) == len(want) > 0  # no triangle dropped
    assert len(mesh.vertices) == len(np.unique(want.reshape(-1, 3), axis=0))  # none welded
    assert mesh.vertices[mesh.triangles].tobytes() == want.tobytes()


def test_triangles_come_in_table_slot_then_cell_order():
    assert_table_order(sphere_field(0.45), 16)


def test_triangles_of_a_trained_field_come_in_table_slot_then_cell_order(steep_trained_field):
    assert_table_order(steep_trained_field, 24)


def test_coarse_to_fine_evaluates_few_points():
    field, n = counted(sphere_field(0.5))
    mesh = meshing.marching_cubes(field, 128)
    assert not mesh.is_empty
    assert n[0] < 0.06 * 129**3


def test_a_round_holds_no_corner_array_of_every_block():
    # this field keeps every block active at every level and crosses no
    # cell, so the peak is the rounds' own: 24.7 MB, against 64.5 MB when a
    # round builds the (8, B) corner indices and values of all its blocks
    # at once (tracemalloc, NumPy 2.4)
    tracemalloc.start()
    try:
        mesh = meshing.marching_cubes(lambda p: np.full(len(p), 1e-3), 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mesh.is_empty
    assert peak < 40 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_below_stride_two_every_point_evaluated():
    field, n = counted(sphere_field(0.5))
    meshing.marching_cubes(field, 2 * meshing.COARSE_CELLS - 1)
    assert n[0] == (2 * meshing.COARSE_CELLS) ** 3


@pytest.mark.parametrize("where", ["alone", "face", "edge", "corner"])
def test_small_sphere_next_to_a_crossed_block_found(where):
    # at res 64 level-0 points sit 1/8 apart; a sphere of radius 0.02 around
    # grid point (33, 33, 33) holds that one grid point and lies in level-0
    # block (8, 8, 8), spanning grid points 32..36 on each axis. Its corners
    # are within half its diagonal of 0 (0.034 against 0.108), so the block
    # is kept, alone or next to other surface: a plane through the layer of
    # blocks at z index 8 ("face"), or a radius-0.04 sphere in the edge or
    # corner neighbour (7, 7, 8) or (7, 7, 7). The other surface's crossed
    # cells are two cells away, so closure alone would not reach the sphere
    centre = -1.0 + 16.5 / 16
    other = {
        "alone": lambda p: np.full(len(p), np.inf),
        "face": lambda p: (-1.0 + 35.5 / 32) - p[:, 2],
        "edge": lambda p: np.linalg.norm(p - (-1.0 + np.array([30, 30, 34]) / 32), axis=1) - 0.04,
        "corner": lambda p: np.linalg.norm(p - (-1.0 + 30 / 32), axis=1) - 0.04,
    }[where]

    def field(pts):
        return np.minimum(np.linalg.norm(pts - centre, axis=1) - 0.02, other(pts))

    mesh = meshing.marching_cubes(field, 64)
    assert_same_mesh(mesh, dense_marching_cubes(field, 64))
    assert (np.linalg.norm(mesh.vertices - centre, axis=1) < 0.03).any()


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


def test_triangle_table_uses_exactly_the_sign_changing_edges():
    # `_triangulate` finds a configuration's crossed edges from its corner
    # bits; that is sound because, in every one of the 256 configurations,
    # the triangles use exactly the edges whose two corners differ in sign
    for cfg, tris in enumerate(TRIANGLES):
        inside = [cfg >> c & 1 for c in range(8)]
        changing = {e for e, (c0, c1) in enumerate(meshing._EDGE_CORNERS) if inside[c0] != inside[c1]}
        assert {e for e in tris if e >= 0} == changing, f"configuration {cfg}"


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
    # 9^3 = 729 grid points in one block; the field returns one value too many
    with pytest.raises(StructuralError, match="730 values for grid points 0:729, expected 729"):
        meshing.marching_cubes(lambda p: np.zeros(len(p) + 1), 8)


def test_wrong_field_output_size_names_the_block():
    # res 16 runs at stride 1: 17^3 = 4913 grid points in two blocks, and
    # only the second block gets a short answer
    def field(pts):
        return np.zeros(len(pts) - (len(pts) < meshing.FIELD_BLOCK))

    with pytest.raises(StructuralError, match="816 values for grid points 4096:4913, expected 817"):
        meshing.marching_cubes(field, 16)


@pytest.mark.parametrize(
    "values, kind",
    [(lambda n: np.zeros(n) + 1j, "complex"), (lambda n: np.array(["0.5"] * n), "<U3")],
    ids=["complex", "text"],
)
def test_non_real_field_values_raise(values, kind):
    # a complex value used to lose its imaginary part with a warning, and
    # text failed with a bare ValueError
    with pytest.raises(StructuralError, match=f"grid points 0:729 .*{kind}"):
        meshing.marching_cubes(lambda p: values(len(p)), 8)


def test_column_field_values_accepted():
    def column(pts):
        return sphere_field(0.5)(pts)[:, None]

    assert_same_mesh(meshing.marching_cubes(column, 16), meshing.marching_cubes(sphere_field(0.5), 16))


def test_field_is_called_in_blocks():
    sizes = []

    def field(pts):
        sizes.append(len(pts))
        return np.linalg.norm(pts, axis=1) - 0.5

    mesh = meshing.marching_cubes(field, 48)
    assert max(sizes) == meshing.FIELD_BLOCK
    assert_same_mesh(mesh, dense_marching_cubes(sphere_field(0.5), 48))


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


@pytest.mark.parametrize(
    "verts, tris, field",
    [(np.zeros((2, 6)), np.zeros((1, 3)), "vertices"), (np.zeros((4, 3)), np.zeros((1, 6)), "triangles"),
     (np.zeros(3), np.zeros((1, 3)), "vertices"), (np.zeros((3, 3)), np.array([0, 1, 2]), "triangles")],
    ids=["vertices-2x6", "triangles-1x6", "vertices-flat", "triangles-flat"],
)
def test_triangle_mesh_rejects_a_wrong_shape(verts, tris, field):
    # a (2, 6) vertex array used to become 4 vertices without an error
    with pytest.raises(StructuralError, match=field):
        meshing.TriangleMesh(verts, tris)


@pytest.mark.parametrize("bad", [2.7, 0.5, np.nan, np.inf])
def test_triangle_mesh_rejects_non_integer_indices(bad):
    # [[0, 1, 2.7]] used to become [[0, 1, 2]] without an error
    verts = np.zeros((4, 3))
    with pytest.raises(StructuralError, match="triangles"):
        meshing.TriangleMesh(verts, np.array([[0, 1, 2], [0, 1, bad]]))
    np.testing.assert_array_equal(meshing.TriangleMesh(verts, np.array([[0, 1, 3.0]])).triangles, [[0, 1, 3]])


def test_a_mesh_keeps_read_only_arrays():
    # writing an index out of range into a mesh's triangles used to make
    # sample_mesh_surface raise a bare IndexError
    mesh = meshing.marching_cubes(sphere_field(0.5), 16)
    with pytest.raises(ValueError, match="read-only"):
        mesh.triangles[0, 0] = 10**6
    with pytest.raises(dataclasses.FrozenInstanceError):
        mesh.triangles = np.zeros((0, 3), dtype=np.int64)
    assert meshing.sample_mesh_surface(mesh, 10, seed=0).shape == (10, 3)


@pytest.mark.parametrize("bad", [3, 5, -1])
def test_triangle_mesh_rejects_an_index_without_a_vertex(bad):
    # such a mesh used to build, and triangle_areas raised a bare IndexError
    with pytest.raises(StructuralError, match="triangle index"):
        meshing.TriangleMesh(np.zeros((3, 3)), [[0, 1, bad]])


def test_sample_zero_area_mesh_raises():
    # collinear vertices: every triangle has zero area
    verts = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0], [3.0, 0, 0]])
    mesh = meshing.TriangleMesh(verts, np.array([[0, 1, 2], [1, 2, 3]]))
    with pytest.raises(StructuralError, match="area"):
        meshing.sample_mesh_surface(mesh, 10, seed=0)


@pytest.mark.parametrize("n", [2.5, 0, "10"])
def test_sample_count_must_be_a_positive_integer(n):
    mesh = meshing.marching_cubes(sphere_field(0.5), 16)
    with pytest.raises(StructuralError, match="sample count"):
        meshing.sample_mesh_surface(mesh, n, seed=0)

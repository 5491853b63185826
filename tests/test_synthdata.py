import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad

from shapefit import synthdata as sd
from shapefit.errors import DataError, StructuralError
from shapefit.geometry import look_at
from shapefit.rng import substream

from oracles import fd_spatial_grad, random_rotation, ray_sphere_depth


def unit_sphere(r=0.5):
    return sd.AnalyticShape([sd.Sphere(np.zeros(3), r)], "s")


def test_sphere_sdf_hand_values():
    s = unit_sphere(0.5)
    np.testing.assert_allclose(s.sdf(np.array([[1.0, 0, 0], [0.0, 0, 0]])), [0.5, -0.5])


def test_box_sdf_corner_value():
    shape = sd.AnalyticShape([sd.Box(np.zeros(3), np.array([0.2, 0.2, 0.2]))])
    got = shape.sdf(np.array([[0.5, 0.5, 0.5]]))
    assert got[0] == pytest.approx(np.linalg.norm([0.3, 0.3, 0.3]), abs=1e-12)


def test_cylinder_sdf_values():
    shape = sd.AnalyticShape([sd.Cylinder(np.zeros(3), axis=2, radius=0.3, half_height=0.4)])
    pts = np.array([[0.5, 0.0, 0.0], [0.0, 0.0, 0.9], [0.0, 0.0, 0.0]])
    np.testing.assert_allclose(shape.sdf(pts), [0.2, 0.5, -0.3])


def test_ellipsoid_sdf_against_sphere_case():
    ell = sd.AnalyticShape([sd.Ellipsoid(np.zeros(3), np.array([0.4, 0.4, 0.4]))])
    sph = unit_sphere(0.4)
    pts = substream(0, "pts").uniform(-1, 1, (200, 3))
    np.testing.assert_allclose(ell.sdf(pts), sph.sdf(pts), atol=1e-9)


def test_ellipsoid_sdf_is_true_distance():
    # distance to a dense surface sampling bounds the SDF from above;
    # for an exact SDF the two agree closely
    radii = np.array([0.6, 0.3, 0.2])
    ell = sd.AnalyticShape([sd.Ellipsoid(np.zeros(3), radii)])
    rng = substream(1, "dirs")
    dirs = rng.standard_normal((20000, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    dense = radii * dirs
    queries = rng.uniform(-1, 1, (50, 3))
    sdf = ell.sdf(queries)
    brute = np.min(np.linalg.norm(queries[:, None, :] - dense[None], axis=2), axis=1)
    inside = np.sum((queries / radii) ** 2, axis=1) < 1
    signed_brute = np.where(inside, -brute, brute)
    np.testing.assert_allclose(sdf, signed_brute, atol=2e-3)
    assert np.all(np.abs(sdf) <= brute + 1e-9)


def test_sphere_sdf_rotation_invariant():
    s = unit_sphere(0.45)
    rng = substream(2, "rot")
    pts = rng.uniform(-1, 1, (100, 3))
    base = s.sdf(pts)
    for _ in range(5):
        rot = random_rotation(rng)
        np.testing.assert_allclose(s.sdf(pts @ rot.T), base, atol=1e-12)


def test_union_min_of_children():
    two = sd.AnalyticShape(
        [
            sd.Sphere(np.array([0.4, 0, 0]), 0.2),
            sd.Sphere(np.array([-0.4, 0, 0]), 0.2),
        ]
    )
    pts = substream(3, "u").uniform(-1, 1, (50, 3))
    d1 = np.linalg.norm(pts - [0.4, 0, 0], axis=1) - 0.2
    d2 = np.linalg.norm(pts - [-0.4, 0, 0], axis=1) - 0.2
    np.testing.assert_allclose(two.sdf(pts), np.minimum(d1, d2), atol=1e-12)


def test_make_family_deterministic_and_bounded():
    for cat in sd.CATEGORIES:
        fam1 = sd.make_family(cat, 5, seed=11)
        fam2 = sd.make_family(cat, 5, seed=11)
        for a, b in zip(fam1, fam2):
            assert a.name == b.name
            assert [type(p) for p in a.primitives] == [type(p) for p in b.primitives]
            for pa, pb in zip(a.primitives, b.primitives):
                for f in dataclasses.fields(pa):
                    assert np.array_equal(getattr(pa, f.name), getattr(pb, f.name)), f.name
        for shape in fam1:
            lo, hi = shape.bbox()
            assert (lo >= -1 - 1e-9).all() and (hi <= 1 + 1e-9).all()


def test_sphere_family_radius_range():
    fam = sd.make_family("sphere", 30, seed=5)
    radii = [s.primitives[0].radius for s in fam]
    assert all(0.3 <= r <= 0.6 for r in radii)


def test_unknown_category_raises():
    with pytest.raises(StructuralError):
        sd.make_family("torus", 3, seed=0)


@pytest.mark.parametrize("count", [2.5, 2.0, "2", 0, -1])
def test_make_family_rejects_non_positive_integer_count(count):
    with pytest.raises(StructuralError, match="count"):
        sd.make_family("car", count, 0)


@pytest.mark.parametrize("seed", [None, "s", 1.0, 1.7, -1, True])
def test_seeds_must_be_non_negative_integers(seed):
    # None and "s" used to fail in int(), and 1.7 silently gave seed 1's family
    with pytest.raises(StructuralError, match="seed"):
        sd.make_family("car", 1, seed)
    with pytest.raises(StructuralError, match="seed"):
        sd.sample_shape(unit_sphere(), 10, 10, seed)


def test_make_family_numpy_integer_count():
    a = sd.make_family("chair", np.int64(2), 4)
    assert [s.name for s in a] == [s.name for s in sd.make_family("chair", 2, 4)]


def test_family_bboxes_inside_cube_many():
    # spot-check a larger batch across categories
    for cat in sd.CATEGORIES:
        for shape in sd.make_family(cat, 60, seed=77):
            lo, hi = shape.bbox()
            assert (lo >= -1).all() and (hi <= 1).all()


def test_sample_shape_sphere_properties():
    s = unit_sphere(0.47)
    ss = sd.sample_shape(s, 500, 400, seed=9)
    norms = np.linalg.norm(ss.surface_points, axis=1)
    np.testing.assert_allclose(norms, 0.47, atol=1e-6)
    np.testing.assert_allclose(
        ss.surface_normals, ss.surface_points / norms[:, None], atol=1e-6
    )
    # free point SDF values match oracle recomputation exactly
    np.testing.assert_array_equal(ss.free_sdf, s.sdf(ss.free_points))
    assert np.abs(ss.free_points).max() <= 1.0


def test_sample_shape_surface_tolerance_all_categories():
    for cat in sd.CATEGORIES:
        shape = sd.make_family(cat, 1, seed=21)[0]
        ss = sd.sample_shape(shape, 300, 100, seed=4)
        assert np.abs(shape.sdf(ss.surface_points)).max() < 1e-6
        np.testing.assert_allclose(np.linalg.norm(ss.surface_normals, axis=1), 1.0, atol=1e-9)


def test_surface_samples_eikonal_property():
    # finite-difference gradient of the oracle has unit norm at samples
    for cat in sd.CATEGORIES:
        shape = sd.make_family(cat, 1, seed=31)[0]
        pts, _ = shape.sample_surface(40, substream(8, cat))
        for p in pts[:25]:
            g = fd_spatial_grad(lambda q: shape.sdf(q[None])[0], p, h=1e-5)
            assert abs(np.linalg.norm(g) - 1.0) < 1e-4


def test_surface_normals_match_fd_gradient():
    # every sample of each category's first shape, and of one lone shape per
    # primitive kind: no category's samples reach a cylinder, and a car's
    # first samples all lie on its body
    c = np.array([0.1, -0.05, 0.08])
    lone = [
        sd.Sphere(c, 0.4),
        sd.Box(c, np.array([0.3, 0.2, 0.4])),
        sd.Box(c, np.array([0.3, 0.2, 0.4]), 0.05),
        sd.Cylinder(c, 1, 0.25, 0.3),
        sd.Ellipsoid(c, np.array([0.6, 0.3, 0.2])),
    ]
    shapes = [sd.make_family(cat, 1, seed=13)[0] for cat in sd.CATEGORIES]
    shapes += [sd.AnalyticShape([prim], f"lone_{k}") for k, prim in enumerate(lone)]
    h = 1e-6
    for shape in shapes:
        ss = sd.sample_shape(shape, 60, 10, seed=2)
        p = ss.surface_points
        g = np.stack([(shape.sdf(p + h * e) - shape.sdf(p - h * e)) / (2 * h) for e in np.eye(3)], axis=1)
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        np.testing.assert_allclose(ss.surface_normals, g, atol=1e-4, err_msg=shape.name)


def test_ellipsoid_samples_are_area_uniform():
    # uniform directions scaled by the radii crowd the tips of a long
    # spheroid: 17% of samples fell where |x| > 0.5, against 8.5% of the area
    a, b = 0.6, 0.09
    shape = sd.AnalyticShape([sd.Ellipsoid(np.zeros(3), (a, b, b))], "fuselage")
    x = sd.sample_shape(shape, 20000, 1, seed=0).surface_points[:, 0]

    def d_area(t):  # of the surface of revolution x = a cos t, r = b sin t, over 2 pi
        return np.sin(t) * np.hypot(a * np.sin(t), b * np.cos(t))

    share = quad(d_area, 0, np.arccos(0.5 / a))[0] / quad(d_area, 0, np.pi / 2)[0]
    assert abs(np.mean(np.abs(x) > 0.5) - share) < 0.01  # the binomial sd is 0.002


def test_synthdata_exports_resolve():
    for name in sd.__all__:
        assert getattr(sd, name) is not None, name


def test_empty_shape_raises():
    with pytest.raises(StructuralError, match="no primitives"):
        sd.AnalyticShape([], "empty")


@pytest.mark.parametrize("build, name", [
    pytest.param(lambda: sd.Sphere(np.zeros(3), 0.0), "sphere radius", id="sphere-zero-radius"),
    pytest.param(lambda: sd.Sphere(np.zeros(2), 0.3), "sphere center", id="sphere-2d-center"),
    pytest.param(lambda: sd.Sphere([0.0, np.nan, 0.0], 0.3), "sphere center", id="sphere-nan-center"),
    pytest.param(lambda: sd.Box(np.zeros(3), np.zeros(3)), "box half_extents", id="box-zero-extents"),
    pytest.param(lambda: sd.Box(np.zeros(3), [0.1, 0.1, np.inf]), "box half_extents", id="box-inf-extent"),
    pytest.param(lambda: sd.Box(np.zeros(3), np.full(3, 0.1), -0.01), "box round_radius", id="box-negative-rounding"),
    pytest.param(lambda: sd.Cylinder(np.zeros(3), 3, 0.2, 0.2), "cylinder axis", id="cylinder-axis-3"),
    pytest.param(lambda: sd.Cylinder(np.zeros(3), 1.0, 0.2, 0.2), "cylinder axis", id="cylinder-float-axis"),
    pytest.param(lambda: sd.Cylinder(np.zeros(3), 1, 0.0, 0.2), "cylinder radius", id="cylinder-zero-radius"),
    pytest.param(lambda: sd.Cylinder(np.zeros(3), 1, 0.2, -0.1), "cylinder half_height", id="cylinder-negative-height"),
    pytest.param(lambda: sd.Ellipsoid(np.zeros(3), [0.3, 0.0, 0.3]), "ellipsoid radii", id="ellipsoid-zero-radius"),
    pytest.param(lambda: sd.Ellipsoid(np.zeros((3, 1)), np.full(3, 0.3)), "ellipsoid center", id="ellipsoid-3x1-center"),
])
def test_a_degenerate_primitive_fails_when_built(build, name):
    # these used to reach sampling or the SDF: a bare numpy ValueError
    # (NaN multinomial weights, a broadcast error) or all-NaN normals
    with pytest.raises(StructuralError, match=f"^{name}"):
        build()


@pytest.mark.parametrize("prim", [
    sd.Sphere(np.array([0.8, 0.0, 0.0]), 0.3),
    sd.Box(np.zeros(3), np.array([0.2, 0.2, 0.2]), round_radius=0.9),
    sd.Cylinder(np.array([0.0, 0.0, -0.5]), axis=2, radius=0.2, half_height=0.6),
], ids=["sphere", "rounded-box", "cylinder"])
def test_a_shape_outside_the_unit_cube_fails_when_built(prim):
    with pytest.raises(StructuralError, match="^shape big exceeds the unit cube"):
        sd.AnalyticShape([prim, sd.Sphere(np.zeros(3), 0.1)], "big")


def test_shape_sdf_rejects_a_single_point():
    with pytest.raises(StructuralError, match=r"points has shape \(3,\)"):
        unit_sphere().sdf(np.zeros(3))


@pytest.mark.parametrize("counts", [(10.5, 10), (10, 2.5), (0, 10), (10, True)])
def test_sample_shape_rejects_non_integer_counts(counts):
    with pytest.raises(StructuralError, match="sample count"):
        sd.sample_shape(unit_sphere(), *counts, 0)


# ---------------------------------------------------------------------------
# rendering


def make_camera(distance=2.0, width=64, height=64):
    pose = look_at(np.array([0.0, 0.0, distance]))
    return pose, sd.default_intrinsics(width, height)


def test_render_center_pixel_depth():
    s = unit_sphere(0.5)
    pose, intr = make_camera(2.0)
    img = sd.render_depth(s, pose, intr, (64, 64))
    cy, cx = int(round(intr.cy)), int(round(intr.cx))
    want = ray_sphere_depth(pose.inverse().translation, pose.rotation[2], 0.5)
    # center pixel looks straight at the sphere: depth = 2.0 - 0.5
    assert img.mask[cy, cx]
    assert img.depth[cy, cx] == pytest.approx(1.5, abs=1e-3)
    assert want == pytest.approx(1.5, abs=1e-12)


def test_render_depth_matches_ray_sphere_oracle():
    s = unit_sphere(0.42)
    rng = substream(6, "cams")
    pose = sd.hemisphere_camera(rng)
    intr = sd.default_intrinsics(48, 48)
    img = sd.render_depth(s, pose, intr, (48, 48))
    rot = pose.rotation
    origin = -rot.T @ pose.translation
    ys, xs = np.nonzero(img.mask)
    k = substream(7, "pick").choice(len(ys), size=min(120, len(ys)), replace=False)
    errs = []
    for i in k:
        u, v = xs[i], ys[i]
        d_cam = np.array([(u - intr.cx) / intr.fx, (v - intr.cy) / intr.fy, 1.0])
        dir_can = rot.T @ (d_cam / np.linalg.norm(d_cam))
        t = ray_sphere_depth(origin, dir_can, 0.42)
        errs.append(abs(img.depth[v, u] - t / np.linalg.norm(d_cam)))
    errs = np.array(errs)
    # grazing silhouette pixels converge slowest; bulk must be tight
    assert np.quantile(errs, 0.95) < 1e-3
    assert np.median(errs) < 1e-5


def test_render_misses_masked_out():
    s = unit_sphere(0.3)
    pose, intr = make_camera(2.5)
    img = sd.render_depth(s, pose, intr, (64, 64))
    assert img.mask.any() and not img.mask.all()
    assert (img.depth[~img.mask] == 0).all()


def test_render_lift_roundtrip_on_oracle():
    for cat in ("sphere", "chair"):
        shape = sd.make_family(cat, 1, seed=17)[0]
        pose = sd.hemisphere_camera(substream(18, cat))
        intr = sd.default_intrinsics(56, 56)
        img = sd.render_depth(shape, pose, intr, (56, 56))
        ys, xs = np.nonzero(img.mask)
        d = img.depth[ys, xs]
        pts_cam = np.stack(
            [d * (xs - intr.cx) / intr.fx, d * (ys - intr.cy) / intr.fy, d], axis=1
        )
        pts_can = pose.inverse().transform(pts_cam)
        vals = np.abs(shape.sdf(pts_can))
        assert np.quantile(vals, 0.99) < 1e-3


def test_render_camera_inside_raises():
    s = unit_sphere(0.5)
    pose = look_at(np.array([0.0, 0.0, 0.3]))
    with pytest.raises(StructuralError):
        sd.render_depth(s, pose, sd.default_intrinsics(32, 32), (32, 32))


@pytest.mark.parametrize("resolution", [(0, 0), (-4, 3), (8, 0), (8.5, 8), (8, 8.0), (8,), (8, 8, 3), 8])
def test_render_depth_rejects_bad_resolution(resolution):
    # a resolution that is not a pair used to fail in tuple unpacking
    pose = look_at(np.array([0.0, 0.0, 2.0]))
    with pytest.raises(StructuralError, match="resolution"):
        sd.render_depth(unit_sphere(0.5), pose, sd.default_intrinsics(8, 8), resolution)


@pytest.mark.parametrize(
    "values, field", [((np.nan, 10, 1, 1), "fx"), ((np.inf, 10, 1, 1), "fx"), ((10, 0, 1, 1), "fy")]
)
def test_intrinsics_reject_non_finite_or_non_positive_focal_lengths(values, field):
    with pytest.raises(StructuralError, match=field):
        sd.Intrinsics(*values)


@pytest.mark.parametrize(
    "values, field", [((20, 20, np.nan, 10), "cx"), ((20, 20, 10, -np.inf), "cy"), ((20, 20, np.inf, 10), "cx")]
)
def test_render_depth_rejects_a_non_finite_principal_point(values, field):
    # a NaN principal point used to render an image with no hit and no error
    shape = sd.make_family("car", 1, seed=0)[0]
    with pytest.raises(StructuralError, match=f"principal point {field}"):
        sd.render_depth(shape, look_at([0.0, 0.5, 2.5]), sd.Intrinsics(*values), (24, 24))


def test_intrinsics_accept_a_principal_point_outside_the_image():
    assert sd.Intrinsics(20, 20, -3.5, 40.0).cx == -3.5


@pytest.mark.parametrize("bad", [np.nan, np.inf, -0.5])
def test_depth_image_rejects_non_finite_or_negative_depth(bad):
    depth = np.ones((6, 8))
    depth[2, 3] = bad
    depth[4, 5] = bad
    with pytest.raises(DataError, match=r"pixel \(2, 3\)"):
        sd.DepthImage(depth, sd.default_intrinsics(8, 6))


# ---------------------------------------------------------------------------
# occlusion


def full_mask_image(n=100):
    return sd.DepthImage(np.ones((n, n)), sd.default_intrinsics(n, n))


def test_occlude_zero_ratio_bypass():
    img = full_mask_image()
    out = sd.occlude(img, 0.0, seed=1)
    np.testing.assert_array_equal(out.mask, img.mask)
    np.testing.assert_array_equal(out.depth, img.depth)


def test_occlude_pixel_count():
    img = full_mask_image(100)
    out = sd.occlude(img, 0.25, seed=3)
    removed = int(img.mask.sum() - out.mask.sum())
    assert abs(removed - 2500) <= 50 * 4  # 2% of 10000 = 200


def test_occlude_removed_region_is_rectangle():
    img = full_mask_image(80)
    out = sd.occlude(img, 0.4, seed=5)
    removed = img.mask & ~out.mask
    ys, xs = np.nonzero(removed)
    h = ys.max() - ys.min() + 1
    w = xs.max() - xs.min() + 1
    assert removed.sum() == h * w


def test_occlude_ratio_out_of_range():
    img = full_mask_image(50)
    with pytest.raises(StructuralError):
        sd.occlude(img, 0.9, seed=0)
    with pytest.raises(StructuralError):
        sd.occlude(img, 0.01, seed=0)


@pytest.mark.parametrize("ratio", ["0.3", None, np.nan])
def test_occlude_rejects_a_ratio_that_is_not_a_real(ratio):
    # a string or None used to raise a bare TypeError from the range test
    with pytest.raises(StructuralError, match="^occlusion ratio"):
        sd.occlude(full_mask_image(20), ratio, seed=0)


@pytest.mark.parametrize("ratio", [0.0, 0.3])
@pytest.mark.parametrize("seed", [None, -1])
def test_occlude_refuses_a_seed_that_is_not_a_count_at_every_ratio(ratio, seed):
    # ratio 0 used to return the image without checking the seed
    with pytest.raises(StructuralError, match=f"^seed must be an integer >= 0, got {seed}$"):
        sd.occlude(full_mask_image(20), ratio, seed)


def test_occlude_deterministic():
    img = full_mask_image(60)
    a = sd.occlude(img, 0.5, seed=8)
    b = sd.occlude(img, 0.5, seed=8)
    np.testing.assert_array_equal(a.mask, b.mask)


def test_occlude_on_rendered_image():
    s = unit_sphere(0.5)
    pose, intr = make_camera(2.0, 80, 80)
    img = sd.render_depth(s, pose, intr, (80, 80))
    valid = img.mask.sum()
    out = sd.occlude(img, 0.5, seed=2)
    removed = valid - out.mask.sum()
    assert abs(removed - 0.5 * valid) <= 0.02 * valid + 1

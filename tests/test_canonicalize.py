import numpy as np
import pytest

from shapefit import canonicalize as canon
from shapefit import synthdata as sd
from shapefit.errors import DataError, StructuralError
from shapefit.geometry import Pose, look_at, rotation_about_axis
from shapefit.metrics import pose_error
from shapefit.rng import substream

from oracles import identity_pose, random_rotation


@pytest.mark.parametrize("points", [np.zeros((4, 6)), np.zeros(3), np.zeros((2, 3, 1))], ids=["4x6", "flat", "2x3x1"])
def test_point_cloud_rejects_a_wrong_shape(points):
    # a (4, 6) array used to become 8 points without an error
    with pytest.raises(StructuralError, match="points"):
        canon.PointCloud(points)


def test_lift_depth_principal_point():
    intr = sd.Intrinsics(100.0, 100.0, 32.0, 32.0)
    depth = np.zeros((64, 64))
    depth[32, 32] = 2.0
    img = sd.DepthImage(depth, intr)
    pc = canon.lift_depth(img)
    np.testing.assert_allclose(pc.points, [[0.0, 0.0, 2.0]])


def test_lift_depth_unit_tangent():
    intr = sd.Intrinsics(30.0, 30.0, 10.0, 10.0)
    depth = np.zeros((64, 64))
    depth[10, 40] = 1.0  # u = cx + fx
    img = sd.DepthImage(depth, intr)
    pc = canon.lift_depth(img)
    np.testing.assert_allclose(pc.points, [[1.0, 0.0, 1.0]])


def test_lift_depth_projection_roundtrip():
    shape = sd.make_family("sphere", 1, seed=1)[0]
    pose = sd.hemisphere_camera(substream(2, "cam"))
    intr = sd.default_intrinsics(48, 48)
    img = sd.render_depth(shape, pose, intr, (48, 48))
    pc = canon.lift_depth(img)
    ys, xs = np.nonzero(img.mask)
    u = intr.fx * pc.points[:, 0] / pc.points[:, 2] + intr.cx
    v = intr.fy * pc.points[:, 1] / pc.points[:, 2] + intr.cy
    np.testing.assert_allclose(u, xs, atol=1e-9)
    np.testing.assert_allclose(v, ys, atol=1e-9)
    np.testing.assert_allclose(pc.points[:, 2], img.depth[ys, xs], atol=0)


def test_lift_depth_empty_mask_raises():
    img = sd.DepthImage(np.zeros((8, 8)), sd.default_intrinsics(8, 8))
    with pytest.raises(DataError):
        canon.lift_depth(img)


def test_lift_depth_rejects_nan_pixel():
    # a NaN is not "no return": it fails instead of being dropped
    depth = np.ones((8, 8))
    depth[1, 6] = np.nan
    with pytest.raises(DataError, match=r"pixel \(1, 6\)"):
        canon.lift_depth(sd.DepthImage(depth, sd.default_intrinsics(8, 8)))


def test_lift_depth_accepts_a_nested_list():
    intr = sd.default_intrinsics(4, 4)
    got = canon.lift_depth(sd.DepthImage([[1.0, 0.0], [0.0, 2.0]], intr))
    want = canon.lift_depth(sd.DepthImage(np.array([[1.0, 0.0], [0.0, 2.0]]), intr))
    assert got.points.tobytes() == want.points.tobytes()


def asymmetric_cloud(n=600, seed=3):
    """Cloud with distinct, skewed principal axes (PCA-friendly)."""
    rng = substream(seed, "cloud")
    x = rng.gamma(2.0, 1.0, n) * 0.8
    y = rng.gamma(2.0, 1.0, n) * 0.35
    z = rng.gamma(2.0, 1.0, n) * 0.15
    return np.stack([x - x.mean(), y - y.mean(), z - z.mean()], axis=1)


def test_pca_recovers_known_rigid_transform():
    base = asymmetric_cloud()
    template = asymmetric_cloud(400, seed=15)  # a fixed frame alignment
    est = canon.PcaEstimator()
    pose_base = est.estimate(base, lambda: template)
    rng = substream(4, "rt")
    for _ in range(5):
        rot = random_rotation(rng)
        t = rng.uniform(-0.5, 0.5, 3)
        moved = base @ rot.T + t
        pose_moved = est.estimate(moved, lambda: template)
        # both should land in the same estimator frame:
        # pose_moved o (R,t) == pose_base
        composed = pose_moved.compose(Pose(rot, t))
        deg, trans = pose_error(composed, pose_base)
        assert deg < 1e-6
        assert trans < 1e-9


def test_pca_degenerate_rank_raises():
    flat = np.zeros((100, 3))
    flat[:, 0] = np.linspace(0, 1, 100)
    with pytest.raises(StructuralError, match="axis"):
        canon.PcaEstimator().estimate(flat, lambda: asymmetric_cloud(100))


def test_icp_recovers_transform_full_overlap():
    template = asymmetric_cloud(800, seed=5)
    rng = substream(6, "icp")
    est = canon.IcpEstimator()
    for _ in range(3):
        rot = random_rotation(rng)
        t = rng.uniform(-0.3, 0.3, 3)
        # observation = template moved out of canonical: x_cam = R x + t
        observed = template @ rot.T + t
        pose = est.estimate(observed, lambda: template)
        # recovered pose should map observations back onto the template
        gt = Pose(rot, t).inverse()
        deg, trans = pose_error(pose, gt)
        assert deg < 1.0
        assert trans < 1e-3


def test_icp_identity_when_already_canonical():
    template = asymmetric_cloud(500, seed=7)
    pose = canon.IcpEstimator().estimate(template, lambda: template)
    deg, trans = pose_error(pose, identity_pose())
    assert deg < 1.0
    assert trans < 1e-3


@pytest.mark.parametrize(
    "setting, field",
    [({"rot_noise_deg": np.nan}, "rot_noise_deg"), ({"rot_noise_deg": -1.0}, "rot_noise_deg"),
     ({"trans_noise": np.inf}, "trans_noise"), ({"trans_noise": -0.1}, "trans_noise")],
)
def test_noisy_oracle_rejects_bad_noise_levels(setting, field):
    with pytest.raises(StructuralError, match=field):
        canon.NoisyOracleEstimator(identity_pose(), **setting)


@pytest.mark.parametrize("gt_pose", [None, np.eye(4)])
def test_noisy_oracle_needs_a_pose(gt_pose):
    # a missing pose used to build and then fail in estimate with a bare AttributeError
    with pytest.raises(StructuralError, match="^gt_pose must be a Pose"):
        canon.NoisyOracleEstimator(gt_pose, 1.0, 0.1)


def test_partial_sphere_translation_only():
    # rotation is unobservable on a half sphere; translation must be right
    rng = substream(8, "half")
    dirs = rng.standard_normal((2000, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    dirs = dirs[dirs[:, 2] > 0]
    r = 0.5
    center = np.array([0.2, -0.1, 0.3])
    observed = center + r * dirs
    full = r * np.concatenate([dirs, -dirs])  # canonical template at origin
    pose = canon.IcpEstimator().estimate(observed, lambda: full)
    # transformed observation must sit on the template sphere surface
    moved = pose.transform(observed)
    assert np.abs(np.linalg.norm(moved, axis=1) - r).mean() < 0.05


def test_noisy_oracle_exact_noise_magnitude():
    gt = Pose(rotation_about_axis([0, 1, 0], 0.4), np.array([0.1, 0.2, 0.3]))
    est = canon.NoisyOracleEstimator(gt, rot_noise_deg=10.0, trans_noise=0.05, seed=9)

    def template():
        pytest.fail("the noisy oracle asked for the template")

    pose = est.estimate(np.zeros((5, 3)), template)
    deg, trans = pose_error(pose, gt)
    assert deg == pytest.approx(10.0, abs=1e-9)
    assert trans == pytest.approx(0.05, abs=1e-12)


def test_frame_align_identity_stub():
    # a cloud aligned to itself as the template: the PCA frames cancel
    t = asymmetric_cloud(100, seed=10)
    pose = canon.PcaEstimator().estimate(t, lambda: t)
    deg, trans = pose_error(pose, identity_pose())
    assert deg < 1e-9 and trans < 1e-12


def test_frame_align_fixed_rotation_stub_inverts():
    # the template is the cloud rotated by R, so the frame alignment is R
    rot = rotation_about_axis([0, 0, 1], np.pi / 2)
    t = asymmetric_cloud(100, seed=11)
    pose = canon.PcaEstimator().estimate(t, lambda: t @ rot.T)
    np.testing.assert_allclose(pose.rotation, rot, atol=1e-12)
    np.testing.assert_allclose(pose.translation, 0.0, atol=1e-12)


def test_canonicalize_requires_and_validates_template():
    # PCA and ICP call template(); a bad template cloud cannot be built, so
    # the call fails naming the cloud's points
    cloud = canon.PointCloud(asymmetric_cloud(100, seed=12))
    for est in (canon.PcaEstimator(), canon.IcpEstimator()):
        with pytest.raises(StructuralError, match="^points has non-finite"):
            canon.canonicalize(est, cloud, lambda: canon.PointCloud(np.full((4, 3), np.nan)))


def test_canonicalize_pca_plus_frame_align_end_to_end():
    template = asymmetric_cloud(900, seed=13)
    tc = canon.PointCloud(template)
    rng = substream(14, "e2e")
    est = canon.PcaEstimator()
    for _ in range(3):
        rot = random_rotation(rng)
        t = rng.uniform(-0.5, 0.5, 3)
        observed = canon.PointCloud(template @ rot.T + t)
        pose = canon.canonicalize(est, observed, lambda: tc)
        gt = Pose(rot, t).inverse()
        deg, trans = pose_error(pose, gt)
        assert deg < 1.0
        assert trans < 1e-6

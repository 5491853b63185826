import numpy as np
import pytest

from shapefit import geometry as geo
from shapefit.errors import StructuralError
from shapefit.rng import substream

from oracles import fd_grad_vector, random_rotation, rel_err


def test_rot6d_identity():
    r = geo.rot6d_to_matrix(np.array([1.0, 0, 0, 0, 1.0, 0]))
    np.testing.assert_array_equal(r, np.eye(3))


def test_rot6d_scale_invariance():
    r = geo.rot6d_to_matrix(np.array([2.0, 0, 0, 0, 3.0, 0]))
    np.testing.assert_allclose(r, np.eye(3), atol=1e-15)
    rng = substream(0, "scale")
    for _ in range(20):
        r6 = rng.standard_normal(6)
        base = geo.rot6d_to_matrix(r6)
        s1, s2 = rng.uniform(0.1, 10, 2)
        scaled = np.concatenate([s1 * r6[:3], s2 * r6[3:]])
        np.testing.assert_allclose(geo.rot6d_to_matrix(scaled), base, atol=1e-13)


def test_rot6d_roundtrip_100_random_rotations():
    rng = substream(1, "rot")
    for _ in range(100):
        rot = random_rotation(rng)
        r6 = geo.Pose(rot, np.zeros(3)).rot6d
        back = geo.rot6d_to_matrix(r6)
        assert np.abs(back - rot).max() < 1e-10


def test_rot6d_orthonormal_det_plus_one():
    rng = substream(2, "r6")
    for _ in range(100):
        r6 = rng.standard_normal(6)
        rot = geo.rot6d_to_matrix(r6)
        assert np.abs(rot.T @ rot - np.eye(3)).max() < 1e-12
        assert abs(np.linalg.det(rot) - 1.0) < 1e-12


def test_rot6d_degenerate_raises():
    # rot6d_backward used to return all NaN with only a RuntimeWarning
    for r6, message in [(np.zeros(6), "first vector is degenerate"),
                        (np.array([1.0, 0, 0, 2.0, 0, 0]), "second vector is parallel to the first")]:
        with pytest.raises(StructuralError, match=message):
            geo.rot6d_to_matrix(r6)
        with pytest.raises(StructuralError, match=message):
            geo.rot6d_backward(r6, np.eye(3))


def test_rot6d_backward_matches_fd():
    rng = substream(3, "bwd")
    for _ in range(10):
        r6 = rng.standard_normal(6)
        target = random_rotation(rng)

        def loss_of(v):
            return float(np.sum((geo.rot6d_to_matrix(v) - target) ** 2))

        grad_rot = 2.0 * (geo.rot6d_to_matrix(r6) - target)
        got = geo.rot6d_backward(r6, grad_rot)
        want = fd_grad_vector(loss_of, r6, h=1e-6)
        assert rel_err(got, want, floor=1e-7) < 1e-5


def test_pose_transform_inverse_compose():
    rng = substream(4, "pose")
    rot = random_rotation(rng)
    t = rng.standard_normal(3)
    pose = geo.Pose(rot, t)
    pts = rng.standard_normal((50, 3))
    fwd = pose.transform(pts)
    back = pose.inverse().transform(fwd)
    np.testing.assert_allclose(back, pts, atol=1e-12)
    ident = pose.compose(pose.inverse())
    np.testing.assert_allclose(ident.rotation, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(ident.translation, 0.0, atol=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_pose_validate_rejects_non_finite_rot6d(bad):
    # joint_optimize builds its Pose from the matrix of the rot6d it stepped;
    # that matrix used to be NaN, with only a RuntimeWarning
    r6 = np.array([1.0, 0, 0, 0, 1.0, 0])
    r6[4] = bad
    with pytest.raises(StructuralError, match="^rot6d has non-finite entries, first at index 4$"):
        geo.Pose(geo.rot6d_to_matrix(r6), np.zeros(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_rot6d_backward_rejects_non_finite_arguments(bad):
    # it used to return a NaN gradient
    r6 = np.array([1.0, 0, 0, 0, 1.0, 0])
    grad_rot = np.eye(3)
    grad_rot[1, 2] = bad
    with pytest.raises(StructuralError, match="^grad_rot has non-finite entries, first at index 1$"):
        geo.rot6d_backward(r6, grad_rot)
    r6[4] = bad
    with pytest.raises(StructuralError, match="^rot6d has non-finite entries, first at index 4$"):
        geo.rot6d_backward(r6, np.eye(3))


@pytest.mark.parametrize(
    "rot, t, field",
    [(np.zeros(5), np.zeros(3), "rotation"), (np.zeros((2, 3)), np.zeros(3), "rotation"),
     (np.array([1.0, 0, 0, 0, 1.0, 0]), np.zeros(3), "rotation"),
     (np.eye(3), np.zeros(4), "translation"), (np.eye(3), np.zeros((3, 1)), "translation")],
    ids=["rot6d-5", "rot6d-2x3", "rot6d", "translation-4", "translation-3x1"],
)
def test_pose_rejects_a_wrong_shape(rot, t, field):
    # a rotation is a (3, 3) matrix: a 6D vector or a (2, 3) block of one is refused
    with pytest.raises(StructuralError, match=f"^{field} has shape"):
        geo.Pose(rot, t)


@pytest.mark.parametrize(
    "rot",
    [np.diag([1.0, 1.0, -1.0]), 2.0 * np.eye(3), np.ones((3, 3)), np.eye(3) + 1e-5, np.full((3, 3), np.nan)],
    ids=["reflection", "scaled", "ones", "off-by-1e-5", "nan"],
)
def test_pose_rejects_non_rotations(rot):
    with pytest.raises(StructuralError, match="^rotation is not a rotation matrix"):
        geo.Pose(rot, np.zeros(3))


def test_a_pose_keeps_the_matrix_it_is_given():
    # within _ROTATION_TOL of a rotation, and kept as given: a Pose used to
    # store two columns and re-derive the matrix by Gram-Schmidt
    rot = geo.rotation_about_axis([1.0, 2.0, 3.0], 0.7) + 1e-9
    t = np.array([0.1, -0.2, 0.3])
    pose = geo.Pose(rot, t)
    assert np.array_equal(pose.rotation, rot)
    assert not pose.rotation.flags.writeable
    assert np.array_equal(pose.rot6d, np.concatenate([rot[:, 0], rot[:, 1]]))
    np.testing.assert_array_equal(pose.transform(np.eye(3)), np.eye(3) @ rot.T + t)


def test_look_at_points_camera_at_target():
    pose = geo.look_at(np.array([0.0, 0.0, 2.0]))
    # target (origin) maps to (0, 0, distance) on the camera z-axis
    np.testing.assert_allclose(pose.transform(np.zeros((1, 3)))[0], [0, 0, 2.0], atol=1e-12)
    assert abs(np.linalg.det(pose.rotation) - 1.0) < 1e-12
    rng = substream(5, "eyes")
    for _ in range(20):
        eye = rng.uniform(-3, 3, 3)
        if np.linalg.norm(eye) < 0.5:
            continue
        pose = geo.look_at(eye)
        cam_origin = pose.transform(np.zeros((1, 3)))[0]
        np.testing.assert_allclose(cam_origin[:2], 0.0, atol=1e-10)
        assert cam_origin[2] == pytest.approx(np.linalg.norm(eye))


def test_rotation_about_axis():
    rot = geo.rotation_about_axis([0, 0, 1], np.pi / 2)
    np.testing.assert_allclose(rot @ [1, 0, 0], [0, 1, 0], atol=1e-12)


@pytest.mark.parametrize("axis, message", [
    pytest.param(np.zeros(3), "rotation axis .* has no direction", id="axis0"),
    pytest.param([1e-12, 0, 0], "rotation axis .* has no direction", id="axis1"),
    pytest.param([np.nan, 0, 0], "axis has non-finite entries, first at index 0$", id="axis2"),
    pytest.param([np.inf, 0, 0], "axis has non-finite entries, first at index 0$", id="axis3"),
    # finite entries whose norm overflows: without the norm guard this
    # would silently return the identity
    pytest.param([1e308, 1e308, 0], "rotation axis .* has no direction", id="infinite-norm"),
])
def test_rotation_about_an_axis_with_no_direction_raises(axis, message):
    # a zero axis used to give an all-NaN matrix with only a RuntimeWarning,
    # and a non-finite one was said to have no direction
    with np.errstate(over="ignore"), pytest.raises(StructuralError, match=f"^{message}"):
        geo.rotation_about_axis(axis, 1.0)


@pytest.mark.parametrize("eye, index", [([np.nan, 0, 2], 0), ([0, 1, np.inf], 2)], ids=["nan", "inf"])
def test_look_at_names_a_non_finite_eye(eye, index):
    # this used to blame the rotation: "rotation is not a rotation matrix: |R^T R - I| = nan"
    with pytest.raises(StructuralError, match=f"^eye has non-finite entries, first at index {index}$"):
        geo.look_at(eye)

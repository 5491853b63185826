import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from shapefit import metrics
from shapefit.errors import StructuralError
from shapefit.geometry import Pose, rotation_about_axis
from shapefit.rng import substream

from oracles import (
    brute_force_chamfer, brute_force_fscore, identity_pose, quat_angle_deg, random_rotation,
)


def test_chamfer_identical_clouds_zero():
    pts = substream(0, "a").uniform(-1, 1, (100, 3))
    assert metrics.chamfer(pts, pts) == 0.0


def test_chamfer_hand_computed():
    a = np.array([[0.0, 0.0, 0.0]])
    b = np.array([[0.01, 0.0, 0.0]])
    assert metrics.chamfer(a, b) == pytest.approx(2.0, abs=1e-12)


def test_chamfer_matches_brute_force_bit_exact():
    rng = substream(1, "clouds")
    for _ in range(50):
        a = rng.uniform(-1, 1, (200, 3))
        b = rng.uniform(-1, 1, (200, 3))
        assert metrics.chamfer(a, b) == brute_force_chamfer(a, b)


def test_chamfer_symmetry():
    rng = substream(2, "sym")
    a = rng.uniform(-1, 1, (150, 3))
    b = rng.uniform(-1, 1, (130, 3))
    assert abs(metrics.chamfer(a, b) - metrics.chamfer(b, a)) < 1e-12


def test_chamfer_empty_raises():
    with pytest.raises(StructuralError):
        metrics.chamfer(np.zeros((0, 3)), np.zeros((5, 3)))


_coord = st.floats(-1e3, 1e3) | st.sampled_from([np.nan, np.inf, -np.inf])


def _cloud(n):
    return arrays(np.float64, (n, 3), elements=_coord)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(1, 12).flatmap(_cloud), st.integers(1, 12).flatmap(_cloud))
def test_metrics_on_arbitrary_clouds(a, b):
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        for fn in (metrics.chamfer, metrics.fscore):
            with pytest.raises(StructuralError, match="non-finite"):
                fn(a, b)
        return
    assert metrics.chamfer(a, b) == brute_force_chamfer(a, b)
    # F at a threshold of 0.5: the clouds scaled so that it reads DEFAULT_TAU
    a, b = a * (metrics.DEFAULT_TAU / 0.5), b * (metrics.DEFAULT_TAU / 0.5)
    f = metrics.fscore(a, b)
    assert f == pytest.approx(brute_force_fscore(a, b, metrics.DEFAULT_TAU), abs=1e-15)
    assert 0.0 <= f <= 1.0


def test_nan_point_raises_naming_cloud():
    a = substream(9, "nan").uniform(-1, 1, (20, 3))
    b = a.copy()
    b[7, 1] = np.nan
    with pytest.raises(StructuralError, match="cloud B"):
        metrics.chamfer(a, b)
    with pytest.raises(StructuralError, match="prediction"):
        metrics.fscore(b, a)


def test_fscore_identical_clouds():
    pts = substream(3, "f").uniform(-1, 1, (80, 3))
    assert metrics.fscore(pts, pts) == 1.0
    pts = pts * (metrics.DEFAULT_TAU / 1e-9)  # a threshold of 1e-9 on the unscaled cloud
    assert metrics.fscore(pts, pts) == 1.0


def test_fscore_disjoint_zero():
    a = np.array([[0.0, 0.0, 0.0]])
    b = np.array([[1.0, 0.0, 0.0]])
    assert metrics.fscore(a, b) == 0.0


def test_fscore_hand_computed():
    a = np.array([[0.0, 0, 0], [0.005, 0, 0]])
    b = np.array([[0.0, 0, 0]])
    assert metrics.fscore(a, b) == 1.0


def test_fscore_strict_inequality():
    a = np.array([[0.0, 0, 0]])
    b = np.array([[0.01, 0, 0]])
    # distance exactly DEFAULT_TAU: strict < excludes the match
    assert metrics.fscore(a, b) == 0.0


def test_fscore_matches_brute_force():
    rng = substream(4, "fb")
    for _ in range(50):
        a = rng.uniform(-1, 1, (200, 3))
        b = rng.uniform(-1, 1, (200, 3))
        scale = metrics.DEFAULT_TAU / rng.uniform(0.05, 0.5)  # a threshold in [0.05, 0.5] on a and b
        a, b = a * scale, b * scale
        assert metrics.fscore(a, b) == brute_force_fscore(a, b, metrics.DEFAULT_TAU)


def test_metrics_rigid_invariance():
    rng = substream(5, "rigid")
    a = rng.uniform(-1, 1, (120, 3))
    b = rng.uniform(-1, 1, (110, 3))
    a, b = a * (metrics.DEFAULT_TAU / 0.2), b * (metrics.DEFAULT_TAU / 0.2)  # F at a threshold of 0.2
    cd0 = metrics.chamfer(a, b)
    f0 = metrics.fscore(a, b)
    for _ in range(5):
        rot = random_rotation(rng)
        t = rng.uniform(-1, 1, 3)
        a2 = a @ rot.T + t
        b2 = b @ rot.T + t
        assert metrics.chamfer(a2, b2) == pytest.approx(cd0, abs=1e-9)
        assert metrics.fscore(a2, b2) == f0


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=2**31))
def test_fscore_self_is_one_property(n, seed):
    pts = substream(seed, "hyp").uniform(-1, 1, (n, 3)) * (metrics.DEFAULT_TAU / 0.001)
    assert metrics.fscore(pts, pts) == 1.0


def test_pose_error_identity():
    p = identity_pose()
    assert metrics.pose_error(p, p) == (0.0, 0.0)


def test_pose_error_ninety_about_z():
    gt = identity_pose()
    est = Pose(rotation_about_axis([0, 0, 1], np.pi / 2), np.zeros(3))
    deg, trans = metrics.pose_error(est, gt)
    assert deg == pytest.approx(90.0, abs=1e-9)
    assert trans == 0.0


def test_pose_error_matches_quaternion_oracle():
    rng = substream(6, "quat")
    for _ in range(30):
        ra = random_rotation(rng)
        rb = random_rotation(rng)
        est = Pose(ra, rng.uniform(-1, 1, 3))
        gt = Pose(rb, rng.uniform(-1, 1, 3))
        deg, _ = metrics.pose_error(est, gt)
        assert deg == pytest.approx(quat_angle_deg(ra, rb), abs=1e-8)


def test_normalize_pair_scales_by_gt_cube():
    rng = substream(7, "norm")
    gt = rng.uniform(-2, 2, (100, 3))
    pred = gt + 0.1
    p2, g2 = metrics.normalize_pair(pred, gt)
    side = (g2.max(axis=0) - g2.min(axis=0)).max()
    assert side == pytest.approx(1.0)


def test_eval_report_identical_clouds():
    rng = substream(8, "rep")
    report = metrics.EvalReport()
    pts = rng.uniform(-1, 1, (500, 3))
    rec = report.add("shape0", pts, pts)
    assert rec.chamfer_x1e4 == 0.0
    assert rec.f1 == 1.0

"""Depth lifting and canonical-frame initialization.

The learned prior lives in a canonical frame; observations arrive in the
camera frame. A pluggable estimator maps camera-frame points to a noisy
initial pose into the prior's frame.

An estimator has a `name` and an `estimate(points, template)` method;
`template()` returns the prior's canonical-frame template points, and the
estimator alone decides whether to call it: PCA aligns its frame to the
template's PCA frame, ICP registers onto the template, and the noisy
oracle never calls it, so no template is built for it. PCA and ICP read
both clouds through `check_cloud`, which names a bad one.
"""

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import DataError, StructuralError, _read_only, check_cloud, check_count, check_real, check_type
from .geometry import Pose, rotation_about_axis
from .rng import substream
from .synthdata.render import DepthImage

ICP_MAX_ITERATIONS = 50
ICP_REJECTION_FACTOR = 3.0  # matches farther than this times the median distance are dropped
ICP_TOL = 1e-6  # stop once the mean squared residual changes by less than this fraction


@dataclass(frozen=True)
class PointCloud:
    """(N, 3) float64 points, at least one and all finite; checked when built."""

    points: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "points", _read_only(check_cloud("points", self.points)))


def lift_depth(depth):
    """Back-project the positive-depth pixels of a DepthImage to the camera
    frame. An image with none raises DataError."""
    mask = check_type("depth", depth, DepthImage, "a DepthImage").mask
    if not mask.any():
        raise DataError("depth image has no positive-depth pixel")
    ys, xs = np.nonzero(mask)
    d = depth.depth[ys, xs]
    intr = depth.intrinsics
    pts = np.stack(
        [d * (xs - intr.cx) / intr.fx, d * (ys - intr.cy) / intr.fy, d], axis=1
    )
    return PointCloud(pts)


# ---------------------------------------------------------------------------
# pose estimators


def _pca_pose(points):
    """Pose into a checked cloud's own PCA frame: centroid at 0, axes by variance, signs by skew."""
    mu = points.mean(axis=0)
    centered = points - mu
    cov = centered.T @ centered / len(points)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    evals = evals[order]
    evecs = evecs[:, order]
    if evals[0] <= 0 or evals[2] / evals[0] < 1e-12:
        axis = int(np.argmin(evals))
        raise StructuralError(f"degenerate point covariance: principal axis {axis} has no extent")
    # resolve each axis sign by the skewness of projections; ties keep +
    proj = centered @ evecs
    skew = (proj**3).sum(axis=0)
    flip = skew < 0
    evecs[:, flip] *= -1.0
    skew = np.abs(skew)
    if np.linalg.det(evecs) < 0:
        weakest = int(np.argmin(skew))
        evecs[:, weakest] *= -1.0
    rot = evecs.T  # x_est = E^T (x - mu)
    return Pose(rot, -rot @ mu)


class PcaEstimator:
    """Axis alignment by PCA with third-moment sign disambiguation.

    The cloud's PCA frame is mapped onto the prior's through the
    template's PCA frame, which the template points (already in the
    prior's frame) fix.
    """

    name = "pca"

    def estimate(self, points, template):
        pose = _pca_pose(check_cloud("points", points))
        return _pca_pose(check_cloud("template points", template())).inverse().compose(pose)


class IcpEstimator:
    """Point-to-point ICP against the prior's template cloud, seeded by PCA.

    Registers observations directly into the template's frame, so its
    canonical frame coincides with the prior's. It has no settings: the
    ICP_* constants fix its iteration cap, outlier rejection and tolerance.
    """

    name = "icp"

    def estimate(self, points, template):
        target = check_cloud("template points", template())
        pose = PcaEstimator().estimate(points, lambda: target)
        tree = cKDTree(target)
        prev = np.inf
        for _ in range(ICP_MAX_ITERATIONS):
            moved = pose.transform(points)
            dists, idx = tree.query(moved, k=1)
            keep = dists <= ICP_REJECTION_FACTOR * np.median(dists)
            if keep.sum() < 3:
                break
            src = moved[keep]
            dst = target[idx[keep]]
            resid = float(np.mean(dists[keep] ** 2))
            rot, t = _kabsch(src, dst)
            step = Pose(rot, t)
            pose = step.compose(pose)
            if prev < np.inf and abs(prev - resid) <= ICP_TOL * max(prev, 1e-30):
                break
            prev = resid
        return pose


@dataclass(frozen=True)
class NoisyOracleEstimator:
    """Ground-truth pose perturbed by a fixed-magnitude random rotation and
    translation, a controlled initialization-error level; checked when built."""

    gt_pose: Pose
    rot_noise_deg: float = 0.0
    trans_noise: float = 0.0
    seed: int = 0
    name = "noisy-oracle"

    def __post_init__(self):
        check_type("gt_pose", self.gt_pose, Pose, "a Pose")
        check_real("rot_noise_deg", self.rot_noise_deg)
        check_real("trans_noise", self.trans_noise)
        check_count("seed", self.seed, 0)

    def estimate(self, points, template):
        rng = substream(self.seed, "pose-noise")
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        delta_rot = rotation_about_axis(axis, np.radians(self.rot_noise_deg))
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        rot = delta_rot @ self.gt_pose.rotation
        t = self.gt_pose.translation + self.trans_noise * direction
        return Pose(rot, t)


def _kabsch(src, dst):
    """Least-squares rigid transform aligning src onto dst."""
    mu_s = src.mean(axis=0)
    mu_d = dst.mean(axis=0)
    h = (src - mu_s).T @ (dst - mu_d)
    u, _, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    diag = np.diag([1.0, 1.0, d])
    rot = vt.T @ diag @ u.T
    return rot, mu_d - rot @ mu_s


def canonicalize(estimator, cloud, template):
    """Full initial pose: camera frame -> prior canonical frame.

    cloud: a PointCloud in the camera frame. template: a function of no
    arguments that returns the prior's canonical-frame template PointCloud;
    it runs only if the estimator asks for the template points.
    """
    check_type("cloud", cloud, PointCloud, "a PointCloud")
    check_type("estimator.estimate", getattr(estimator, "estimate", None), Callable, "a callable")
    return estimator.estimate(
        cloud.points, lambda: check_type("template()", template(), PointCloud, "a PointCloud").points
    )

"""Depth lifting and canonical-frame initialization.

The learned prior lives in a canonical frame; observations arrive in the
camera frame. A pluggable estimator maps camera-frame points to a noisy
initial pose into the prior's frame.

An estimator has a `name`, an `estimate(points, template_points)` method
and a `needs_template` class attribute: when set, `canonicalize` must be
given the prior's canonical-frame template cloud, and passes its points
on (PCA aligns its frame to the template's PCA frame, ICP registers onto
the template).
"""

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import DataError, StructuralError, check_count, check_real
from .geometry import Pose, rotation_about_axis
from .rng import substream


@dataclass
class PointCloud:
    points: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)

    def validate(self):
        if len(self.points) == 0:
            raise StructuralError("point cloud is empty")
        if not np.isfinite(self.points).all():
            raise StructuralError("point cloud has non-finite entries")
        return self


def lift_depth(depth):
    """Back-project the positive-depth pixels of a DepthImage to the camera
    frame. A non-finite or negative depth raises DataError."""
    mask = depth.validate().mask
    if not mask.any():
        raise DataError("depth image has no positive-depth pixel")
    ys, xs = np.nonzero(mask)
    d = depth.depth[ys, xs]
    intr = depth.intrinsics
    pts = np.stack(
        [d * (xs - intr.cx) / intr.fx, d * (ys - intr.cy) / intr.fy, d], axis=1
    )
    return PointCloud(pts).validate()


# ---------------------------------------------------------------------------
# pose estimators


class PcaEstimator:
    """Axis alignment by PCA with third-moment sign disambiguation.

    Without a template the pose lands in the cloud's own PCA frame. With
    one, that frame is mapped onto the prior's through the template's PCA
    frame, which the template points (already in the prior's frame) fix.
    """

    name = "pca"
    needs_template = True  # for frame alignment

    def estimate(self, points, template_points=None):
        points = np.asarray(points, dtype=np.float64)
        mu = points.mean(axis=0)
        centered = points - mu
        cov = centered.T @ centered / len(points)
        evals, evecs = np.linalg.eigh(cov)
        order = np.argsort(evals)[::-1]
        evals = evals[order]
        evecs = evecs[:, order]
        if evals[0] <= 0 or evals[2] / evals[0] < 1e-12:
            axis = int(np.argmin(evals))
            raise StructuralError(
                f"degenerate point covariance: principal axis {axis} has no extent"
            )
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
        pose = Pose.from_matrix(rot, -rot @ mu).validate()
        if template_points is None:
            return pose
        return self.estimate(template_points).inverse().compose(pose)


class IcpEstimator:
    """Point-to-point ICP against the prior's template cloud, seeded by PCA.

    Registers observations directly into the template's frame, so its
    canonical frame coincides with the prior's.
    """

    name = "icp"
    needs_template = True  # the registration target

    def __init__(self, max_iterations=50, rejection_factor=3.0, tol=1e-6):
        check_count("max_iterations", max_iterations, 0)
        check_real("rejection_factor", rejection_factor, strict=True)
        check_real("tol", tol)
        self.max_iterations = max_iterations
        self.rejection_factor = rejection_factor
        self.tol = tol

    def estimate(self, points, template_points=None):
        if template_points is None:
            raise StructuralError("ICP needs the prior template cloud")
        points = np.asarray(points, dtype=np.float64)
        target = np.asarray(template_points, dtype=np.float64)
        pose = PcaEstimator().estimate(points, target)
        tree = cKDTree(target)
        prev = np.inf
        for _ in range(self.max_iterations):
            moved = pose.transform(points)
            dists, idx = tree.query(moved, k=1)
            keep = dists <= self.rejection_factor * np.median(dists)
            if keep.sum() < 3:
                break
            src = moved[keep]
            dst = target[idx[keep]]
            resid = float(np.mean(dists[keep] ** 2))
            rot, t = _kabsch(src, dst)
            step = Pose.from_matrix(rot, t)
            pose = step.compose(pose)
            if prev < np.inf and abs(prev - resid) <= self.tol * max(prev, 1e-30):
                break
            prev = resid
        return pose.validate()


class NoisyOracleEstimator:
    """Ground-truth pose perturbed by a fixed-magnitude random rotation and
    translation; reproduces a controlled initialization-error level."""

    name = "noisy-oracle"
    needs_template = False

    def __init__(self, gt_pose, rot_noise_deg=0.0, trans_noise=0.0, seed=0):
        check_real("rot_noise_deg", rot_noise_deg)
        check_real("trans_noise", trans_noise)
        self.gt_pose = gt_pose
        self.rot_noise_deg = rot_noise_deg
        self.trans_noise = trans_noise
        self.seed = seed

    def estimate(self, points, template_points=None):
        rng = substream(self.seed, "pose-noise")
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        delta_rot = rotation_about_axis(axis, np.radians(self.rot_noise_deg))
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        rot = delta_rot @ self.gt_pose.matrix()
        t = self.gt_pose.translation + self.trans_noise * direction
        return Pose.from_matrix(rot, t).validate()


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


def canonicalize(estimator, cloud, template=None):
    """Full initial pose: camera frame -> prior canonical frame.

    template: the prior's canonical-frame template PointCloud, required
    by estimators that declare `needs_template`.
    """
    cloud.validate()
    if template is not None:
        template.validate()
    elif getattr(estimator, "needs_template", False):
        raise StructuralError(f"estimator {estimator.name!r} needs the prior template cloud")
    return estimator.estimate(cloud.points, None if template is None else template.points)

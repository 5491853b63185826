"""Point-cloud evaluation: bidirectional chamfer distance (x1e4) and
F-score at DEFAULT_TAU, plus pose error reporting.

Nearest neighbors come from a k-d tree, but distances are recomputed from
the matched pairs with plain vectorized arithmetic so results are
bit-identical to an O(N^2) scan.
"""

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import StructuralError, check_cloud, check_type
from .geometry import Pose

CHAMFER_SCALE = 1e4
DEFAULT_TAU = 0.01


def _nn_sq_dists(a, b):
    """Squared distance from each point of `a` to its nearest point in `b`,
    recomputed exactly from the matched pairs."""
    tree = cKDTree(b)
    _, idx = tree.query(a, k=1)
    return np.sum((a - b[idx]) ** 2, axis=1)


def chamfer(a, b):
    """Bidirectional chamfer distance, squared-distance convention, x1e4."""
    a = check_cloud("cloud A", a)
    b = check_cloud("cloud B", b)
    return float((_nn_sq_dists(a, b).mean() + _nn_sq_dists(b, a).mean()) * CHAMFER_SCALE)


def fscore(pred, gt):
    """F1 of point matches within DEFAULT_TAU (strict inequality); on clouds
    scaled by `normalize_pair`, F@1%."""
    pred = check_cloud("prediction", pred)
    gt = check_cloud("ground truth", gt)
    tau_sq = DEFAULT_TAU * DEFAULT_TAU
    precision = float(np.mean(_nn_sq_dists(pred, gt) < tau_sq))
    recall = float(np.mean(_nn_sq_dists(gt, pred) < tau_sq))
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def pose_error(est, gt):
    """(geodesic rotation error in degrees, translation error)."""
    check_type("est", est, Pose, "a Pose")
    check_type("gt", gt, Pose, "a Pose")
    cos = (np.trace(est.rotation.T @ gt.rotation) - 1.0) / 2.0
    deg = float(np.degrees(np.arccos(np.clip(cos, -1.0, 1.0))))
    trans = float(np.linalg.norm(est.translation - gt.translation))
    return deg, trans


def normalize_pair(pred, gt):
    """Scale and center both clouds by the ground-truth bounding cube so a
    threshold of 0.01 reads as 1% of the cube side."""
    gt = check_cloud("ground truth", gt)
    pred = check_cloud("prediction", pred)
    lo = gt.min(axis=0)
    hi = gt.max(axis=0)
    center = (lo + hi) / 2
    side = float((hi - lo).max())
    if side <= 0:
        raise StructuralError("ground-truth cloud is degenerate")
    return (pred - center) / side, (gt - center) / side


@dataclass(frozen=True)
class ShapeRecord:
    name: str
    chamfer_x1e4: float
    f1: float


class EvalReport:
    """Surface scores of one shape at a time on normalized clouds: `add`
    returns a `ShapeRecord` and keeps nothing, so there is no aggregate, and
    no pose error (see `pose_error`)."""

    def add(self, name, pred_points, gt_points):
        """Chamfer and F-score at DEFAULT_TAU of one shape, on clouds scaled
        by `normalize_pair`."""
        pred, gt = normalize_pair(pred_points, gt_points)
        return ShapeRecord(name, chamfer(pred, gt), fscore(pred, gt))

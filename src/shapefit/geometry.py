"""Rigid transforms and the continuous 6D rotation parametrization.

A Pose is a rotation matrix and a translation. The 6D parametrization
(two 3-vectors orthonormalized by Gram-Schmidt; Zhou et al., CVPR 2019)
is the one `inference.joint_optimize` steps: it has no angle wrap-around
or double-cover discontinuities, which keeps gradient-based pose
refinement well behaved.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import StructuralError, _read_only, check_finite_array, check_real, check_shape, check_type

_DEGENERATE_NORM = 1e-9
_ROTATION_TOL = 1e-6  # |R^T R - I| accepted by Pose


def _gram_schmidt(r6):
    """The Gram-Schmidt steps of a rot6d (a1, a2): (a2, b1, b2, |a1|, |u2|)
    with b1 = a1 / |a1|, u2 = a2 - (b1.a2) b1 and b2 = u2 / |u2|. A vector
    of no length or a non-finite entry raises StructuralError."""
    r6 = check_finite_array("rot6d", r6, (6,))
    a1, a2 = r6[:3], r6[3:]
    n1 = np.linalg.norm(a1)
    if n1 < _DEGENERATE_NORM:
        raise StructuralError("rot6d first vector is degenerate")
    b1 = a1 / n1
    u2 = a2 - (b1 @ a2) * b1
    n2 = np.linalg.norm(u2)
    if n2 < _DEGENERATE_NORM:
        raise StructuralError("rot6d second vector is parallel to the first")
    return a2, b1, u2 / n2, n1, n2


def rot6d_to_matrix(r6):
    """Gram-Schmidt two 3-vectors into a rotation matrix (columns b1,b2,b3)."""
    _, b1, b2, _, _ = _gram_schmidt(r6)
    return np.stack([b1, b2, np.cross(b1, b2)], axis=1)


def rot6d_backward(r6, grad_rot):
    """Adjoint of rot6d_to_matrix: maps dL/dR (3,3) to dL/dr6 (6,)."""
    a2, b1, b2, n1, n2 = _gram_schmidt(r6)
    grad_rot = check_finite_array("grad_rot", grad_rot, (3, 3))
    gb1, gb2, gb3 = grad_rot.T.copy()  # columns, copied: the caller's array is not written
    # b3 = b1 x b2
    gb1 += np.cross(b2, gb3)
    gb2 += np.cross(gb3, b1)
    # b2 = u2 / ||u2||
    gu2 = (gb2 - (b2 @ gb2) * b2) / n2
    # u2 = a2 - (b1.a2) b1
    ga2 = gu2 - (b1 @ gu2) * b1
    gb1 += -(gu2 @ b1) * a2 - (b1 @ a2) * gu2
    # b1 = a1 / ||a1||
    ga1 = (gb1 - (b1 @ gb1) * b1) / n1
    return np.concatenate([ga1, ga2])


@dataclass(frozen=True)
class Pose:
    """SE(3) transform: x_out = R x_in + t. Keeps read-only copies of the
    rotation matrix R it is given and of t. Checked when built: R proper
    (|R^T R - I| <= _ROTATION_TOL and det R > 0) and t finite."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        rot = _read_only(check_shape("rotation", self.rotation, (3, 3)))
        object.__setattr__(self, "rotation", rot)
        t = _read_only(check_finite_array("translation", self.translation, (3,)))
        object.__setattr__(self, "translation", t)
        with np.errstate(invalid="ignore"):  # a non-finite entry makes err NaN, which fails
            err = np.abs(rot.T @ rot - np.eye(3)).max()
        if not err <= _ROTATION_TOL:
            raise StructuralError(f"rotation is not a rotation matrix: |R^T R - I| = {err:.3g}")
        if not np.linalg.det(rot) > 0:
            raise StructuralError("rotation is not a rotation matrix: determinant -1 (a reflection)")

    @property
    def rot6d(self):
        """The first two columns of R: the 6D parametrization of the rotation."""
        return np.concatenate([self.rotation[:, 0], self.rotation[:, 1]])

    def transform(self, points):
        points = check_shape("points", points, ("N", 3))
        return points @ self.rotation.T + self.translation

    def inverse(self):
        return Pose(self.rotation.T, -self.rotation.T @ self.translation)

    def compose(self, other):
        """self after other: (self @ other)(x) = self(other(x))."""
        check_type("other", other, Pose, "a Pose")
        rot = self.rotation
        return Pose(rot @ other.rotation, rot @ other.translation + self.translation)


def rotation_about_axis(axis, angle_rad):
    """Rodrigues rotation about a (not necessarily unit) axis."""
    axis = check_finite_array("axis", axis, (3,))
    check_real("angle_rad", angle_rad, -math.inf)
    norm = np.linalg.norm(axis)
    if not (np.isfinite(norm) and norm >= _DEGENERATE_NORM):  # [1e308, 1e308, 0] has an infinite norm
        raise StructuralError(f"rotation axis {axis} has no direction")
    axis = axis / norm
    kx, ky, kz = axis
    k = np.array([[0, -kz, ky], [kz, 0, -kx], [-ky, kx, 0]])
    return np.eye(3) + np.sin(angle_rad) * k + (1 - np.cos(angle_rad)) * (k @ k)


def look_at(eye):
    """Camera-from-world pose for a pinhole camera at `eye` facing the
    origin, with +z up (+y up when the camera looks along the z axis).

    Camera convention: +z forward, +x right, +y down in the image.
    """
    eye = check_finite_array("eye", eye, (3,))
    fwd = -eye
    n = np.linalg.norm(fwd)
    if n < _DEGENERATE_NORM:
        raise StructuralError("camera eye coincides with the origin")
    fwd = fwd / n
    up = np.array([0.0, 0.0, 1.0])
    if np.linalg.norm(np.cross(up, fwd)) < 1e-6:
        up = np.array([0.0, 1.0, 0.0])
    right = np.cross(up, fwd)
    right /= np.linalg.norm(right)
    down = np.cross(fwd, right)
    rot = np.stack([right, down, fwd], axis=0)
    return Pose(rot, -rot @ eye)

"""Pinhole depth rendering by sphere tracing the analytic SDF oracle,
plus the rectangular occlusion generator used by the robustness protocol."""

from dataclasses import dataclass

import numpy as np

from ..errors import DataError, StructuralError, _read_only, check_count, check_real, check_shape, check_type
from ..geometry import Pose, look_at
from ..rng import substream
from .shapes import AnalyticShape

HIT_THRESHOLD = 1e-4
STEP_RELAXATION = 0.9
MAX_STEPS = 256


@dataclass(frozen=True)
class Intrinsics:
    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        check_real("focal length fx", self.fx, strict=True)
        check_real("focal length fy", self.fy, strict=True)
        check_real("principal point cx", self.cx, minimum=-np.inf)
        check_real("principal point cy", self.cy, minimum=-np.inf)


def default_intrinsics(width, height):
    """Square pixels, principal point at the image centre, 50-degree
    horizontal field of view."""
    check_count("width", width)
    check_count("height", height)
    f = 0.5 * width / np.tan(np.radians(50.0) / 2)
    return Intrinsics(f, f, (width - 1) / 2.0, (height - 1) / 2.0)


@dataclass(frozen=True)
class DepthImage:
    """Per-pixel z-depth (meters) with the camera model: a single depth
    image. A pixel with no return holds 0, so the valid pixels are exactly
    the positive ones (`mask`). Checked when built: a non-finite or
    negative pixel raises DataError naming it."""

    depth: np.ndarray  # (H, W) float64
    intrinsics: Intrinsics

    def __post_init__(self):
        depth = check_shape("depth", self.depth, ("N", "N"))
        bad = np.argwhere(~(np.isfinite(depth) & (depth >= 0)))
        if len(bad):
            y, x = bad[0]
            raise DataError(f"depth pixel ({y}, {x}) is {depth[y, x]}; depths must be finite and >= 0")
        check_type("intrinsics", self.intrinsics, Intrinsics, "an Intrinsics")
        object.__setattr__(self, "depth", _read_only(depth))

    @property
    def mask(self):
        return self.depth > 0


def render_depth(shape, camera_pose, intrinsics, resolution):
    """Sphere-trace the shape's SDF to a noise-free DepthImage at (width, height).

    `camera_pose` maps canonical-frame points into the camera frame; the
    image does not keep it. Depth is the camera-frame z coordinate of the
    first hit, so lifting a pixel through the intrinsics reproduces the hit
    point exactly.
    """
    check_type("shape", shape, AnalyticShape, "an AnalyticShape")
    check_type("camera_pose", camera_pose, Pose, "a Pose")
    check_type("intrinsics", intrinsics, Intrinsics, "an Intrinsics")
    width, height = check_shape("image resolution", resolution, (2,), np.int64)
    for v in resolution:
        check_count("image resolution", v)
    rot = camera_pose.rotation
    origin = -rot.T @ camera_pose.translation  # camera center, canonical frame
    if np.linalg.norm(origin) <= shape.bounding_radius():
        raise StructuralError("camera must be outside the shape's bounding sphere")

    u = np.arange(width, dtype=np.float64)
    v = np.arange(height, dtype=np.float64)
    uu, vv = np.meshgrid(u, v)
    rays_cam = np.stack(
        [(uu - intrinsics.cx) / intrinsics.fx, (vv - intrinsics.cy) / intrinsics.fy, np.ones_like(uu)],
        axis=-1,
    ).reshape(-1, 3)
    ray_norms = np.linalg.norm(rays_cam, axis=1)
    dirs = (rays_cam / ray_norms[:, None]) @ rot  # R^T applied row-wise

    n = dirs.shape[0]
    t = np.zeros(n)
    t_max = np.linalg.norm(origin) + shape.bounding_radius() + 0.5
    active = np.ones(n, dtype=bool)
    hit = np.zeros(n, dtype=bool)
    # skip ahead to the bounding sphere to save steps
    b = dirs @ origin
    disc = b * b - (origin @ origin - shape.bounding_radius() ** 2)
    misses = disc < 0
    active[misses] = False
    t_enter = -b - np.sqrt(np.maximum(disc, 0.0))
    t[active] = np.maximum(t_enter[active], 0.0)

    for _ in range(MAX_STEPS):
        if not active.any():
            break
        idx = np.flatnonzero(active)
        pts = origin + t[idx, None] * dirs[idx]
        d = shape.sdf(pts)
        hits_now = d < HIT_THRESHOLD
        hit[idx[hits_now]] = True
        active[idx[hits_now]] = False
        t[idx] += STEP_RELAXATION * np.maximum(d, 0.0)
        escaped = t[idx] > t_max
        active[idx[escaped]] = False

    # polish hits onto the zero level set with damped Newton along the ray
    idx = np.flatnonzero(hit)
    h = 1e-6
    for _ in range(6):
        pts = origin + t[idx, None] * dirs[idx]
        d = shape.sdf(pts)
        slope = (shape.sdf(pts + h * dirs[idx]) - d) / h
        # approaching from outside, slope < 0; Newton step t -= d / slope
        t[idx] += d / np.clip(-slope, 0.25, None)

    depth = np.zeros(n)
    depth[hit] = t[hit] / ray_norms[hit]
    return DepthImage(depth.reshape(height, width), intrinsics)


def hemisphere_camera(rng):
    """Random camera on the upper viewing hemisphere, looking at the origin:
    any azimuth, 15-70 degrees elevation, 1.8-2.6 from the origin."""
    check_type("rng", rng, np.random.Generator, "a numpy Generator")
    azimuth = rng.uniform(0.0, 2 * np.pi)
    elevation = np.radians(rng.uniform(15.0, 70.0))
    d = rng.uniform(1.8, 2.6)
    eye = d * np.array(
        [np.cos(elevation) * np.cos(azimuth), np.cos(elevation) * np.sin(azimuth), np.sin(elevation)]
    )
    return look_at(eye)


def occlude(depth, ratio, seed):
    """Zero the depth in a random axis-aligned rectangle covering `ratio` of
    the valid pixels (within 2%). ratio == 0 is an internal bypass returning
    `depth` itself."""
    check_type("depth", depth, DepthImage, "a DepthImage")
    check_real("occlusion ratio", ratio)
    check_count("seed", seed, 0)  # before the bypass, so ratio 0 refuses what any other ratio refuses
    if ratio == 0:
        return depth
    if not 0.05 <= ratio <= 0.85:
        raise StructuralError(f"occlusion ratio {ratio} outside [0.05, 0.85]")
    rng = substream(seed, "occlude")
    mask = depth.mask
    valid = int(mask.sum())
    if valid == 0:
        raise DataError("cannot occlude an empty mask")
    target = ratio * valid
    tol = 0.02 * valid
    rows, cols = np.nonzero(mask)
    out = depth.depth.copy()
    for _ in range(64):
        k = rng.integers(len(rows))
        cy, cx = rows[k], cols[k]
        aspect = np.exp(rng.uniform(-0.7, 0.7))
        rect = _fit_rectangle(mask, cy, cx, aspect, target, tol)
        if rect is not None:
            y0, y1, x0, x1 = rect
            out[y0:y1, x0:x1] = 0.0
            return DepthImage(out, depth.intrinsics)
    raise DataError(f"could not place an occluder covering {ratio:.0%} of the mask")


def _fit_rectangle(mask, cy, cx, aspect, target, tol):
    """Binary-search a half-size so the rectangle at (cy, cx) covers ~target
    masked pixels. Returns (y0, y1, x0, x1) or None."""
    h, w = mask.shape

    def count(s):
        y0 = max(0, int(np.floor(cy - s * aspect)))
        y1 = min(h, int(np.ceil(cy + s * aspect)) + 1)
        x0 = max(0, int(np.floor(cx - s / aspect)))
        x1 = min(w, int(np.ceil(cx + s / aspect)) + 1)
        return mask[y0:y1, x0:x1].sum(), (y0, y1, x0, x1)

    lo, hi = 0.0, float(max(h, w))
    best = None
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        c, rect = count(mid)
        if abs(c - target) <= tol:
            best = rect
            break
        if c < target:
            lo = mid
        else:
            hi = mid
    return best

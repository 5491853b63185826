"""Procedural analytic shapes with exact signed-distance oracles.

A shape is a union of primitives in the canonical frame. A primitive has
four methods: `sdf(p)`, closed form or machine-precision iterative;
`sample_surface(n, rng)`, up to n surface points and the outward unit
normals of the faces it drew them on; `area()`; `bbox()`. The union SDF
(min over primitives) is exact outside and a conservative lower bound
inside, so surface sampling only keeps points where a single primitive
attains the minimum.
"""

from dataclasses import dataclass, fields

import numpy as np

from ..errors import (
    DataError, StructuralError, _read_only, check_cloud, check_count, check_finite_array, check_real, check_shape,
    check_type,
)
from ..rng import substream

# margin kept between samples and primitive edges/rims so that normals and
# finite-difference gradients at sample points are well defined
EDGE_MARGIN = 1e-4
# minimum |sdf| every other primitive must have for a surface sample (unique-min rule)
UNIQUE_GAP = 1e-4
_SURFACE_TOL = 1e-9
MAX_SAMPLING_ROUNDS = 60  # candidate draws before surface sampling gives up


# ---------------------------------------------------------------------------
# primitives: each checks its parameters when built


def _check_vector(name, value, minimum=-np.inf):
    """`value` as a read-only (3,) float64 array of finite entries > `minimum`, else StructuralError."""
    vec = check_shape(name, value, (3,))
    for v in vec:
        check_real(name, float(v), minimum, strict=True)
    return _read_only(vec)


@dataclass(frozen=True)
class Sphere:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _check_vector("sphere center", self.center))
        check_real("sphere radius", self.radius, strict=True)

    def sdf(self, p):
        return np.linalg.norm(p - self.center, axis=1) - self.radius

    def sample_surface(self, n, rng):
        dirs = rng.standard_normal((n, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        pts = self.center + self.radius * dirs
        d = pts - self.center  # the SDF's offset, so normals are its gradient at the stored points
        return pts, d / np.linalg.norm(d, axis=1, keepdims=True)

    def area(self):
        return 4 * np.pi * self.radius**2

    def bbox(self):
        return self.center - self.radius, self.center + self.radius


@dataclass(frozen=True)
class Box:
    """Axis-aligned box, rounded by `round_radius`: the Minkowski sum of the
    core box (`half_extents`) and a sphere, whose exact SDF is the core's
    minus the radius.

    With a radius, `sample_surface` offsets samples of the core's flat faces
    only, so the rounded edges and corners get no samples, and `area` (that
    of the box grown by the radius) overstates the true area."""

    center: np.ndarray
    half_extents: np.ndarray
    round_radius: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "center", _check_vector("box center", self.center))
        object.__setattr__(self, "half_extents", _check_vector("box half_extents", self.half_extents, 0.0))
        check_real("box round_radius", self.round_radius)

    def sdf(self, p):
        q = np.abs(p - self.center) - self.half_extents
        outside = np.linalg.norm(np.maximum(q, 0.0), axis=1)
        inside = np.minimum(q.max(axis=1), 0.0)
        return outside + inside - self.round_radius

    def sample_surface(self, n, rng):
        h = self.half_extents
        areas = 4 * np.array([h[1] * h[2], h[0] * h[2], h[0] * h[1]])
        areas = np.repeat(areas, 2)  # +face, -face per axis
        face = rng.choice(6, size=n, p=areas / areas.sum())
        axis = face // 2
        sign = np.where(face % 2 == 0, 1.0, -1.0)
        pts = rng.uniform(-1.0, 1.0, (n, 3)) * np.maximum(h - EDGE_MARGIN, 0.0)
        pts[np.arange(n), axis] = sign * h[axis]
        normals = np.zeros((n, 3))
        normals[np.arange(n), axis] = sign
        return self.center + pts + self.round_radius * normals, normals

    def area(self):
        h = self.half_extents + self.round_radius
        return 8 * (h[0] * h[1] + h[1] * h[2] + h[0] * h[2])

    def bbox(self):
        c, h = self.center, self.half_extents
        return c - h - self.round_radius, c + h + self.round_radius


@dataclass(frozen=True)
class Cylinder:
    """Capped cylinder along coordinate axis `axis`."""

    center: np.ndarray
    axis: int
    radius: float
    half_height: float

    def __post_init__(self):
        object.__setattr__(self, "center", _check_vector("cylinder center", self.center))
        check_count("cylinder axis", self.axis, 0)
        if self.axis > 2:
            raise StructuralError(f"cylinder axis must be 0, 1 or 2, got {self.axis!r}")
        check_real("cylinder radius", self.radius, strict=True)
        check_real("cylinder half_height", self.half_height, strict=True)

    def sdf(self, p):
        d = p - self.center
        perp = [i for i in range(3) if i != self.axis]
        dr = np.linalg.norm(d[:, perp], axis=1) - self.radius
        dh = np.abs(d[:, self.axis]) - self.half_height
        outside = np.sqrt(np.maximum(dr, 0.0) ** 2 + np.maximum(dh, 0.0) ** 2)
        inside = np.minimum(np.maximum(dr, dh), 0.0)
        return outside + inside

    def sample_surface(self, n, rng):
        r, hh = self.radius, self.half_height
        area_side = 2 * np.pi * r * 2 * hh
        area_caps = 2 * np.pi * r**2
        on_side = rng.random(n) < area_side / (area_side + area_caps)
        theta = rng.uniform(0, 2 * np.pi, n)
        perp = [i for i in range(3) if i != self.axis]
        caps = ~on_side
        rad, along = np.full(n, r), np.empty(n)
        along[on_side] = rng.uniform(-(hh - EDGE_MARGIN), hh - EDGE_MARGIN, on_side.sum())
        rad[caps] = np.sqrt(rng.random(caps.sum())) * max(r - EDGE_MARGIN, 0.0)
        along[caps] = np.where(rng.random(caps.sum()) < 0.5, hh, -hh)
        pts = np.zeros((n, 3))
        pts[:, perp[0]] = rad * np.cos(theta)
        pts[:, perp[1]] = rad * np.sin(theta)
        pts[:, self.axis] = along
        pts = self.center + pts
        d = pts - self.center  # the SDF's offset, as for the sphere
        normals = np.zeros((n, 3))
        radial = d[np.ix_(on_side, perp)]
        normals[np.ix_(on_side, perp)] = radial / np.linalg.norm(radial, axis=1, keepdims=True)
        normals[caps, self.axis] = np.sign(d[caps, self.axis])
        return pts, normals

    def area(self):
        return 2 * np.pi * self.radius * (2 * self.half_height + self.radius)

    def bbox(self):
        ext = np.full(3, self.radius)
        ext[self.axis] = self.half_height
        return self.center - ext, self.center + ext


@dataclass(frozen=True)
class Ellipsoid:
    """Axis-aligned ellipsoid; exact distance via bisection on the closest-
    point parameter (one monotone scalar root per query). `sample_surface`
    scales uniform directions u by the radii and keeps each with probability
    min(radii) |u / radii|, the ratio of area elements, so it returns
    area-uniform samples, fewer than asked."""

    center: np.ndarray
    radii: np.ndarray

    _BISECT_ITERS = 100

    def __post_init__(self):
        object.__setattr__(self, "center", _check_vector("ellipsoid center", self.center))
        object.__setattr__(self, "radii", _check_vector("ellipsoid radii", self.radii, 0.0))

    def sdf(self, p):
        a = self.radii
        y = np.abs(p - self.center)
        y = np.maximum(y, 1e-12)  # keep the root bracketing valid on axis planes
        a2 = a * a
        # F(t) = sum (a_i y_i / (t + a_i^2))^2 - 1, strictly decreasing on
        # (-min a^2, inf); its unique root gives the closest surface point.
        lo = np.full(y.shape[0], -a2.min())
        hi = np.linalg.norm(a * y, axis=1) + a2.max()
        for _ in range(self._BISECT_ITERS):
            mid = 0.5 * (lo + hi)
            f = np.sum((a * y / (mid[:, None] + a2)) ** 2, axis=1) - 1.0
            take_lo = f > 0
            lo = np.where(take_lo, mid, lo)
            hi = np.where(take_lo, hi, mid)
        t = 0.5 * (lo + hi)
        closest = a2 * y / (t[:, None] + a2)
        dist = np.linalg.norm(y - closest, axis=1)
        inside = np.sum((y / a) ** 2, axis=1) < 1.0
        return np.where(inside, -dist, dist)

    def sample_surface(self, n, rng):
        dirs = rng.standard_normal((n, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        keep = rng.random(n) < self.radii.min() * np.linalg.norm(dirs / self.radii, axis=1)
        pts = self.center + self.radii * dirs[keep]
        d = (pts - self.center) / np.square(self.radii)
        return pts, d / np.linalg.norm(d, axis=1, keepdims=True)

    def area(self):
        a, b, c = self.radii
        p = 1.6075  # Thomsen approximation exponent
        return 4 * np.pi * (((a * b) ** p + (b * c) ** p + (a * c) ** p) / 3) ** (1 / p)

    def bbox(self):
        return self.center - self.radii, self.center + self.radii


# ---------------------------------------------------------------------------
# shapes


@dataclass(frozen=True)
class AnalyticShape:
    """A union of primitives in the canonical frame (identity pose), checked
    when built: a list or tuple of at least one Sphere, Box, Cylinder or
    Ellipsoid, all inside the [-1, 1]^3 cube."""

    primitives: tuple
    name: str = "shape"

    def __post_init__(self):
        check_type("primitives", self.primitives, (list, tuple), "a list or tuple of primitives")
        for i, p in enumerate(self.primitives):
            check_type(f"primitive {i}", p, (Sphere, Box, Cylinder, Ellipsoid), "a Sphere, Box, Cylinder or Ellipsoid")
        object.__setattr__(self, "primitives", tuple(self.primitives))
        if not self.primitives:
            raise StructuralError(f"shape {self.name} has no primitives")
        lo, hi = self.bbox()
        if (lo < -1 - 1e-9).any() or (hi > 1 + 1e-9).any():
            raise StructuralError(f"shape {self.name} exceeds the unit cube: [{lo}, {hi}]")

    def _distances(self, p):
        """(K, N) signed distance from each of the N points to each primitive."""
        return np.stack([prim.sdf(p) for prim in self.primitives])

    def sdf(self, p):
        return self._distances(check_shape("points", p, ("N", 3))).min(axis=0)

    def bbox(self):
        los, his = zip(*(prim.bbox() for prim in self.primitives))
        return np.min(los, axis=0), np.max(his, axis=0)

    def bounding_radius(self):
        lo, hi = self.bbox()
        return float(np.linalg.norm(np.maximum(np.abs(lo), np.abs(hi))))

    # -- sampling ----------------------------------------------------------

    def sample_surface(self, n, rng):
        """Surface points with the outward unit normals their primitives
        drew them with. Candidates are drawn per primitive (area-weighted)
        and kept only where they lie on that primitive and every other one
        is at least UNIQUE_GAP away, so the union's minimum is attained
        uniquely. Rounds draw until n are kept; the kept points are joined
        in primitive order and cut to n, so a late primitive can go unsampled.
        """
        areas = np.array([prim.area() for prim in self.primitives])
        weights = areas / areas.sum()
        got_p, got_n = [], []
        remaining = n
        for _ in range(MAX_SAMPLING_ROUNDS):
            draw = max(2 * remaining, 64)
            counts = rng.multinomial(draw, weights)
            for k, (prim, cnt) in enumerate(zip(self.primitives, counts)):
                if cnt == 0:
                    continue
                pts, normals = prim.sample_surface(cnt, rng)
                d = self._distances(pts)
                ok = np.abs(d[k]) < _SURFACE_TOL
                if len(d) > 1:
                    ok &= np.delete(d, k, axis=0).min(axis=0) > UNIQUE_GAP
                got_p.append(pts[ok])
                got_n.append(normals[ok])
            have = sum(len(p) for p in got_p)
            if have >= n:
                break
            remaining = n - have
        else:
            raise DataError(
                f"surface sampling for {self.name} exhausted {MAX_SAMPLING_ROUNDS} rounds; "
                f"got {sum(len(p) for p in got_p)}/{n} points"
            )
        return np.concatenate(got_p)[:n], np.concatenate(got_n)[:n]

    def sample_free(self, n, rng):
        """Uniform free-space points in the cube with oracle SDF attached."""
        pts = rng.uniform(-1.0, 1.0, (n, 3))
        return pts, self.sdf(pts)


# ---------------------------------------------------------------------------
# shape sample sets


@dataclass(frozen=True)
class ShapeSampleSet:
    """Training samples for one shape: oriented surface points plus
    free-space points with ground-truth signed distances. Building it
    checks every entry, so a sample set is valid wherever it is read."""

    surface_points: np.ndarray  # (S, 3)
    surface_normals: np.ndarray  # (S, 3), unit
    free_points: np.ndarray  # (F, 3) in [-1, 1]^3
    free_sdf: np.ndarray  # (F,)

    def __post_init__(self):
        surface = check_cloud("surface points", self.surface_points)
        normals = check_shape("surface normals", self.surface_normals, (len(surface), 3))
        free = check_cloud("free points", self.free_points)
        if not np.abs(np.linalg.norm(normals, axis=1) - 1.0).max() <= 1e-9:  # NaN fails too
            raise StructuralError("surface normals are not finite unit vectors")
        sdf = check_finite_array("free sdf", self.free_sdf, (len(free),))
        if np.abs(free).max() > 1.0 + 1e-12:
            raise StructuralError("free points outside the [-1,1]^3 cube")
        for field, value in zip(fields(self), (surface, normals, free, sdf)):
            object.__setattr__(self, field.name, _read_only(value))


def sample_shape(shape, n_surface, n_free, seed):
    """Draw a ShapeSampleSet from the analytic oracle, deterministic per seed."""
    check_type("shape", shape, AnalyticShape, "an AnalyticShape")
    check_count("surface sample count", n_surface)
    check_count("free sample count", n_free)
    rng = substream(seed, "sample", shape.name)
    pts, normals = shape.sample_surface(n_surface, rng)
    free, sdf = shape.sample_free(n_free, rng)
    return ShapeSampleSet(pts, normals, free, sdf)


# ---------------------------------------------------------------------------
# families

CATEGORIES = ("sphere", "car", "chair", "plane")


def check_category(category):
    """`category`; raise StructuralError naming it unless it is one of CATEGORIES."""
    if category not in CATEGORIES:
        raise StructuralError(f"unknown category {category!r}, expected one of {CATEGORIES}")
    return category


def make_family(category, count, seed):
    """Deterministic list of same-category shapes with varied parameters."""
    check_count("family count", count)
    check_category(category)
    rng = substream(seed, "family", category)
    maker = {"sphere": _make_sphere, "car": _make_car, "chair": _make_chair, "plane": _make_plane}[category]
    return [maker(rng, f"{category}_{i:04d}") for i in range(count)]


def _make_sphere(rng, name):
    r = rng.uniform(0.3, 0.6)
    return AnalyticShape([Sphere(np.zeros(3), r)], name)


def _make_car(rng, name):
    half = np.array([rng.uniform(0.5, 0.62), rng.uniform(0.2, 0.26), rng.uniform(0.1, 0.16)])
    rr = rng.uniform(0.04, 0.08)
    wheel_r = rng.uniform(0.09, 0.13)
    body_z = -0.04 + rng.uniform(0.0, 0.04)
    body = Box(np.array([0.0, 0.0, body_z]), half - rr, rr)
    cabin = Box(
        np.array([rng.uniform(-0.1, 0.1), 0.0, body_z + half[2] + 0.06]),
        np.array([half[0] * 0.45, half[1] * 0.8, 0.07]),
        0.03,
    )
    wheels = []
    zw = body_z - half[2]
    for sx in (-1, 1):
        for sy in (-1, 1):
            c = np.array([sx * half[0] * 0.62, sy * half[1], zw])
            wheels.append(Cylinder(c, axis=1, radius=wheel_r, half_height=0.05))
    return AnalyticShape([body, cabin, *wheels], name)


def _make_chair(rng, name):
    seat_h = rng.uniform(-0.1, 0.05)
    seat = Box(np.array([0.0, 0.0, seat_h]), np.array([0.35, 0.35, 0.045]))
    back = Box(
        np.array([-0.35 + 0.045, 0.0, seat_h + 0.38]),
        np.array([0.045, 0.33, rng.uniform(0.3, 0.42)]),
    )
    legs = []
    leg_len = (seat_h + 0.8) / 2
    for sx in (-1, 1):
        for sy in (-1, 1):
            c = np.array([sx * 0.3, sy * 0.3, seat_h - leg_len])
            legs.append(Box(c, np.array([0.04, 0.04, leg_len])))
    parts = [seat, back, *legs]
    if rng.random() < 0.5:  # optional armrests
        for sy in (-1, 1):
            arm = Box(np.array([0.05, sy * 0.33, seat_h + 0.22]), np.array([0.25, 0.035, 0.03]))
            parts.append(arm)
    return AnalyticShape(parts, name)


def _make_plane(rng, name):
    body = Ellipsoid(np.zeros(3), np.array([rng.uniform(0.55, 0.7), 0.09, 0.09]))
    span = rng.uniform(0.5, 0.7)
    wing = Box(np.array([0.05, 0.0, 0.0]), np.array([rng.uniform(0.1, 0.15), span, 0.015]))
    tail = Box(np.array([-0.55, 0.0, 0.1]), np.array([0.06, 0.18, 0.012]))
    fin = Box(np.array([-0.55, 0.0, 0.12]), np.array([0.06, 0.012, 0.1]))
    return AnalyticShape([body, wing, tail, fin], name)

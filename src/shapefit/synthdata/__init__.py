"""Synthetic analytic shape families, sampling, depth rendering, occlusion."""

from .render import (
    DepthImage,
    Intrinsics,
    default_intrinsics,
    hemisphere_camera,
    occlude,
    render_depth,
)
from .shapes import (
    CATEGORIES,
    AnalyticShape,
    Box,
    Cylinder,
    Ellipsoid,
    Node,
    RoundedBox,
    ShapeSampleSet,
    Sphere,
    intersection,
    leaf,
    make_family,
    sample_shape,
    union,
)

__all__ = [
    "AnalyticShape", "Box", "CATEGORIES", "Cylinder", "DepthImage", "Ellipsoid",
    "Intrinsics", "Node", "RoundedBox", "ShapeSampleSet", "Sphere",
    "default_intrinsics", "hemisphere_camera", "intersection", "leaf", "make_family",
    "occlude", "render_depth", "sample_shape", "union",
]

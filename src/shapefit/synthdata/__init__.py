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
    ShapeSampleSet,
    Sphere,
    make_family,
    sample_shape,
)

__all__ = [
    "AnalyticShape", "Box", "CATEGORIES", "Cylinder", "DepthImage", "Ellipsoid",
    "Intrinsics", "ShapeSampleSet", "Sphere",
    "default_intrinsics", "hemisphere_camera", "make_family",
    "occlude", "render_depth", "sample_shape",
]

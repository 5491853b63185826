"""Exception taxonomy shared across the package, and the argument checks.

A malformed argument (an object of the wrong type, a ragged, complex or
non-numeric array, a wrong shape, no points, a non-finite entry, a setting
out of range) is a StructuralError naming the argument, raised by the
`check_*` functions below, the only code that tests an array's shape.
`check_finite_array` owns the rule that an array argument is finite.
A settings record (`InferenceConfig`, `TrainConfig`, `Intrinsics`,
`NoisyOracleEstimator`), a `Pose`, a data record (`PointCloud`,
`DepthImage`, `ShapeSampleSet`, `TriangleMesh`, `LatentCode`), a shape
(`AnalyticShape` and its primitives), a network (`MLPParams`) and a prior
(`ShapePrior`) raise when they are built, so a value of these types is
valid and no consumer checks it again. Every dataclass of the package is
frozen, and these records keep read-only copies of their arrays, so no
later write by their caller can break them. The one exception: a prior's
weight arrays and latent table are training state, stepped and extended
in place by `training.fit`.
Loss weights are module constants, not settings.
NumericError is only for non-finite values the package computes itself:
a loss term or a gradient, raised through `check_finite`, or a field
value at a grid point in marching cubes.
"""

import math
import numbers

import numpy as np


class ShapefitError(Exception):
    """Base class for all library errors."""


class StructuralError(ShapefitError):
    """Malformed inputs: dimension mismatches, invalid configs, bad tags."""


class DataError(ShapefitError):
    """Missing or unreadable files, exhausted sampling retries, bad formats."""


class NumericError(ShapefitError):
    """Non-finite computed values: a loss, a gradient, a field value."""


class StageError(ShapefitError):
    """Wraps a failure inside a named pipeline stage."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}': {cause}")
        self.stage = stage
        self.cause = cause


def check_count(name, value, minimum=1):
    """Raise StructuralError naming `name` unless `value` is an integer >= `minimum`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise StructuralError(f"{name} must be an integer >= {minimum}, got {value!r}")


def check_type(name, value, types, what):
    """`value`; raise StructuralError naming `name` unless it is an instance
    of `types`, which `what` describes ("a Pose")."""
    if not isinstance(value, types):
        raise StructuralError(f"{name} must be {what}, got {type(value).__name__}")
    return value


def check_real(name, value, minimum=0.0, strict=False):
    """Raise StructuralError naming `name` unless `value` is a finite real
    >= `minimum`, or > `minimum` when `strict`."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)
    if not real or (value <= minimum if strict else value < minimum):
        raise StructuralError(f"{name} = {value!r} must be finite and {'>' if strict else '>='} {minimum}")


def check_shape(name, value, shape, dtype=np.float64):
    """`value` as a `dtype` array; raise StructuralError naming `name` unless
    its shape is `shape`, where "N" stands for any length, and the
    conversion to `dtype` keeps every value. An object array must hold
    real numbers alone (ints past int64 and Fractions convert to float64,
    and an int past an integer `dtype` is refused)."""
    try:
        raw = np.asarray(value)
        if raw.dtype.kind in "cSU":  # a cast would drop the imaginary part or parse the text
            raise TypeError(f"it holds {raw.dtype} entries")
        with np.errstate(invalid="ignore"):
            arr = raw.astype(dtype, copy=False)
    except (TypeError, ValueError) as e:  # ragged, complex or non-numeric
        raise StructuralError(f"{name} is not a numeric array: {e}") from e
    except OverflowError as e:  # an object array's int past the range of `dtype`
        raise StructuralError(f"{name} has entries that are not {np.dtype(dtype)} values") from e
    if arr.ndim != len(shape) or any(want not in ("N", got) for want, got in zip(shape, arr.shape)):
        raise StructuralError(f"{name} has shape {arr.shape}, expected {'x'.join(map(str, shape))}")
    if raw.dtype == object:  # the cast turned None into NaN and parsed numeric text
        for entry in raw.flat:
            if not isinstance(entry, numbers.Real):
                raise StructuralError(f"{name} is not a numeric array: it holds {type(entry).__name__} entries")
    if arr.dtype.kind in "iu" and arr.dtype != raw.dtype and not np.array_equal(arr, raw):
        raise StructuralError(f"{name} has entries that are not {arr.dtype} values")
    return arr


def check_finite_array(name, value, shape):
    """`value` read through `check_shape`; raise StructuralError naming `name` and
    the first-axis index (a point, an entry, a row) of its first non-finite entry."""
    arr = check_shape(name, value, shape)
    finite = np.isfinite(arr)
    if not finite.all():
        raise StructuralError(f"{name} has non-finite entries, first at index {np.argwhere(~finite)[0, 0]}")
    return arr


def check_cloud(name, value):
    """`value` as an (N, 3) float64 point cloud; raise StructuralError naming
    `name` unless it holds at least one point and every entry is finite."""
    pts = check_finite_array(name, value, ("N", 3))
    if len(pts) == 0:
        raise StructuralError(f"{name} has no points")
    return pts


def check_finite(where, values):
    """Raise NumericError naming `where` and every entry of the dict `values`
    (numbers or arrays) that holds a non-finite value."""
    bad = [k for k, v in values.items() if not np.isfinite(v).all()]
    if bad:
        raise NumericError(f"{where}: non-finite {bad}")


def _read_only(arr):
    """A read-only copy of a checked array, for a record to keep."""
    arr = arr.copy()
    arr.flags.writeable = False
    return arr

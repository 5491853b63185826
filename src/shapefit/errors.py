"""Exception taxonomy shared across the package."""

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
    """Non-finite values encountered during optimization or evaluation."""


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


def check_real(name, value, minimum=0.0, strict=False):
    """Raise StructuralError naming `name` unless `value` is a finite real
    >= `minimum`, or > `minimum` when `strict`."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)
    if not real or (value <= minimum if strict else value < minimum):
        raise StructuralError(f"{name} = {value!r} must be finite and {'>' if strict else '>='} {minimum}")


def check_shape(name, value, shape, dtype=np.float64):
    """`value` as a `dtype` array; raise StructuralError naming `name` unless
    its shape is `shape`, where "N" stands for any length."""
    arr = np.asarray(value, dtype=dtype)
    if arr.ndim != len(shape) or any(want not in ("N", got) for want, got in zip(shape, arr.shape)):
        raise StructuralError(f"{name} has shape {arr.shape}, expected {'x'.join(map(str, shape))}")
    return arr

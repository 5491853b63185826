"""Exception taxonomy shared across the package."""

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

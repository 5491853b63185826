"""Exception taxonomy shared across the package."""


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

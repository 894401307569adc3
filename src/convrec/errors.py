"""Exception hierarchy shared across the package."""


class ConvRecError(Exception):
    """Base class for all package-specific errors."""


class ParseError(ConvRecError):
    """A corpus or graph file failed to parse. Carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ValidationError(ConvRecError):
    """Structurally valid input violated a semantic constraint (dangling id, bad split, ...)."""


class ShapeError(ConvRecError):
    """Tensor operands have incompatible shapes."""


class ConfigurationError(ConvRecError):
    """Model parameters or options do not match the structures they are applied to."""


class StateError(ConvRecError):
    """An operation ran against missing or inconsistent mutable state (e.g. absent gradients)."""


class NumericError(ConvRecError):
    """A computation produced non-finite values."""


class MissingArtifactError(ConvRecError):
    """A required on-disk artifact (bundle file, checkpoint, index) does not exist."""

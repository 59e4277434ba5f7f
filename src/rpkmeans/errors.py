"""Exception types shared across the package."""


class ParameterError(ValueError):
    """An argument violates a documented precondition."""


class DataFormatError(ValueError):
    """Input text or bytes cannot be parsed into the requested structure."""


class CrossCheckError(RuntimeError):
    """Two implementations that must agree produced different results."""

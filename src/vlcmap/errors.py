"""Exception types shared across the package."""


class VlcError(Exception):
    """Base class for all package errors."""


class ConfigError(VlcError):
    """Malformed or inconsistent configuration input."""


class InvalidParameterError(VlcError, ValueError):
    """A numeric parameter is outside its valid domain."""


class GeometryError(VlcError, ValueError):
    """Degenerate scene geometry (e.g. coincident transmitter/receiver)."""


class CalibrationError(VlcError):
    """Truncated-Gaussian calibration failed to bracket a root."""


class InfeasibleError(VlcError):
    """No feasible transmitter-user assignment exists."""

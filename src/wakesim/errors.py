"""Exception types shared across the simulator."""


class ConfigurationError(ValueError):
    """Raised when a parameter combination is invalid or unsupported."""


class CalibrationError(RuntimeError):
    """Raised when a calibration or power search finds no answer in its range."""


class UnboundedDelayError(RuntimeError):
    """Raised when an edge-delay measurement never crosses the threshold."""

"""Exception types shared across the simulator, and the one count check."""

import numpy as np


class ConfigurationError(ValueError):
    """Raised when a parameter combination is invalid or unsupported."""


class CalibrationError(RuntimeError):
    """Raised when a calibration or power search finds no answer in its range."""


class UnboundedDelayError(RuntimeError):
    """Raised when an edge-delay measurement never crosses the threshold."""


def _check_count(key: str, value):
    """Reject a count that is not an integer >= 1 before anything is drawn."""
    if not isinstance(value, (int, np.integer)) or value < 1:
        raise ConfigurationError(f"{key} must be an integer >= 1, got {value!r}")

"""Power and dB conversion helpers (linear powers are milliwatts throughout)."""

import numpy as np

BOLTZMANN_J_PER_K = 1.380649e-23


def dbm_to_mw(dbm):
    """Convert dBm to linear milliwatts (scalar or array)."""
    return 10.0 ** (np.asarray(dbm, dtype=float) / 10.0) if np.ndim(dbm) else 10.0 ** (dbm / 10.0)


def db_to_linear(db):
    """Convert a dB ratio to a linear power ratio."""
    return 10.0 ** (db / 10.0)


def thermal_noise_floor_dbm(bandwidth_hz: float, noise_figure_db: float,
                            temperature_k: float = 290.0) -> float:
    """Receiver-referred thermal noise power in dBm over the given bandwidth.

    kT at 290 K is -174 dBm/Hz; the noise figure adds on top.
    """
    ktb_mw = BOLTZMANN_J_PER_K * temperature_k * bandwidth_hz * 1e3
    return 10.0 * np.log10(ktb_mw) + noise_figure_db

"""Receiver-referred noise.

The wired-attenuator experiment this mirrors has no fading: every power
argument in the package is the level at the receiver input, and the only
stochastic element is thermal noise referred to the band-pass filter
width. Noise is injected at the complex-envelope level, so noise-only power
samples are exponential and signal-plus-noise samples follow the Rice
(noncentral chi-square, 2 dof) power law. Every noisy power in the
package, here, in montecarlo and in cc2420, is drawn one way, in float32:
the noise power E ~ Exp(N) and the phase theta ~ U(0, 2 pi) of the noise
relative to the signal (rice_noise), then amp^2 + E +
2 amp sqrt(E) cos(theta) (rice_combine).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError
from .phy import EnvelopeTrace
from .units import dbm_to_mw, thermal_noise_floor_dbm

DEFAULT_BANDWIDTH_HZ = 20e6
# Default receiver noise figure. The LNA in the modeled front end is a GaAs
# part with a sub-1.5 dB noise figure; keeping the cascade NF at 1.5 dB puts
# the 20 MHz floor near -99.5 dBm.
DEFAULT_NOISE_FIGURE_DB = 1.5


@dataclass(frozen=True)
class ChannelConfig:
    """Additive thermal noise in the receiver band.

    noise_figure_db=None disables noise entirely (noise floor -> -inf).
    bandwidth_hz is also the simulation sample rate: every simulated trace
    has one complex-envelope sample per 1/bandwidth_hz, so the kTB noise
    floor and the noise degrees of freedom agree.
    """

    noise_figure_db: Optional[float] = DEFAULT_NOISE_FIGURE_DB
    bandwidth_hz: float = DEFAULT_BANDWIDTH_HZ
    temperature_k: float = 290.0

    def __post_init__(self):
        # the comparisons are written so that NaN fails them
        if not 0 < self.bandwidth_hz < np.inf:
            raise ConfigurationError("bandwidth_hz must be positive and finite")
        if not 0 < self.temperature_k < np.inf:
            raise ConfigurationError("temperature_k must be positive and finite")
        if self.noise_figure_db is not None and not np.isfinite(self.noise_figure_db):
            raise ConfigurationError("noise_figure_db must be finite or None")

    @property
    def noise_floor_dbm(self) -> float:
        if self.noise_figure_db is None:
            return -np.inf
        return thermal_noise_floor_dbm(self.bandwidth_hz, self.noise_figure_db,
                                       self.temperature_k)

    @property
    def noise_floor_mw(self) -> float:
        floor = self.noise_floor_dbm
        return 0.0 if floor == -np.inf else dbm_to_mw(floor)


def add_noise(trace: EnvelopeTrace, cfg: ChannelConfig, rng_seed=None) -> EnvelopeTrace:
    """Add circular complex Gaussian noise to the signal amplitude.

    Each output sample is |s + n|^2 with s = sqrt(signal power) and
    E|n|^2 = noise floor, drawn by rice_power in float32: the returned
    trace is float32. Requires one trace sample per 1/bandwidth so the
    noise process has physically correct degrees of freedom.
    """
    if cfg.noise_figure_db is None:
        return trace
    if trace.sample_rate_hz != cfg.bandwidth_hz:
        raise ConfigurationError(
            f"trace rate {trace.sample_rate_hz} Hz must equal the noise bandwidth "
            f"{cfg.bandwidth_hz} Hz")
    amp = np.sqrt(trace.samples, dtype=np.float32)
    out = rice_power(np.random.default_rng(rng_seed), amp, cfg.noise_floor_mw)
    return EnvelopeTrace(samples=out, sample_rate_hz=trace.sample_rate_hz,
                         t0_us=trace.t0_us)


def rice_power(rng, amp: np.ndarray, noise_mw: float) -> np.ndarray:
    """|amp + n|^2 for circular complex Gaussian n of mean power noise_mw.

    The noise terms come from rice_noise, in float32; the result is float32
    for a float32 amp and float64 for a float64 one. noise_mw = 0 draws
    nothing.
    """
    if noise_mw == 0.0:
        return amp * amp
    return rice_combine(amp, *rice_noise(rng, amp.shape, noise_mw))


def rice_noise(rng, shape, noise_mw: float):
    """The noise terms (E, X) of the Rice power, float32, for rice_combine.

    With n = sqrt(E) e^(i theta), |a + n|^2 = a^2 + E + 2 a sqrt(E) cos(theta)
    (Rice, BSTJ 1944): E ~ Exp(noise_mw) and theta ~ U(0, 2 pi) are
    independent, so one exponential and then one uniform draw per sample
    replace the two normals of the real and imaginary parts.
    """
    e = rng.standard_exponential(shape, dtype=np.float32)
    u = rng.random(shape, dtype=np.float32)
    return rice_terms(e, u, noise_mw)


def rice_terms(e: np.ndarray, u: np.ndarray, noise_mw: float):
    """In place, float32: e -> E = noise_mw e, u -> X = sqrt(E) cos(2 pi u).

    e holds Exp(1) and u U(0, 1) draws; returns (E, X).
    """
    e *= np.float32(noise_mw)
    u *= np.float32(2.0 * np.pi)
    np.cos(u, out=u)
    u *= np.sqrt(e)
    return e, u


def rice_combine(amp, e: np.ndarray, x: np.ndarray, out=None) -> np.ndarray:
    """amp^2 + E + 2 amp X from rice_noise's terms, clamped at 0.

    Formed as amp (amp + 2 X) + E, into out if given, else into a new array
    shaped like x in the common dtype of the inputs. The clamp catches the rounding that can leave the
    sum a little under 0 where sqrt(E) ~ amp and cos(theta) ~ -1.
    """
    if out is None:
        out = np.empty_like(x, dtype=np.result_type(amp, x))
    np.multiply(x, 2, out=out)
    out += amp
    out *= amp
    out += e
    return np.maximum(out, 0, out=out)

"""802.11b transmit-side model: frame air times, MAC spacing, power envelopes.

Only the long-preamble 1 Mbps DSSS mode is modeled. At that rate a UDP
datagram rides on 192 us of PLCP preamble+header plus 64 bytes of fixed
overhead (MAC 24 + LLC/SNAP 8 + IP 20 + UDP 8 + FCS 4), so air time grows
by exactly 8 us per payload byte.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

from .errors import ConfigurationError
from .units import dbm_to_mw

PREAMBLE_HEADER_US = 192.0
OVERHEAD_BYTES = 64
SUPPORTED_PHY_RATE_BPS = 1_000_000.0

DIFS_US = 50.0
SLOT_TIME_US = 20.0

DEFAULT_INTERNAL_RATE_HZ = 20e6

WAVEFORM_MODELS = ("dsss_constant", "dsss_ripple", "ofdm_rayleigh")


def frame_duration(payload_bytes: int, phy_rate: float = SUPPORTED_PHY_RATE_BPS) -> float:
    """Air time in microseconds of a broadcast UDP frame with the given payload."""
    if payload_bytes < 0:
        raise ConfigurationError(f"payload_bytes must be >= 0, got {payload_bytes}")
    if phy_rate != SUPPORTED_PHY_RATE_BPS:
        raise ConfigurationError(
            f"unsupported phy_rate {phy_rate}; only 1 Mbps long-preamble 802.11b is modeled")
    return PREAMBLE_HEADER_US + 8.0 * (OVERHEAD_BYTES + payload_bytes) * 1e6 / phy_rate


def payload_for_duration(duration_us: float) -> int:
    """Invert frame_duration; raises if no integer payload gives this air time."""
    raw = (duration_us - PREAMBLE_HEADER_US) * SUPPORTED_PHY_RATE_BPS / 8e6 - OVERHEAD_BYTES
    payload = int(round(raw))
    if payload < 0 or frame_duration(payload) != duration_us:
        raise ConfigurationError(
            f"{duration_us} us is not an achievable frame duration at 1 Mbps")
    return payload


@dataclass(frozen=True)
class FrameSpec:
    """A single 802.11b broadcast frame, identified by its UDP payload size."""

    payload_bytes: int
    phy_rate: float = SUPPORTED_PHY_RATE_BPS
    preamble: str = "long"

    def __post_init__(self):
        if self.preamble != "long":
            raise ConfigurationError(f"unsupported preamble {self.preamble!r}")
        frame_duration(self.payload_bytes, self.phy_rate)  # validates

    @property
    def duration_us(self) -> float:
        return frame_duration(self.payload_bytes, self.phy_rate)


@dataclass(frozen=True)
class TxSchedule:
    """Timed frame sequence with DIFS-plus-backoff gaps between frames."""

    events: tuple  # of (start_time_us, FrameSpec)
    slot_time_us: float = SLOT_TIME_US
    difs_us: float = DIFS_US
    cw: int = 1

    def __post_init__(self):
        if not self.events:
            raise ConfigurationError("schedule must contain at least one frame")
        for (t0, f0), (t1, _) in zip(self.events, self.events[1:]):
            if t1 < t0 + f0.duration_us + self.difs_us - 1e-9:
                raise ConfigurationError(
                    f"frames at {t0} and {t1} us violate the DIFS separation")

    @property
    def end_us(self) -> float:
        t, frame = self.events[-1]
        return t + frame.duration_us


def build_tx_schedule(frames, cw: int = 1, rng_seed=None,
                      slot_time_us: float = SLOT_TIME_US,
                      difs_us: float = DIFS_US) -> TxSchedule:
    """Schedule frames back to back with gaps of DIFS + uniform backoff slots."""
    frames = list(frames)
    if not frames:
        raise ConfigurationError("frames must be non-empty")
    if cw < 1:
        raise ConfigurationError(f"cw must be >= 1, got {cw}")
    rng = np.random.default_rng(rng_seed)
    events = []
    t = 0.0
    for i, frame in enumerate(frames):
        if i > 0:
            backoff = int(rng.integers(0, cw))
            t += difs_us + backoff * slot_time_us
        events.append((t, frame))
        t += frame.duration_us
    return TxSchedule(events=tuple(events), slot_time_us=slot_time_us,
                      difs_us=difs_us, cw=cw)


@dataclass
class EnvelopeTrace:
    """Instantaneous received power (mW, linear) sampled at the internal rate."""

    samples: np.ndarray
    sample_rate_hz: float
    t0_us: float = 0.0

    def __post_init__(self):
        self.samples = np.asarray(self.samples)
        if self.samples.size == 0:
            raise ConfigurationError("trace must contain at least one sample")
        if self.sample_rate_hz <= 0:
            raise ConfigurationError("sample_rate_hz must be positive")
        # one pass; NaN propagates through min and fails the comparison
        if not np.min(self.samples) >= 0:
            raise ConfigurationError("power samples must be non-negative and not NaN")

    @property
    def duration_us(self) -> float:
        return self.samples.size * 1e6 / self.sample_rate_hz

    def times_us(self) -> np.ndarray:
        return self.t0_us + np.arange(self.samples.size) * (1e6 / self.sample_rate_hz)


def _ar1(rng, n: int, a: float, scale: float = 1.0, state=None, dtype=float):
    """AR(1) noise with pole a and stationary std scale; returns (g, g[-1]).

    The normals are drawn in float64 and cast to dtype. state=None starts
    from a stationary sample; otherwise the process continues from state.
    The filter's initial state is held in dtype.
    """
    c = np.sqrt(1.0 - a * a)
    w = rng.standard_normal(n).astype(dtype, copy=False)
    zi = (1.0 - c) * scale * w[0] if state is None else a * state
    g, _ = lfilter([c * scale], [1.0, -a], w, zi=np.array([zi], dtype=dtype))
    return g, float(g[-1])


def _ripple_factors(n: int, sigma_db: float, tau_us: float, rate_hz: float, rng) -> np.ndarray:
    """Mean-one log-normal ripple with AR(1) correlation in the log domain."""
    sigma_ln = sigma_db * np.log(10.0) / 10.0
    if sigma_ln == 0.0 or n == 0:
        return np.ones(n)
    g, _ = _ar1(rng, n, np.exp(-1e6 / (tau_us * rate_hz)))
    return np.exp(sigma_ln * g - 0.5 * sigma_ln ** 2)


def _check_idle(lead_us: float, tail_us: float) -> None:
    """Reject a negative or non-finite idle interval before or after a schedule."""
    for name, value in (("lead_us", lead_us), ("tail_us", tail_us)):
        if not 0.0 <= value < np.inf:  # NaN fails the comparison too
            raise ConfigurationError(f"{name} must be finite and >= 0")


def _frame_spans(schedule: TxSchedule, rate_hz: float, lead_us: float,
                 tail_us: float):
    """Place a schedule on the sample grid, the one rule that does so.

    The trace holds lead_us of idle, the schedule and tail_us of idle.
    Returns (n_samples, [(i0, i1), ...]), where frame k occupies the
    samples i0:i1.
    """
    _check_idle(lead_us, tail_us)
    per_us = rate_hz / 1e6
    n_samples = int(round((lead_us + schedule.end_us + tail_us) * per_us))
    return n_samples, [(int(round((lead_us + t_us) * per_us)),
                        int(round((lead_us + t_us + frame.duration_us) * per_us)))
                       for t_us, frame in schedule.events]


def _check_ripple(sigma_db: float, tau_us: float) -> None:
    """Reject a ripple depth or time constant that would give NaN powers."""
    if not 0.0 <= sigma_db < np.inf:  # NaN fails the comparison too
        raise ConfigurationError("ripple_sigma_db must be finite and >= 0")
    if not 0.0 < tau_us < np.inf:
        raise ConfigurationError("ripple_tau_us must be finite and > 0")


def synthesize_envelope(schedule: TxSchedule, tx_power_dbm: float,
                        waveform_model: str = "dsss_constant",
                        internal_rate_hz: float = DEFAULT_INTERNAL_RATE_HZ,
                        rng_seed=None,
                        ripple_sigma_db: float = 1.0,
                        ripple_tau_us: float = 10.0,
                        lead_us: float = 0.0,
                        tail_us: float = 0.0) -> EnvelopeTrace:
    """Synthesize the transmitted power envelope of a frame schedule.

    The mean in-frame power equals tx_power_dbm for every waveform model;
    models differ only in the per-sample fluctuation around that mean.
    lead_us/tail_us prepend and append idle (zero-power) intervals.
    """
    if waveform_model not in WAVEFORM_MODELS:
        raise ConfigurationError(f"unknown waveform_model {waveform_model!r}")
    if not np.isfinite(tx_power_dbm):
        raise ConfigurationError("tx_power_dbm must be finite")
    n_total, spans = _frame_spans(schedule, internal_rate_hz, lead_us, tail_us)
    _check_ripple(ripple_sigma_db, ripple_tau_us)
    rng = np.random.default_rng(rng_seed)
    power_mw = dbm_to_mw(tx_power_dbm)
    samples = np.zeros(n_total)
    for i0, i1 in spans:
        n = i1 - i0
        if waveform_model == "dsss_constant":
            samples[i0:i1] = power_mw
        elif waveform_model == "dsss_ripple":
            samples[i0:i1] = power_mw * _ripple_factors(
                n, ripple_sigma_db, ripple_tau_us, internal_rate_hz, rng)
        else:  # ofdm_rayleigh: exponential power law (Rayleigh envelope)
            samples[i0:i1] = power_mw * rng.standard_exponential(n)
    return EnvelopeTrace(samples=samples, sample_rate_hz=internal_rate_hz,
                         t0_us=-lead_us)

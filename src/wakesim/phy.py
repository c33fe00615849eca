"""802.11b transmit-side model: frame air times, MAC spacing, power envelopes.

Only the long-preamble 1 Mbps DSSS mode is modeled. At that rate a UDP
datagram rides on 192 us of PLCP preamble+header plus 64 bytes of fixed
overhead (MAC 24 + LLC/SNAP 8 + IP 20 + UDP 8 + FCS 4), so air time grows
by exactly 8 us per payload byte.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .units import dbm_to_mw

PREAMBLE_HEADER_US = 192.0
OVERHEAD_BYTES = 64
SUPPORTED_PHY_RATE_BPS = 1_000_000.0

DIFS_US = 50.0
SLOT_TIME_US = 20.0

DEFAULT_INTERNAL_RATE_HZ = 20e6


def frame_duration(payload_bytes: int) -> float:
    """Air time in microseconds of a broadcast UDP frame with the given payload."""
    if payload_bytes < 0:
        raise ConfigurationError(f"payload_bytes must be >= 0, got {payload_bytes}")
    return (PREAMBLE_HEADER_US
            + 8.0 * (OVERHEAD_BYTES + payload_bytes) * 1e6 / SUPPORTED_PHY_RATE_BPS)


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

    def __post_init__(self):
        frame_duration(self.payload_bytes)  # validates

    @property
    def duration_us(self) -> float:
        return frame_duration(self.payload_bytes)


@dataclass(frozen=True)
class TxSchedule:
    """Timed frame sequence with DIFS-plus-backoff gaps between frames."""

    events: tuple  # of (start_time_us, FrameSpec)
    difs_us: float = DIFS_US

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
    return TxSchedule(events=tuple(events), difs_us=difs_us)


@dataclass
class EnvelopeTrace:
    """Instantaneous received power (mW, linear) sampled at the internal rate."""

    samples: np.ndarray
    sample_rate_hz: float

    def __post_init__(self):
        self.samples = np.asarray(self.samples)
        if self.samples.size == 0:
            raise ConfigurationError("trace must contain at least one sample")
        if not 0 < self.sample_rate_hz < np.inf:
            raise ConfigurationError("sample_rate_hz must be positive and finite")
        # one pass; NaN propagates through min and fails the comparison
        if not np.min(self.samples) >= 0:
            raise ConfigurationError("power samples must be non-negative and not NaN")

    @property
    def duration_us(self) -> float:
        return self.samples.size * 1e6 / self.sample_rate_hz


def _check_idle(lead_us: float, tail_us: float) -> None:
    """Reject a negative or non-finite idle interval before or after a schedule."""
    for name, value in (("lead_us", lead_us), ("tail_us", tail_us)):
        if not 0.0 <= value < np.inf:  # NaN fails the comparison too
            raise ConfigurationError(f"{name} must be finite and >= 0")


def _frame_spans(schedule: TxSchedule, rate_hz: float, lead_us: float,
                 tail_us: float):
    """Place a schedule on the sample grid, the one rule that does so.

    The trace holds lead_us of idle, the schedule and tail_us of idle.
    Returns (n_samples, frames), frames an (m, 2) int64 array whose row k,
    (i0, i1), says that frame k occupies the samples i0:i1.
    """
    _check_idle(lead_us, tail_us)
    per_us = rate_hz / 1e6
    n_samples = int(round((lead_us + schedule.end_us + tail_us) * per_us))
    t0_us = lead_us + np.array([t_us for t_us, _ in schedule.events])
    t1_us = t0_us + np.array([frame.duration_us for _, frame in schedule.events])
    # np.rint rounds half to even, as round does
    return n_samples, np.rint(np.stack((t0_us, t1_us), axis=1) * per_us).astype(np.int64)


def synthesize_envelope(schedule: TxSchedule, tx_power_dbm: float,
                        internal_rate_hz: float = DEFAULT_INTERNAL_RATE_HZ,
                        rng_seed=None,
                        lead_us: float = 0.0,
                        tail_us: float = 0.0) -> EnvelopeTrace:
    """Synthesize the transmitted power envelope of a frame schedule.

    The power is tx_power_dbm inside every frame and zero elsewhere: the
    1 Mbps DSSS envelope is constant. lead_us/tail_us prepend and append
    idle intervals. Nothing is drawn, so rng_seed is accepted but not read.
    """
    if not np.isfinite(tx_power_dbm):
        raise ConfigurationError("tx_power_dbm must be finite")
    n_total, spans = _frame_spans(schedule, internal_rate_hz, lead_us, tail_us)
    power_mw = dbm_to_mw(tx_power_dbm)
    samples = np.zeros(n_total)
    for i0, i1 in spans:
        samples[i0:i1] = power_mw
    return EnvelopeTrace(samples=samples, sample_rate_hz=internal_rate_hz)

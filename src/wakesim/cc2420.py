"""Reference model of the CC2420-based energy-sensing platform.

The chip's 5 MHz channel filter captures only a quarter of the 20 MHz WLAN
signal energy (-6 dB), its RSSI is a moving average of the log power, and the
busy/idle CCA output is reported on a fixed 30.5 us tick. Frame length is
inferred from the number of ticks for which CCA stays asserted, so the usable
range is bounded by the chip's absolute CCA threshold rather than by SNR.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .channel import ChannelConfig, rice_combine, rice_terms
from .errors import ConfigurationError
from .phy import FrameSpec, TxSchedule, synthesize_envelope
from .seeding import seed_sequence
from .units import db_to_linear

# The CCA threshold is a fitted constant chosen so that, together with the
# -6 dB capture loss, counts vanish below a -76.56 dBm received level while
# the widened count window still separates frame lengths at -73.56 dBm.
DEFAULT_CCA_THRESHOLD_DBM = -82.0
POWER_FLOOR_DBM = -130.0  # keeps log power finite on idle noiseless samples
_FLOOR_MW = 10.0 ** (POWER_FLOOR_DBM / 10.0)
# float64 values per row block of count_distribution (2 MB): the power, log
# and cumulative sum of one block stay in cache between passes.
_BLOCK_FLOATS = 1 << 18


@dataclass(frozen=True)
class Cc2420Config:
    capture_fraction_db: float = -6.0
    ma_window_us: float = 128.0
    cca_threshold_dbm: float = DEFAULT_CCA_THRESHOLD_DBM
    granularity_us: float = 30.5

    def __post_init__(self):
        # the comparisons are written so that NaN fails them
        for name in ("granularity_us", "ma_window_us"):
            if not 0 < getattr(self, name) < np.inf:
                raise ConfigurationError(f"{name} must be positive and finite")
        for name in ("capture_fraction_db", "cca_threshold_dbm"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigurationError(f"{name} must be finite")


def _window(cfg: Cc2420Config, sample_rate_hz: float) -> int:
    return max(1, int(round(cfg.ma_window_us * sample_rate_hz / 1e6)))


def _log_power_db(power_mw, cfg: Cc2420Config, out=None) -> np.ndarray:
    """Captured power in dB, clamped at the RSSI floor; in place into out if given."""
    p = np.multiply(power_mw, db_to_linear(cfg.capture_fraction_db), out=out)
    np.maximum(p, _FLOOR_MW, out=p)
    np.log10(p, out=p)
    p *= 10.0
    return p


def _trailing_mean(x: np.ndarray, window: int) -> np.ndarray:
    """Trailing moving average along the last axis; growing window at the head."""
    c = np.cumsum(x, axis=-1, dtype=np.float64)
    head = min(window, c.shape[-1])
    out = np.empty_like(c)
    out[..., :head] = c[..., :head] / np.arange(1, head + 1)
    out[..., window:] = (c[..., window:] - c[..., :-window]) / window
    return out


def rssi_dbm(power_mw: np.ndarray, cfg: Cc2420Config, sample_rate_hz: float) -> np.ndarray:
    """Moving-average RSSI seen by the chip, including the capture loss."""
    return _trailing_mean(_log_power_db(power_mw, cfg), _window(cfg, sample_rate_hz))


def _tick_indices(phases: np.ndarray, n_samples: int, cfg: Cc2420Config,
                  sample_rate_hz: float):
    """Sample index of every CCA tick, one row per tick phase (us).

    Returns (idx, valid): ticks past a row's last one, or past the trace,
    are not valid and carry index 0.
    """
    per_us = sample_rate_hz / 1e6
    duration_us = n_samples / per_us
    n_ticks = np.floor((duration_us - phases) / cfg.granularity_us).astype(np.int64) + 1
    k = np.arange(n_ticks.max())
    idx = np.round((phases[:, None] + k * cfg.granularity_us) * per_us).astype(np.int64)
    valid = (k < n_ticks[:, None]) & (idx < n_samples)
    return np.where(valid, idx, 0), valid


def _asserted_ticks(c: np.ndarray, phases: np.ndarray, cfg: Cc2420Config,
                    sample_rate_hz: float) -> np.ndarray:
    """CCA ticks asserted per phase, reading the RSSI only at the ticks.

    c holds the cumulative log power, one row per phase or one row shared by
    all; the RSSI at a tick is _trailing_mean's value there.
    """
    idx, valid = _tick_indices(phases, c.shape[-1], cfg, sample_rate_hz)
    window = _window(cfg, sample_rate_hz)
    at = np.take_along_axis(c, idx, axis=-1)
    before = np.take_along_axis(c, np.maximum(idx - window, 0), axis=-1)
    rssi = np.where(idx < window, at / (idx + 1), (at - before) / window)
    return np.count_nonzero(valid & (rssi > cfg.cca_threshold_dbm), axis=-1)


def cca_output_count(trace, cfg: Cc2420Config, rng_seed=None) -> int:
    """Number of CCA ticks asserted over the trace (one frame assumed).

    The tick grid is free-running relative to the frame, so its phase is
    drawn uniformly in [0, granularity).
    """
    rng = np.random.default_rng(rng_seed)
    phase = rng.uniform(0.0, cfg.granularity_us)
    c = np.cumsum(_log_power_db(np.asarray(trace.samples), cfg), dtype=np.float64)
    return int(_asserted_ticks(c[None], np.array([phase]), cfg, trace.sample_rate_hz)[0])


def count_distribution(frame: FrameSpec, rx_power_dbm: float, cfg: Cc2420Config,
                       n_frames: int = 10000, rng_seed=None,
                       channel: Optional[ChannelConfig] = None,
                       lead_us: float = 200.0, tail_us: float = 300.0,
                       batch_size: int = 200) -> Counter:
    """Empirical distribution of CCA counts over independent frames.

    Traces are simulated at the channel's bandwidth_hz, one sample per
    1/bandwidth, so the noise has the right degrees of freedom. Each batch
    draws the Exp(1) and then the U(0, 1) variates of channel.rice_noise
    into two reused float32 buffers. A few rows at a time, they become the
    Rice terms in place (channel.rice_terms, float32) and are combined into
    a float64 power (channel.rice_combine); the log power and its
    cumulative sum stay float64. The moving-average RSSI is read only at
    the CCA tick instants, from that cumulative sum. The counts equal those
    of rssi_dbm over the whole trace sampled at the ticks.
    """
    if n_frames < 1:
        raise ConfigurationError("n_frames must be >= 1")
    if batch_size < 1:
        raise ConfigurationError("batch_size must be >= 1")
    if channel is None:
        channel = ChannelConfig()
    rate = channel.bandwidth_hz
    schedule = TxSchedule(events=((0.0, frame),))
    base = synthesize_envelope(schedule, rx_power_dbm, internal_rate_hz=rate,
                               lead_us=lead_us, tail_us=tail_us)
    amp = np.sqrt(base.samples).astype(np.float32)
    n_samples = amp.size
    n_mw = channel.noise_floor_mw
    rows = max(1, _BLOCK_FLOATS // n_samples)
    if n_mw > 0:
        e = np.empty((min(batch_size, n_frames), n_samples), dtype=np.float32)
        u = np.empty_like(e)
        block = np.empty((min(rows, e.shape[0]), n_samples))
        block_sum = np.empty_like(block)
    else:
        # noiseless: the float32 log power of the one envelope serves every frame
        c = np.cumsum(_log_power_db(amp * amp, cfg), dtype=np.float64)[None]
    seeds = seed_sequence(rng_seed).spawn(int(np.ceil(n_frames / batch_size)))
    counts: Counter = Counter()
    done = 0
    for seed in seeds:
        rng = np.random.default_rng(seed)
        b = min(batch_size, n_frames - done)
        if n_mw > 0:
            rng.standard_exponential(dtype=np.float32, out=e[:b])
            rng.random(dtype=np.float32, out=u[:b])
        phases = rng.uniform(0.0, cfg.granularity_us, size=b)
        hits = np.empty(b, dtype=np.int64)
        for r0 in range(0, b, rows):
            r1 = min(r0 + rows, b)
            if n_mw > 0:
                p, q = block[:r1 - r0], block_sum[:r1 - r0]
                rice_combine(amp, *rice_terms(e[r0:r1], u[r0:r1], n_mw), out=p)
                _log_power_db(p, cfg, out=p)
                c = np.cumsum(p, axis=-1, out=q)
            hits[r0:r1] = _asserted_ticks(c, phases[r0:r1], cfg, rate)
        counts.update(hits.tolist())
        done += b
    return counts


def modal_count(counts: Counter) -> int:
    """Most frequent CCA count (ties broken toward the smaller count)."""
    best = max(sorted(counts.items()), key=lambda kv: kv[1])
    return int(best[0])

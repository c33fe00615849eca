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

from .channel import ChannelConfig, apply_link_budget
from .errors import ConfigurationError
from .phy import FrameSpec, TxSchedule, synthesize_envelope
from .seeding import seed_sequence
from .units import db_to_linear

# The CCA threshold is a fitted constant chosen so that, together with the
# -6 dB capture loss, counts vanish below a -76.56 dBm received level while
# the widened count window still separates frame lengths at -73.56 dBm.
DEFAULT_CCA_THRESHOLD_DBM = -82.0
POWER_FLOOR_DBM = -130.0  # keeps log power finite on idle noiseless samples


@dataclass(frozen=True)
class Cc2420Config:
    capture_fraction_db: float = -6.0
    ma_window_us: float = 128.0
    cca_threshold_dbm: float = DEFAULT_CCA_THRESHOLD_DBM
    granularity_us: float = 30.5

    def __post_init__(self):
        if self.granularity_us <= 0:
            raise ConfigurationError("granularity_us must be positive")
        if self.ma_window_us <= 0:
            raise ConfigurationError("ma_window_us must be positive")


def _trailing_mean(x: np.ndarray, window: int) -> np.ndarray:
    """Trailing moving average along the last axis; growing window at the head."""
    c = np.cumsum(x, axis=-1, dtype=np.float64)
    out = np.empty_like(c)
    out[..., :window] = c[..., :window] / np.arange(1, window + 1)
    out[..., window:] = (c[..., window:] - c[..., :-window]) / window
    return out


def rssi_dbm(power_mw: np.ndarray, cfg: Cc2420Config, sample_rate_hz: float) -> np.ndarray:
    """Moving-average RSSI seen by the chip, including the capture loss."""
    capture = db_to_linear(cfg.capture_fraction_db)
    floor_mw = 10.0 ** (POWER_FLOOR_DBM / 10.0)
    p_db = 10.0 * np.log10(np.maximum(power_mw * capture, floor_mw))
    window = max(1, int(round(cfg.ma_window_us * sample_rate_hz / 1e6)))
    return _trailing_mean(p_db, window)


def _tick_count(asserted: np.ndarray, cfg: Cc2420Config, sample_rate_hz: float,
                tick_phase_us: float) -> int:
    per_us = sample_rate_hz / 1e6
    duration_us = asserted.size / per_us
    n_ticks = int(np.floor((duration_us - tick_phase_us) / cfg.granularity_us)) + 1
    if n_ticks <= 0:
        return 0
    idx = np.round((tick_phase_us + np.arange(n_ticks) * cfg.granularity_us)
                   * per_us).astype(np.int64)
    idx = idx[idx < asserted.size]
    return int(np.count_nonzero(asserted[idx]))


def cca_output_count(trace, cfg: Cc2420Config, rng_seed=None) -> int:
    """Number of CCA ticks asserted over the trace (one frame assumed).

    The tick grid is free-running relative to the frame, so its phase is
    drawn uniformly in [0, granularity).
    """
    rng = np.random.default_rng(rng_seed)
    phase = float(rng.uniform(0.0, cfg.granularity_us))
    rssi = rssi_dbm(np.asarray(trace.samples), cfg, trace.sample_rate_hz)
    return _tick_count(rssi > cfg.cca_threshold_dbm, cfg, trace.sample_rate_hz, phase)


def count_distribution(frame: FrameSpec, rx_power_dbm: float, cfg: Cc2420Config,
                       n_frames: int = 10000, rng_seed=None,
                       channel: Optional[ChannelConfig] = None,
                       lead_us: float = 200.0, tail_us: float = 300.0,
                       batch_size: int = 200) -> Counter:
    """Empirical distribution of CCA counts over independent frames.

    Traces are simulated at the channel's bandwidth_hz, one sample per
    1/bandwidth, so the noise has the right degrees of freedom.
    """
    if n_frames < 1:
        raise ConfigurationError("n_frames must be >= 1")
    if channel is None:
        channel = ChannelConfig()
    rate = channel.bandwidth_hz
    schedule = TxSchedule(events=((0.0, frame),))
    base = synthesize_envelope(schedule, rx_power_dbm, internal_rate_hz=rate,
                               lead_us=lead_us, tail_us=tail_us)
    amp = np.sqrt(apply_link_budget(base, channel).samples).astype(np.float32)
    n_samples = amp.size
    n_mw = channel.noise_floor_mw
    seeds = seed_sequence(rng_seed).spawn(int(np.ceil(n_frames / batch_size)))
    counts: Counter = Counter()
    done = 0
    for seed in seeds:
        rng = np.random.default_rng(seed)
        b = min(batch_size, n_frames - done)
        if n_mw > 0:
            # float64 power from float32 normals, unlike channel.rice_power
            sigma = np.sqrt(n_mw / 2.0)
            re = rng.standard_normal((b, n_samples), dtype=np.float32) * sigma
            im = rng.standard_normal((b, n_samples), dtype=np.float32) * sigma
            power = (amp + re) ** 2 + im ** 2
        else:
            power = np.broadcast_to(amp * amp, (b, n_samples)).copy()
        asserted = rssi_dbm(power, cfg, rate) > cfg.cca_threshold_dbm
        phases = rng.uniform(0.0, cfg.granularity_us, size=b)
        for row, phase in zip(asserted, phases):
            counts[_tick_count(row, cfg, rate, float(phase))] += 1
        done += b
    return counts


def modal_count(counts: Counter) -> int:
    """Most frequent CCA count (ties broken toward the smaller count)."""
    best = max(sorted(counts.items()), key=lambda kv: kv[1])
    return int(best[0])

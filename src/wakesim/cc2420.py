"""Reference model of the CC2420-based energy-sensing platform.

The chip's 5 MHz channel filter captures only a quarter of the 20 MHz WLAN
signal energy (-6 dB), its RSSI is a moving average of the log power, and the
busy/idle CCA output is reported on a fixed 30.5 us tick. Frame length is
inferred from the number of ticks for which CCA stays asserted, so the usable
range is bounded by the chip's absolute CCA threshold rather than by SNR.

count_distribution, the CCA count histogram of many noisy frames, gives
every frame its own child of one SeedSequence (L'Ecuyer et al., "Random
numbers for parallel computers", 2017). Two worker threads each draw a
block of frames, form their RSSI and count their asserted ticks, and the
caller reads the blocks' counts in frame order. Its counts are those of
cca_output_count's arithmetic on each whole trace, whatever the thread
timing, the number of workers or the number of CPUs.
"""

from __future__ import annotations

from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .channel import ChannelConfig, rice_combine, rice_terms
from .errors import ConfigurationError, _check_count
from .phy import FrameSpec, TxSchedule, _frame_spans
from .seeding import seed_sequence
from .units import db_to_linear, dbm_to_mw

# The CCA threshold is a fitted constant chosen so that, together with the
# -6 dB capture loss, counts vanish below a -76.56 dBm received level while
# the widened count window still separates frame lengths at -73.56 dBm.
DEFAULT_CCA_THRESHOLD_DBM = -82.0
POWER_FLOOR_DBM = -130.0  # keeps log power finite on idle noiseless samples
_FLOOR_MW = 10.0 ** (POWER_FLOOR_DBM / 10.0)
# samples per block of count_distribution's frames (2 MB of float64): the
# power, log and cumulative sum of one block stay in cache between passes.
_BLOCK_FLOATS = 1 << 18
# the threads that draw and count count_distribution's blocks of frames
_COUNT_WORKERS = 2


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


def _frame_counts(n_samples: int, span, amp, n_mw: float, cfg: Cc2420Config,
                  rate: float, seeds) -> np.ndarray:
    """The CCA counts of one block of noisy frames, one Generator per seed.

    Each frame draws its tick phase, the float32 Exp(1) variates of its
    whole trace, then the float32 U(0, 1) variates of its frame span (i0,
    i1). Inside the span the power is rice_combine's, with the scalar
    float32 amplitude amp. Outside it the amplitude is 0, where
    amp (amp + 2 X) + E is exactly E and the clamp does nothing, so those
    columns take the float32 noise power E = n_mw e alone (a float32
    product, stored as float64) and draw no uniforms. The log power is
    summed row by row, since np.cumsum along an axis of a 2-D array holds
    the GIL, and _asserted_ticks reads the sums at the ticks.
    """
    i0, i1 = span
    e = np.empty((len(seeds), n_samples), dtype=np.float32)
    u = np.empty((len(seeds), i1 - i0), dtype=np.float32)
    phases = np.empty(len(seeds))
    for k, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        phases[k] = rng.uniform(0.0, cfg.granularity_us)
        rng.standard_exponential(dtype=np.float32, out=e[k])
        rng.random(dtype=np.float32, out=u[k])
    p = np.empty(e.shape)
    c = np.empty(e.shape)
    # c is free until the cumulative sum, so sqrt(E) (rice_terms) goes there
    root = c.view(np.float32)[:, :i1 - i0]
    rice_combine(amp, *rice_terms(e[:, i0:i1], u, n_mw, root), out=p[:, i0:i1])
    for idle in (np.s_[:, :i0], np.s_[:, i1:]):
        np.multiply(e[idle], np.float32(n_mw), out=p[idle])
    _log_power_db(p, cfg, out=p)
    for row, row_sum in zip(p, c):
        np.cumsum(row, out=row_sum)
    return _asserted_ticks(c, phases, cfg, rate)


def count_distribution(frame: FrameSpec, rx_power_dbm: float, cfg: Cc2420Config,
                       n_frames: int = 10000, rng_seed=None,
                       channel: Optional[ChannelConfig] = None,
                       lead_us: float = 200.0, tail_us: float = 300.0) -> Counter:
    """Empirical distribution of CCA counts over independent frames.

    Traces are simulated at the channel's bandwidth_hz, one sample per
    1/bandwidth, so the noise has the right degrees of freedom. Every frame
    has its own Generator, from seed_sequence(rng_seed).spawn(n_frames) in
    frame order, and draws in one order: its tick phase, the Exp(1)
    variates of channel.rice_noise over its whole trace, then their U(0, 1)
    partners over its frame span only (_frame_counts).

    The frames go in blocks of max(1, _BLOCK_FLOATS // n_samples) to the
    _COUNT_WORKERS threads of a ThreadPoolExecutor; each worker draws its
    block's frames, forms the float32 Rice terms (channel.rice_terms) in
    the frame, the float64 power (channel.rice_combine), its log and one
    cumulative sum per row, and counts the ticks at which the RSSI is
    above the CCA threshold (_asserted_ticks). The caller reads the blocks'
    counts in frame order. So the counts do not depend on thread timing,
    the number of workers or the number of CPUs, and they equal those of
    rssi_dbm over each whole trace sampled at the ticks. The workers are
    joined before the function returns, and their errors are raised in the
    caller. A noiseless channel draws only the phases and reads one shared
    cumulative sum on the calling thread.
    """
    if not np.isfinite(rx_power_dbm):
        raise ConfigurationError(f"rx_power_dbm must be finite, got {rx_power_dbm}")
    _check_count("n_frames", n_frames)
    if channel is None:
        channel = ChannelConfig()
    rate = channel.bandwidth_hz
    n_samples, [span] = _frame_spans(TxSchedule(events=((0.0, frame),)), rate,
                                     lead_us, tail_us)
    # the float32 root of the envelope's constant in-frame power
    amp = np.float32(np.sqrt(dbm_to_mw(rx_power_dbm)))
    n_mw = channel.noise_floor_mw
    seeds = seed_sequence(rng_seed).spawn(n_frames)
    if n_mw == 0:
        # noiseless: the float32 log power of the one envelope serves every frame
        power = np.zeros(n_samples, dtype=np.float32)
        power[span[0]:span[1]] = amp * amp
        c = np.cumsum(_log_power_db(power, cfg), dtype=np.float64)[None]
        phases = np.array([np.random.default_rng(seed).uniform(0.0, cfg.granularity_us)
                           for seed in seeds])
        return Counter(_asserted_ticks(c, phases, cfg, rate).tolist())
    rows = max(1, _BLOCK_FLOATS // n_samples)
    blocks = [seeds[k:k + rows] for k in range(0, n_frames, rows)]
    counts: Counter = Counter()
    with ThreadPoolExecutor(max_workers=_COUNT_WORKERS) as pool:
        for block in pool.map(partial(_frame_counts, n_samples, span, amp, n_mw,
                                      cfg, rate), blocks):
            counts.update(block.tolist())
    return counts


def modal_count(counts: Counter) -> int:
    """Most frequent CCA count (ties broken toward the smaller count)."""
    best = max(sorted(counts.items()), key=lambda kv: kv[1])
    return int(best[0])

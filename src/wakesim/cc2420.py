"""Reference model of the CC2420-based energy-sensing platform.

The chip's 5 MHz channel filter captures only a quarter of the 20 MHz WLAN
signal energy (-6 dB), its RSSI is a moving average of the log power, and the
busy/idle CCA output is reported on a fixed 30.5 us tick. Frame length is
inferred from the number of ticks for which CCA stays asserted, so the usable
range is bounded by the chip's absolute CCA threshold rather than by SNR.

count_distribution, the CCA count histogram of many noisy frames, is one
pipeline: the calling thread makes every draw and two worker threads turn
blocks of rows into per-sample "RSSI above threshold" flags, which the
caller reads at the ticks. Its counts are those of cca_output_count's
arithmetic on each whole trace, whatever the thread timing or the number
of CPUs.
"""

from __future__ import annotations

from collections import Counter, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import threading

import numpy as np

from .channel import ChannelConfig, rice_combine, rice_terms
from .errors import ConfigurationError
from .phy import FrameSpec, TxSchedule, _frame_spans
from .seeding import seed_sequence
from .units import db_to_linear, dbm_to_mw

# The CCA threshold is a fitted constant chosen so that, together with the
# -6 dB capture loss, counts vanish below a -76.56 dBm received level while
# the widened count window still separates frame lengths at -73.56 dBm.
DEFAULT_CCA_THRESHOLD_DBM = -82.0
POWER_FLOOR_DBM = -130.0  # keeps log power finite on idle noiseless samples
_FLOOR_MW = 10.0 ** (POWER_FLOOR_DBM / 10.0)
# float64 values per row block of count_distribution (2 MB): the power, log
# and cumulative sum of one block stay in cache between passes.
_BLOCK_FLOATS = 1 << 18
# the threads that turn count_distribution's row blocks into RSSI flags: one
# per CPU of a 2-CPU host, beside the calling thread's draws
_COUNT_WORKERS = 2
# row blocks of uniforms in flight: one per worker, one queued, and one the
# caller draws into
_COUNT_BUFFERS = _COUNT_WORKERS + 2


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


def _rssi_above(e: np.ndarray, u: np.ndarray, amp, span, n_mw: float,
                cfg: Cc2420Config, window: int, p: np.ndarray, c: np.ndarray,
                root: np.ndarray, out: np.ndarray) -> None:
    """out = (RSSI > CCA threshold) at every sample of one row block.

    e and u hold the block's Exp(1) and U(0, 1) draws (float32, consumed in
    place); p and c are float64 scratch shaped like them, and root is
    float32 scratch for sqrt(E) with the rows and the span's columns of
    them (rice_terms). Inside the frame
    span (i0, i1) the power is rice_combine's, with the scalar float32
    amplitude amp. Outside it the amplitude is 0, where amp (amp + 2 X) + E
    is exactly E and the clamp does nothing, so those columns take the
    float32 noise power E = n_mw e alone (a float32 product, stored as
    float64), and their uniforms go unread. The RSSI at sample i is the
    value _asserted_ticks reads at a tick there, from the cumulative log
    power c; each row is summed on its own, since np.cumsum along an axis
    of a 2-D array holds the GIL.
    """
    i0, i1 = span
    rice_combine(amp, *rice_terms(e[:, i0:i1], u[:, i0:i1], n_mw, root),
                 out=p[:, i0:i1])
    for idle in (np.s_[:, :i0], np.s_[:, i1:]):
        np.multiply(e[idle], np.float32(n_mw), out=p[idle])
    _log_power_db(p, cfg, out=p)
    for row, row_sum in zip(p, c):
        np.cumsum(row, out=row_sum)
    head = min(window, c.shape[-1])
    np.divide(c[:, :head], np.arange(1, head + 1), out=p[:, :head])
    np.subtract(c[:, window:], c[:, :-window], out=p[:, window:])
    p[:, window:] /= window
    np.greater(p, cfg.cca_threshold_dbm, out=out)


def count_distribution(frame: FrameSpec, rx_power_dbm: float, cfg: Cc2420Config,
                       n_frames: int = 10000, rng_seed=None,
                       channel: Optional[ChannelConfig] = None,
                       lead_us: float = 200.0, tail_us: float = 300.0,
                       batch_size: int = 200) -> Counter:
    """Empirical distribution of CCA counts over independent frames.

    Traces are simulated at the channel's bandwidth_hz, one sample per
    1/bandwidth, so the noise has the right degrees of freedom. Every batch
    of batch_size frames has its own Generator, seeded from rng_seed, and
    draws in one order: the Exp(1) variates of channel.rice_noise for all
    its frames, then their U(0, 1) variates, then the CCA tick phases.

    Each batch runs as a two-stage pipeline over blocks of rows. The
    calling thread makes every draw. As soon as a block's uniforms are
    drawn (into one of _COUNT_BUFFERS reused block buffers), one of the
    _COUNT_WORKERS threads of a ThreadPoolExecutor turns the block into a
    per-sample flag "RSSI above the CCA threshold" (_rssi_above), in
    float64 scratch of its own: the float32 Rice terms
    (channel.rice_terms) inside the frame, the float64 power
    (channel.rice_combine), its log and cumulative sum, and the moving
    average from that sum. Meanwhile the caller draws the next
    block's uniforms and, into the rows of the one Exp(1) buffer that the
    finished blocks have read, the next batch's Exp(1) variates; only the
    first batch's are all drawn before its pipeline starts. After a
    batch's last uniforms the caller draws its phases and, once its blocks
    are done, reads one flag per tick (_tick_indices).

    Each Generator is drawn in its own order by the caller alone, so the
    counts do not depend on thread timing or the number of CPUs, and they
    equal those of rssi_dbm over each whole trace sampled at the ticks.
    Before a block buffer is reused, the caller waits for the result of the
    block it last held; result() raises here any error of a worker, and the
    workers are joined before the function returns. A noiseless channel
    draws only the phases and reads one shared cumulative sum on the
    calling thread.
    """
    if not np.isfinite(rx_power_dbm):
        raise ConfigurationError(f"rx_power_dbm must be finite, got {rx_power_dbm}")
    if n_frames < 1:
        raise ConfigurationError("n_frames must be >= 1")
    if batch_size < 1:
        raise ConfigurationError("batch_size must be >= 1")
    if channel is None:
        channel = ChannelConfig()
    rate = channel.bandwidth_hz
    n_samples, [span] = _frame_spans(TxSchedule(events=((0.0, frame),)), rate,
                                     lead_us, tail_us)
    # the float32 root of the envelope's constant in-frame power
    amp = np.float32(np.sqrt(dbm_to_mw(rx_power_dbm)))
    n_mw = channel.noise_floor_mw
    seeds = seed_sequence(rng_seed).spawn(int(np.ceil(n_frames / batch_size)))
    rngs = [np.random.default_rng(seed) for seed in seeds]
    sizes = [min(batch_size, n_frames - k * batch_size) for k in range(len(seeds))]
    counts: Counter = Counter()
    if n_mw == 0:
        # noiseless: the float32 log power of the one envelope serves every frame
        power = np.zeros(n_samples, dtype=np.float32)
        power[span[0]:span[1]] = amp * amp
        c = np.cumsum(_log_power_db(power, cfg), dtype=np.float64)[None]
        for rng, b in zip(rngs, sizes):
            phases = rng.uniform(0.0, cfg.granularity_us, size=b)
            counts.update(_asserted_ticks(c, phases, cfg, rate).tolist())
        return counts
    window = _window(cfg, rate)
    e = np.empty((sizes[0], n_samples), dtype=np.float32)
    above = np.empty(e.shape, dtype=bool)
    rows = max(1, min(_BLOCK_FLOATS // n_samples, sizes[0]))
    rngs[0].standard_exponential(dtype=np.float32, out=e)
    # each worker takes one pair of float64 scratch blocks and one float32
    # block for sqrt(E) on its first block; they are allocated here, outside
    # the workers' malloc arenas
    spare = [(np.empty((2, rows, n_samples)),
              np.empty((rows, span[1] - span[0]), dtype=np.float32))
             for _ in range(_COUNT_WORKERS)]
    scratch = threading.local()

    def flag_rows(r0, r1, u):
        """The flags of rows r0:r1 from their uniforms u, in this worker's scratch."""
        if not hasattr(scratch, "p"):
            (scratch.p, scratch.c), scratch.root = spare.pop()
        _rssi_above(e[r0:r1], u, amp, span, n_mw, cfg, window,
                    scratch.p[:r1 - r0], scratch.c[:r1 - r0],
                    scratch.root[:r1 - r0], above[r0:r1])

    def retire(block, next_rng, next_b):
        """Wait for a block; then its rows of e take the next batch's Exp(1).

        Returns the block's uniforms buffer, free for reuse.
        """
        future, buf, r0, r1 = block
        future.result()
        if r0 < next_b:
            next_rng.standard_exponential(dtype=np.float32, out=e[r0:min(r1, next_b)])
        return buf

    # (future, uniforms buffer, r0, r1) of the blocks in flight, oldest first
    pending, buffers = deque(), []
    with ThreadPoolExecutor(max_workers=_COUNT_WORKERS) as pool:
        for k, (rng, b) in enumerate(zip(rngs, sizes)):
            following = (rngs[k + 1], sizes[k + 1]) if k + 1 < len(rngs) else (None, 0)
            for r0 in range(0, b, rows):
                r1 = min(r0 + rows, b)
                if len(pending) == _COUNT_BUFFERS:
                    buffers.append(retire(pending.popleft(), *following))
                buf = buffers.pop() if buffers else np.empty((rows, n_samples),
                                                              dtype=np.float32)
                u = rng.random(dtype=np.float32, out=buf[:r1 - r0])
                pending.append((pool.submit(flag_rows, r0, r1, u), buf, r0, r1))
            phases = rng.uniform(0.0, cfg.granularity_us, size=b)
            idx, valid = _tick_indices(phases, n_samples, cfg, rate)
            while pending:
                buffers.append(retire(pending.popleft(), *following))
            at_ticks = np.take_along_axis(above[:b], idx, axis=-1)
            counts.update(np.count_nonzero(valid & at_ticks, axis=-1).tolist())
    return counts


def modal_count(counts: Counter) -> int:
    """Most frequent CCA count (ties broken toward the smaller count)."""
    best = max(sorted(counts.items()), key=lambda kv: kv[1])
    return int(best[0])

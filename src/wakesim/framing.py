"""Frame-length estimation from bit streams and LPF edge-delay measurement.

A transmitted frame appears in the sliced bit stream as a run of consecutive
ones; its length estimate is run_length * d_sample. Runs are matched against
an alphabet of admissible durations with a +/-30 us margin. The low-pass
filter delays both edges: D_up is the rise delay from true frame start to the
upward threshold crossing, D_down the decay delay from true frame end to the
downward crossing. D_down is the critical one, because it can mask the DIFS
gap between consecutive frames.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .channel import ChannelConfig, add_noise
from .errors import ConfigurationError, UnboundedDelayError
from .phy import FrameSpec, TxSchedule, _frame_spans, synthesize_envelope
from .receiver import BitStream, ReceiverConfig, filtered_voltage
from .seeding import seed_sequence

DEFAULT_MIN_RUN_BITS = 3


@dataclass(frozen=True)
class DetectedFrame:
    """A run of ones and the frame-length estimate derived from it."""

    run_length_bits: int
    estimated_duration_us: float
    start_bit: int = 0
    matched_symbol: Optional[int] = None


@dataclass
class EdgeDelayStats:
    """Per-trial edge delays with min/max/mean summaries."""

    d_up_us: np.ndarray
    d_down_us: np.ndarray

    @property
    def d_up_mean(self) -> float:
        return float(np.mean(self.d_up_us))

    @property
    def d_down_mean(self) -> float:
        return float(np.mean(self.d_down_us))

    @property
    def d_down_min(self) -> float:
        return float(np.min(self.d_down_us))

    @property
    def d_down_max(self) -> float:
        return float(np.max(self.d_down_us))


def extract_runs(bits: BitStream, min_run_bits: int = DEFAULT_MIN_RUN_BITS):
    """Maximal runs of consecutive ones, in order.

    Runs shorter than min_run_bits are dropped as noise spikes so isolated
    false ones cannot split an inter-frame gap.
    """
    starts, lengths = _run_bounds(bits.bits, min_run_bits)
    return [DetectedFrame(run_length_bits=int(n),
                          estimated_duration_us=int(n) * bits.d_sample_us,
                          start_bit=int(s))
            for s, n in zip(starts, lengths)]


def _run_bounds(bits: np.ndarray, min_run_bits: int):
    """First bit and length of each maximal run of ones, the one run rule.

    Returns two int64 arrays, in order, without the runs shorter than
    min_run_bits.
    """
    b = np.asarray(bits, dtype=np.int8)
    edges = np.diff(np.concatenate(([0], b, [0])))
    starts = np.flatnonzero(edges == 1)
    lengths = np.flatnonzero(edges == -1) - starts
    keep = lengths >= min_run_bits
    return starts[keep], lengths[keep]


def _symbol_index(duration_us: float, alphabet) -> Optional[int]:
    """Index of the symbol whose +/-margin window holds duration_us, or None.

    The alphabet keeps its windows disjoint, so at most one holds it.
    """
    for i, sym in enumerate(alphabet.symbols):
        if abs(duration_us - sym) <= alphabet.margin_us:
            return i
    return None


def match_symbol(frame: DetectedFrame, alphabet) -> DetectedFrame:
    """Match the run's duration estimate to an alphabet symbol.

    Returns a copy with matched_symbol set to the symbol index, or left None
    (an erasure) when the estimate is outside every +/-margin window.
    """
    return replace(frame, matched_symbol=_symbol_index(frame.estimated_duration_us, alphabet))


def check_difs_separability(d_down_us: float, difs_us: float = 50.0,
                            d_sample_us: float = 10.0) -> bool:
    """Whether the decay delay leaves a detectable gap inside DIFS.

    Asynchronous sampling consumes one sample interval of the gap, so the
    decay must finish within difs - d_sample.
    """
    return d_down_us < difs_us - d_sample_us


def _first_sustained(mask: np.ndarray, start: int) -> int:
    """First index >= start where mask holds for two consecutive samples."""
    m = mask[start:-1] & mask[start + 1:]
    hits = np.flatnonzero(m)
    if hits.size == 0:
        return -1
    return start + int(hits[0])


def measure_edge_delays(cfg: ReceiverConfig, rx_power_dbm: float,
                        channel: ChannelConfig, n_trials: int = 10,
                        rng_seed=None, frame_payload_bytes: int = 12,
                        lead_us: float = 300.0,
                        tail_us: float = 500.0) -> EdgeDelayStats:
    """Measure D_up and D_down statistics over repeated single-frame trials.

    rx_power_dbm is the in-frame power at the receiver input.
    Traces have one sample per 1/channel.bandwidth_hz, and crossings are
    located at that resolution; to keep noise chatter from producing
    spurious extremes, a crossing must hold for two consecutive samples. A
    trial whose voltage never crosses the threshold in the expected
    direction raises UnboundedDelayError.
    """
    if n_trials < 1:
        raise ConfigurationError("n_trials must be >= 1")
    if cfg.threshold_v is None:
        raise ConfigurationError("threshold_v is not set; calibrate it first")
    seeds = seed_sequence(rng_seed).spawn(n_trials)
    frame = FrameSpec(payload_bytes=frame_payload_bytes)
    schedule = TxSchedule(events=((0.0, frame),))
    d_ups = np.empty(n_trials)
    d_downs = np.empty(n_trials)
    per_us = channel.bandwidth_hz / 1e6
    _, [(start_idx, end_idx)] = _frame_spans(schedule, channel.bandwidth_hz,
                                             lead_us, tail_us)
    envelope = synthesize_envelope(schedule, rx_power_dbm,
                                   internal_rate_hz=channel.bandwidth_hz,
                                   lead_us=lead_us, tail_us=tail_us)
    for k, seed in enumerate(seeds):
        s1, s2 = seed.spawn(2)
        trace = add_noise(envelope, channel, rng_seed=s1)
        v = filtered_voltage(trace, cfg, rng_seed=s2)
        above = v.samples > cfg.threshold_v
        i_up = _first_sustained(above, start_idx)
        if i_up < 0:
            raise UnboundedDelayError(
                f"trial {k}: voltage never rose above the threshold")
        i_down = _first_sustained(~above, max(end_idx, i_up))
        if i_down < 0:
            raise UnboundedDelayError(
                f"trial {k}: voltage never decayed below the threshold")
        d_ups[k] = (i_up - start_idx) / per_us
        d_downs[k] = (i_down - end_idx) / per_us
    return EdgeDelayStats(d_up_us=d_ups, d_down_us=d_downs)

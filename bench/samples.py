"""Internal-rate sample counts, computed from a call's inputs alone.

Every count here is what the simulator must process at the 20 Msps internal
rate for the given inputs. With cw=1 the MAC backoff is always zero slots, so
frame schedules, and hence trace lengths, are exact.
"""

from __future__ import annotations

import math

SAMPLE_RATE_HZ = 20e6
DIFS_US = 50.0


def stream_samples(n_decisions: int, d_sample_us: float = 10.0,
                   rate_hz: float = SAMPLE_RATE_HZ,
                   settle_us: float = 500.0) -> int:
    """Samples streamed for n_decisions comb decisions plus the LPF settle."""
    spb = int(round(d_sample_us * rate_hz / 1e6))
    settle = int(math.ceil(settle_us / d_sample_us))
    return (int(n_decisions) + settle - 1) * spb + 1


def trace_samples(durations_us, lead_us: float, tail_us: float,
                  rate_hz: float = SAMPLE_RATE_HZ) -> int:
    """Samples in the envelope of back-to-back frames spaced by DIFS (cw=1)."""
    end_us = sum(durations_us) + (len(durations_us) - 1) * DIFS_US
    return int(round((lead_us + end_us + tail_us) * rate_hz / 1e6))


def frame_trial_samples(lengths_us, n_frames: int, frames_per_trial: int = 100,
                        lead_us: float = 200.0, tail_us: float = 300.0,
                        rate_hz: float = SAMPLE_RATE_HZ) -> int:
    """Samples the frame-error kernel runs through the chain at one power.

    Each trial of up to frames_per_trial frames is a separate trace per
    length; all lengths share one noise path, but each is filtered and scored.
    """
    total = 0
    done = 0
    while done < n_frames:
        b = min(frames_per_trial, n_frames - done)
        for length in lengths_us:
            total += trace_samples([float(length)] * b, lead_us, tail_us, rate_hz)
        done += b
    return total


def cc2420_samples(duration_us: float, n_frames: int, lead_us: float = 200.0,
                   tail_us: float = 300.0, rate_hz: float = SAMPLE_RATE_HZ) -> int:
    """Samples behind one count_distribution call: one trace per frame."""
    return int(n_frames) * trace_samples([duration_us], lead_us, tail_us, rate_hz)

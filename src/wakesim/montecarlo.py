"""Chunked Monte Carlo kernels for bit-level and frame-level statistics.

The bit kernels (noise_decision_voltages, signal_decision_voltages) drive
receiver.ReceiverStream, the receiver chain that receive also runs, with
float32 chunks of input power, so that runs of 1e6+ bit decisions (2e8+
envelope samples at 20 Msps) fit in memory and finish in seconds.
frame_error_trials does the work its frame lengths share once per trial:
the float32 Rice draw of channel (as in add_noise), the in-frame power
and the comb noise, one array of receiver._CombVideoNoise.take. Each
length then runs its own float32 trace through a ReceiverStream in chunks
of one reused buffer, adds a prefix of that array, and gets the bits that
receive would give on the whole trace with the trial's video-noise seed.
Trials are seeded via SeedSequence spawning, so results are deterministic
regardless of how work is split.

The bit kernels run as a two-stage pipeline (_settled_decisions). The
calling thread makes every draw, in the order of one stream pushed chunk
by chunk, and writes the input power in pieces of PIECE_SAMPLES; the one
worker of a ThreadPoolExecutor runs the LNA, the detector and the LPF on
each piece (ReceiverStream._voltages, which draws nothing) while the
caller draws the next. Only the caller touches the Generator and the chain
is chunk-invariant, so the decisions do not depend on thread timing or the
number of CPUs. The worker is joined before the kernel returns, and its
errors are raised in the caller; there is no option. frame_error_trials
runs on one thread.

Only decisions leave the chain, so nothing after the detector runs at the
internal rate: the stream forms the LPF output at the decisions only and
adds the low-passed video noise on the decision comb itself
(the comb noise of receiver, 2 normals per decision).

At COF 0 (LPF bypassed) each decision reads one input sample, so the bit
kernels run the stream at the decision rate, rate / spb, and draw one power
sample per decision. This is exact, not an approximation: the in-frame
power is constant and the noise samples are iid, and at alpha = 1 the comb
video noise at rate / spb has the video-noise pole a^spb (Van Loan, IEEE
TAC 1978). frame_error_trials still draws its noise at the internal
rate; at COF 0 the stream detects only the comb samples of it.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .channel import _rice_blocks, rice_combine, rice_noise
from .codec import Alphabet
from .errors import ConfigurationError
from .framing import _run_bounds
from .phy import FrameSpec, _frame_spans, build_tx_schedule, payload_for_duration
from .receiver import (BitStream, ReceiverConfig, ReceiverStream, _comb_offset,
                       _CombVideoNoise, _samples_per_bit)
from .seeding import seed_sequence
from .units import dbm_to_mw

CHUNK_SAMPLES = 1 << 22
# the piece of a chunk that the bit kernels hand to their worker thread:
# 1 MB of float32, so that it is still in cache when the chain reads it
PIECE_SAMPLES = 1 << 18
# piece buffers shared by the two threads: one being drawn into, the
# others queued for or read by the chain
_PIECE_BUFFERS = 3
# the chunk of frame_error_trials: its buffer (1 MB of float32) is reused
# for every chunk of every length
FRAME_CHUNK_SAMPLES = 1 << 18


def _stream_rate(cfg: ReceiverConfig, rate: float) -> float:
    """Sample rate of the bit kernels' stream: the decision rate at COF 0.

    With the LPF bypassed each decision reads one input sample, so only
    those samples are drawn (module docstring).
    """
    return rate / _samples_per_bit(cfg, rate) if cfg.cof_hz == 0 else rate


def _input_power(rng, out: np.ndarray, noise_mw: float, amp, e):
    """One piece of input power (mW, float32) into out.

    Noise alone (amp None): Exp(noise_mw) drawn here. With the carrier
    amplitude amp (a float32 scalar): the Rice power from the piece's
    Exp(1) draws e, drawing its uniforms here. noise_mw = 0 draws nothing.
    """
    if noise_mw == 0.0:
        out[:] = 0.0 if amp is None else amp * amp
    elif amp is None:
        rng.standard_exponential(out=out, dtype=np.float32)
        out *= np.float32(noise_mw)
    else:
        _rice_blocks(rng, amp, e, noise_mw, out)


def _settled_decisions(cfg: ReceiverConfig, rate: float, n_decisions: int, rng,
                       settle_us: float, noise_mw: float,
                       amp=None) -> np.ndarray:
    """n_decisions decision voltages after settle_us of input power.

    rate is the stream's rate (_stream_rate): at COF 0 one sample per
    decision. The input power is noise of mean noise_mw, with a carrier of
    amplitude amp (sqrt(mW), float32) in it unless amp is None.

    Two stages run side by side. The calling thread makes every draw, in
    one fixed order: per chunk of CHUNK_SAMPLES samples, the input power,
    all its Exp(1) variates before all its uniforms for the Rice power,
    then the comb video noise of the decisions that fall in the chunk.
    It writes the power in pieces of PIECE_SAMPLES and hands each piece to
    the one worker thread of a ThreadPoolExecutor, which runs the LNA, the
    detector and the LPF on it (ReceiverStream._voltages), while the caller
    draws the next piece. The chain is chunk-invariant (ReceiverStream),
    and only the caller touches rng, so the decisions are those of one
    stream pushed chunk by chunk, whatever the thread timing or the number
    of CPUs. Before a piece buffer is reused, the caller waits for the
    result of the piece it last held; result() also raises here any error
    of the worker, and leaving the with block joins the worker.
    """
    spb = _samples_per_bit(cfg, rate)
    settle = int(np.ceil(settle_us / cfg.d_sample_us))
    n_samples = (n_decisions + settle - 1) * spb + 1
    stream = ReceiverStream(cfg, rate, rng)
    # the comb noise, drawn here: the worker runs only stream._voltages
    noise, comb = stream.noise, []
    # the Exp(1) draws of one chunk, for the Rice power
    e = None
    if amp is not None and noise_mw > 0:
        e = np.empty(min(CHUNK_SAMPLES, n_samples), dtype=np.float32)
    # the voltages of each piece, and (future, buffer) of those in flight
    parts, pending = [], deque()
    with ThreadPoolExecutor(max_workers=1) as chain:
        for c0 in range(0, n_samples, CHUNK_SAMPLES):
            c1 = min(c0 + CHUNK_SAMPLES, n_samples)
            if e is not None:
                rng.standard_exponential(out=e[:c1 - c0], dtype=np.float32)
            for p0 in range(c0, c1, PIECE_SAMPLES):
                m = min(PIECE_SAMPLES, c1 - p0)
                if len(pending) < _PIECE_BUFFERS:
                    buf = np.empty(PIECE_SAMPLES, dtype=np.float32)
                else:
                    future, buf = pending.popleft()
                    parts.append(future.result())
                _input_power(rng, buf[:m], noise_mw, amp,
                             None if e is None else e[p0 - c0:p0 - c0 + m])
                pending.append((chain.submit(stream._voltages, buf[:m]), buf))
            if noise is not None:
                # the decisions k spb that fall in [c0, c1)
                k0, k1 = -(-c0 // spb), -(-c1 // spb)
                comb.append(noise.take(k1 - k0))
        parts += [future.result() for future, _ in pending]
    dec = np.concatenate(parts)
    if comb:
        dec += np.concatenate(comb).astype(dec.dtype, copy=False)
    return dec[settle:settle + n_decisions]


def noise_decision_voltages(cfg: ReceiverConfig, channel, n_decisions: int,
                            rng_seed=None, settle_us: float = 500.0) -> np.ndarray:
    """Decision voltages with no signal present (noise-only operation)."""
    return _settled_decisions(cfg, _stream_rate(cfg, channel.bandwidth_hz),
                              n_decisions, np.random.default_rng(rng_seed),
                              settle_us, channel.noise_floor_mw)


def signal_decision_voltages(cfg: ReceiverConfig, channel, rx_power_dbm: float,
                             n_bits: int, rng_seed=None,
                             settle_us: float = 500.0) -> np.ndarray:
    """Decision voltages with the signal continuously on at rx_power_dbm.

    Per-bit miss statistics inside a frame are stationary once the LPF has
    settled, so a continuous-on stream measures in-frame p(0|1) directly.
    rx_power_dbm is the level at the receiver input; the channel supplies
    only the noise floor here.
    """
    amp0 = np.float32(np.sqrt(dbm_to_mw(rx_power_dbm)))
    return _settled_decisions(cfg, _stream_rate(cfg, channel.bandwidth_hz),
                              n_bits, np.random.default_rng(rng_seed),
                              settle_us, channel.noise_floor_mw, amp0)


def _score_trial(bits, length_us, starts_us, difs_us, margin_us, min_run_bits):
    """Number of detection errors among the frames of one trial's bits.

    Each surviving run goes to the frame whose window centre lies nearest
    its midpoint (the earlier frame on a tie) and counts there when it lies
    within half a window (length plus DIFS) of that centre. A frame is
    correct when exactly one run counts there and that run's duration
    estimate is within margin_us of the frame's length.
    """
    first, n_bits = _run_bounds(bits.bits, min_run_bits)
    centers = starts_us + length_us / 2.0
    half_window = (length_us + difs_us) / 2.0
    d_sample_us = bits.d_sample_us
    mid = bits.phase_offset_us + (first + (n_bits - 1) / 2.0) * d_sample_us
    # the nearest of the centres around each midpoint, the earlier on a tie
    j = np.searchsorted(centers, mid)
    lo, hi = np.maximum(j - 1, 0), np.minimum(j, centers.size - 1)
    k = np.where(np.abs(centers[lo] - mid) <= np.abs(centers[hi] - mid), lo, hi)
    inside = np.abs(mid - centers[k]) <= half_window
    good = np.abs(n_bits * d_sample_us - length_us) <= margin_us
    hits = np.bincount(k[inside], minlength=centers.size)
    good_hits = np.bincount(k[inside & good], minlength=centers.size)
    return int(centers.size - np.count_nonzero((hits == 1) & (good_hits == 1)))


def _length_bits(cfg: ReceiverConfig, rate: float, offset: int, noise,
                 n_samples: int, frames, in_frame, idle, buf) -> np.ndarray:
    """Bits of one frame length's trace, pushed in chunks through one stream.

    The trace is in_frame inside the frames (i0, i1) and idle between
    them, over its first n_samples; each chunk is formed in buf. The
    stream is read on the comb of offset, and the chunking changes no
    decision (ReceiverStream). Unless None, noise holds the comb noise
    (_CombVideoNoise.take) of a trace at least as long: its prefix is
    added to the decisions.
    """
    stream = ReceiverStream(cfg, rate, None, comb_offset=offset)
    # the idle spans: before, between and after the frames
    gaps = list(zip([0] + [i1 for _, i1 in frames],
                    [i0 for i0, _ in frames] + [n_samples]))
    k = 0
    out = []
    for g in range(0, n_samples, buf.size):
        h = min(g + buf.size, n_samples)
        chunk = buf[:h - g]
        chunk[:] = in_frame[g:h]
        # the gaps that start before h; the last may run on into the next chunk
        while k < len(gaps) and gaps[k][0] < h:
            i0, i1 = max(gaps[k][0], g), min(gaps[k][1], h)
            chunk[i0 - g:i1 - g] = idle[i0:i1]
            if gaps[k][1] > h:
                break
            k += 1
        out.append(stream._voltages(chunk))
    dec = np.concatenate(out)
    if noise is not None:
        dec += noise[:dec.size].astype(dec.dtype, copy=False)
    return (dec > cfg.threshold_v).astype(np.uint8)


def frame_error_trials(lengths_us, rx_power_dbm, cfg: ReceiverConfig,
                       channel, alphabet: Alphabet, n_frames: int,
                       rng_seed=None, frames_per_trial: int = 100, cw: int = 1,
                       lead_us: float = 200.0, tail_us: float = 300.0,
                       min_run_bits: int = 3):
    """Per-frame detection errors for every length at one received power.

    Frames are transmitted in DIFS-plus-backoff schedules of frames_per_trial
    each; every trial gets its own sampling-comb phase drawn uniformly in
    [0, d_sample), which models the unsynchronized transmitter and receiver.
    A frame counts as correct when exactly one surviving run falls in its
    timing window and that run's duration estimate matches the transmitted
    symbol. Merged, split, erased, and spurious-run outcomes are all errors.

    All lengths in a trial share one noise sample path, one slow-noise path,
    and one comb phase (common random numbers), so measured error-rate
    differences between lengths reflect frame length rather than Monte Carlo
    scatter. The shared work is done once per trial, over its longest
    trace: the Rice terms (E, X) of channel.rice_noise, the in-frame power
    rice_combine(amp, E, X) (between frames the amplitude is 0 and the
    power is E), and the comb-noise path drawn from the trial's video-noise
    seed. Each length then pushes its own trace, in-frame power within its
    frames and E between them, in chunks through one ReceiverStream on the
    trial's comb, reading a prefix of that path: the bits of receive on the
    whole trace with the same seed.

    Returns {length_us: (n_errors, n_frames)}.
    """
    if not n_frames >= 1:
        raise ConfigurationError("n_frames must be >= 1")
    if not frames_per_trial >= 1:
        raise ConfigurationError("frames_per_trial must be >= 1")
    lengths = [float(x) for x in lengths_us]
    rate = channel.bandwidth_hz
    payloads = {length: payload_for_duration(length) for length in lengths}
    noise_mw = channel.noise_floor_mw
    amp0 = np.float32(np.sqrt(dbm_to_mw(rx_power_dbm)))
    n_trials = int(np.ceil(n_frames / frames_per_trial))
    seeds = seed_sequence(rng_seed).spawn(n_trials)
    errors = {length: 0 for length in lengths}
    total = 0
    buf = np.empty(FRAME_CHUNK_SAMPLES, dtype=np.float32)
    for seed in seeds:
        b = min(frames_per_trial, n_frames - total)
        s_sched, s_run, s_video = seed.spawn(3)
        rng = np.random.default_rng(s_run)
        schedules = {
            length: build_tx_schedule([FrameSpec(payloads[length])] * b, cw=cw,
                                      rng_seed=s_sched)
            for length in lengths
        }
        spans = {length: _frame_spans(s, rate, lead_us, tail_us)
                 for length, s in schedules.items()}
        n_max = max(n for n, _ in spans.values())
        # one power path for every length (common random numbers)
        if noise_mw > 0:
            e, x = rice_noise(rng, n_max, noise_mw)
            in_frame, idle = rice_combine(amp0, e, x, out=x), e
        else:
            in_frame = np.full(n_max, amp0 * amp0)
            idle = np.zeros(n_max, dtype=np.float32)
        phase_us = float(rng.uniform(0.0, cfg.d_sample_us))
        offset = _comb_offset(cfg, rate, phase_us)
        noise = None
        if cfg.video_noise_sigma_v > 0:
            # at the decisions offset + k spb of the longest trace
            n_dec = len(range(offset, n_max, _samples_per_bit(cfg, rate)))
            noise = _CombVideoNoise(cfg, rate, np.random.default_rng(s_video),
                                    offset).take(n_dec)
        for length in lengths:
            schedule = schedules[length]
            n_samples, frames = spans[length]
            bits = _length_bits(cfg, rate, offset, noise, n_samples, frames,
                                in_frame, idle, buf)
            starts_us = lead_us + np.array([t for t, _ in schedule.events])
            errors[length] += _score_trial(
                BitStream(bits, cfg.d_sample_us, phase_us), length, starts_us,
                schedule.difs_us, alphabet.margin_us, min_run_bits)
        total += b
    return {length: (errors[length], total) for length in lengths}

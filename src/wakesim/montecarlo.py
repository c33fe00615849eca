"""Chunked Monte Carlo kernels for bit-level and frame-level statistics.

The bit kernels (noise_decision_voltages, signal_decision_voltages) drive
receiver.ReceiverStream, the receiver chain that receive also runs, with
float32 chunks of input power, so that runs of 1e6+ bit decisions (2e8+
envelope samples at 20 Msps) fit in memory and finish in seconds.
frame_error_trials scores each frame length of a trial with one receive
call on a float32 trace and the trial's video-noise seed. The channel
noise is the float32 Rice draw of channel, as in add_noise
(frame_error_trials draws its terms once and combines them per frame
length), and the ripple comes from the AR(1) generator that phy uses.
Trials are seeded via SeedSequence spawning, so results are deterministic
regardless of how work is split.

Only decisions leave the chain, so nothing after the detector runs at the
internal rate: the stream forms the LPF output at the decisions only and
adds the low-passed video noise on the decision comb itself
(the comb noise of receiver, 2 normals per decision).

At COF 0 (LPF bypassed) each decision reads one input sample, so the bit
kernels run the stream at the decision rate, rate / spb, and draw one power
sample per decision. This is exact, not an approximation: the noise and
Rayleigh samples are iid, the AR(1) ripple read every spb samples is an
AR(1) with pole a^spb, which is its pole at the decision rate,
exp(-d_sample / ripple_tau), and at alpha = 1 the comb video noise at
rate / spb has the video-noise pole a^spb (Van Loan, IEEE TAC 1978).
frame_error_trials still draws its noise at the internal rate; at COF 0
the stream detects only the comb samples of it.
"""

from __future__ import annotations

import numpy as np

from .channel import rice_combine, rice_noise, rice_power
from .codec import Alphabet
from .errors import ConfigurationError
from .framing import extract_runs
from .phy import (WAVEFORM_MODELS, EnvelopeTrace, FrameSpec, _ar1, _check_ripple,
                  _frame_spans, build_tx_schedule, payload_for_duration)
from .receiver import ReceiverConfig, ReceiverStream, _samples_per_bit, receive
from .seeding import seed_sequence
from .units import dbm_to_mw

CHUNK_SAMPLES = 1 << 22


def _noise_power(rng, n: int, noise_mw: float) -> np.ndarray:
    if noise_mw == 0.0:
        return np.zeros(n, dtype=np.float32)
    return rng.standard_exponential(n, dtype=np.float32) * np.float32(noise_mw)


def _stream_rate(cfg: ReceiverConfig, rate: float) -> float:
    """Sample rate of the bit kernels' stream: the decision rate at COF 0.

    With the LPF bypassed each decision reads one input sample, so only
    those samples are drawn (module docstring).
    """
    return rate / _samples_per_bit(cfg, rate) if cfg.cof_hz == 0 else rate


def _settled_decisions(cfg: ReceiverConfig, rate: float, n_decisions: int, rng,
                       settle_us: float, power_chunk) -> np.ndarray:
    """n_decisions decision voltages after settle_us of input power.

    rate is the stream's rate (_stream_rate), and power_chunk(m) returns
    the next m input power samples at the stream's rate (mW, float32): at
    COF 0 one sample per decision.
    """
    spb = _samples_per_bit(cfg, rate)
    settle = int(np.ceil(settle_us / cfg.d_sample_us))
    n_samples = (n_decisions + settle - 1) * spb + 1
    stream = ReceiverStream(cfg, rate, rng)
    out = [stream.push(power_chunk(min(CHUNK_SAMPLES, n_samples - done)))
           for done in range(0, n_samples, CHUNK_SAMPLES)]
    return np.concatenate(out)[settle:settle + n_decisions]


def noise_decision_voltages(cfg: ReceiverConfig, channel, n_decisions: int,
                            rng_seed=None, settle_us: float = 500.0) -> np.ndarray:
    """Decision voltages with no signal present (noise-only operation)."""
    rng = np.random.default_rng(rng_seed)
    noise_mw = channel.noise_floor_mw
    return _settled_decisions(cfg, _stream_rate(cfg, channel.bandwidth_hz),
                              n_decisions, rng, settle_us,
                              lambda m: _noise_power(rng, m, noise_mw))


def signal_decision_voltages(cfg: ReceiverConfig, channel, rx_power_dbm: float,
                             n_bits: int, rng_seed=None,
                             waveform: str = "dsss_constant",
                             ripple_sigma_db: float = 1.0,
                             ripple_tau_us: float = 10.0,
                             settle_us: float = 500.0) -> np.ndarray:
    """Decision voltages with the signal continuously on at rx_power_dbm.

    Per-bit miss statistics inside a frame are stationary once the LPF has
    settled, so a continuous-on stream measures in-frame p(0|1) directly.
    rx_power_dbm is the level at the receiver input; the channel supplies
    only the noise floor here.
    """
    if waveform not in WAVEFORM_MODELS:
        raise ConfigurationError(f"unknown waveform {waveform!r}")
    _check_ripple(ripple_sigma_db, ripple_tau_us)
    rate = _stream_rate(cfg, channel.bandwidth_hz)
    rng = np.random.default_rng(rng_seed)
    noise_mw = channel.noise_floor_mw
    amp0 = np.float32(np.sqrt(dbm_to_mw(rx_power_dbm)))
    # ripple: AR(1) in the log domain, mean-one in power
    ripple_ln = ripple_sigma_db * np.log(10.0) / 10.0
    ripple_a = np.exp(-1e6 / (ripple_tau_us * rate))
    r_state = None

    def power(m):
        nonlocal r_state
        if waveform == "dsss_constant":
            amp = np.full(m, amp0, dtype=np.float32)
        elif waveform == "ofdm_rayleigh":
            amp = amp0 * np.sqrt(rng.standard_exponential(m, dtype=np.float32))
        else:  # dsss_ripple
            g, r_state = _ar1(rng, m, ripple_a, state=r_state, dtype=np.float32)
            amp = amp0 * np.exp(0.5 * (ripple_ln * g - 0.5 * ripple_ln ** 2)
                                ).astype(np.float32)
        return rice_power(rng, amp, noise_mw)

    return _settled_decisions(cfg, rate, n_bits, rng, settle_us, power)


def _score_trial(bits, length_us, starts_us, difs_us, margin_us, min_run_bits):
    """Number of detection errors among the frames of one trial's bits."""
    runs = extract_runs(bits, min_run_bits=min_run_bits)
    b = starts_us.size
    centers = starts_us + length_us / 2.0
    half_window = (length_us + difs_us) / 2.0
    hits = np.zeros(b, dtype=np.int32)      # runs falling in each window
    good = np.zeros(b, dtype=bool)          # window's run matches the symbol
    phase_us, d_sample_us = bits.phase_offset_us, bits.d_sample_us
    for run in runs:
        mid = phase_us + (run.start_bit + (run.run_length_bits - 1) / 2.0) * d_sample_us
        k = int(np.argmin(np.abs(centers - mid)))
        if abs(mid - centers[k]) <= half_window:
            hits[k] += 1
            good[k] = abs(run.estimated_duration_us - length_us) <= margin_us
    return int(b - np.count_nonzero((hits == 1) & good))


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
    scatter. The noise path is the Rice terms (E, X) of channel.rice_noise,
    drawn once over the longest trace; each length combines a prefix of them
    with its own amplitude. Each length is then one receive call with the
    trial's video-noise seed, so every length reads the same slow-noise path.

    Returns {length_us: (n_errors, n_frames)}.
    """
    lengths = [float(x) for x in lengths_us]
    rate = channel.bandwidth_hz
    payloads = {length: payload_for_duration(length) for length in lengths}
    noise_mw = channel.noise_floor_mw
    amp0 = np.float32(np.sqrt(dbm_to_mw(rx_power_dbm)))
    n_trials = int(np.ceil(n_frames / frames_per_trial))
    seeds = seed_sequence(rng_seed).spawn(n_trials)
    errors = {length: 0 for length in lengths}
    total = 0
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
        # one noise prefix for every length (common random numbers): the
        # Rice terms are drawn once and combined per length below
        terms = rice_noise(rng, n_max, noise_mw) if noise_mw > 0 else None
        phase_us = float(rng.uniform(0.0, cfg.d_sample_us))
        for length in lengths:
            schedule = schedules[length]
            n_samples, frames = spans[length]
            amp = np.zeros(n_samples, dtype=np.float32)
            for i0, i1 in frames:
                amp[i0:i1] = amp0
            if terms is not None:
                power = rice_combine(amp, *(t[:n_samples] for t in terms))
            else:
                power = amp * amp
            bits = receive(EnvelopeTrace(power, rate), cfg, phase_us,
                           rng_seed=s_video)
            starts_us = lead_us + np.array([t for t, _ in schedule.events])
            errors[length] += _score_trial(bits, length, starts_us,
                                           schedule.difs_us, alphabet.margin_us,
                                           min_run_bits)
        total += b
    return {length: (errors[length], total) for length in lengths}


def frame_error_batch(length_us, rx_power_dbm, cfg, channel, alphabet,
                      n_frames, rng_seed=None, **kwargs):
    """Single-length wrapper around frame_error_trials; returns (errors, n)."""
    out = frame_error_trials([length_us], rx_power_dbm, cfg, channel, alphabet,
                             n_frames, rng_seed=rng_seed, **kwargs)
    return out[float(length_us)]

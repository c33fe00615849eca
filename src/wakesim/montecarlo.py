"""Chunked Monte Carlo kernels for bit-level and frame-level statistics.

These produce the same statistics as composing the whole-trace operations in
phy/channel/receiver, but stream float32 chunks with carried filter state so
that runs of 1e6+ bit decisions (2e8+ envelope samples at 20 Msps) fit in
memory and finish in seconds. Trials are seeded via SeedSequence spawning, so
results are deterministic regardless of how work is split.

Only decisions leave these kernels, so none of them draws the slow video
noise at the internal rate: the detector output is low-passed at 20 Msps
and decimated, and the low-passed video noise is drawn on the decision comb
itself (receiver._CombVideoNoise, 2 normals per decision).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from scipy.signal import lfilter

from .codec import Alphabet
from .errors import ConfigurationError
from .framing import extract_runs
from .phy import FrameSpec, build_tx_schedule, payload_for_duration
from .receiver import (BitStream, ReceiverConfig, _CombVideoNoise, lpf_alpha,
                       rc_lpf_array)
from .seeding import seed_sequence
from .units import db_to_linear, dbm_to_mw

CHUNK_SAMPLES = 1 << 22


def _samples_per_bit(cfg: ReceiverConfig, sample_rate_hz: float) -> int:
    spb = cfg.d_sample_us * sample_rate_hz / 1e6
    if abs(spb - round(spb)) > 1e-9:
        raise ConfigurationError(
            "d_sample_us must be an integer number of samples at the internal rate")
    return int(round(spb))


class ReceiverStream:
    """Receiver chain over a stream of input power chunks (mW, pre-LNA).

    Each chunk is detected and low-passed at the internal rate (the filter
    state carries across chunks), read on the decision comb, and the
    low-passed video noise, drawn from rng, is added there. The comb is
    fixed by comb_offset and the samples pushed so far, whatever the chunk
    sizes.
    """

    def __init__(self, cfg: ReceiverConfig, sample_rate_hz: float, rng,
                 comb_offset: int = 0):
        self.cfg = cfg
        self.spb = _samples_per_bit(cfg, sample_rate_hz)
        self.lna = np.float32(db_to_linear(cfg.lna_gain_db))
        self.alpha = lpf_alpha(cfg.cof_hz, sample_rate_hz) if cfg.cof_hz > 0 else None
        self.zi = 0.0
        self.noise = (_CombVideoNoise(cfg, sample_rate_hz, rng)
                      if cfg.video_noise_sigma_v > 0 else None)
        self.next_dec = comb_offset
        self.g0 = 0

    def _detect(self, power_mw: np.ndarray) -> np.ndarray:
        p = power_mw * self.lna
        cfg = self.cfg
        if cfg.detector_model == "square_law_linear":
            return np.float32(cfg.square_law_k) * p
        floor = np.float32(dbm_to_mw(cfg.log_floor_dbm))
        np.maximum(p, floor, out=p)
        v = np.log10(p)
        v *= np.float32(10.0 * cfg.log_slope_v_per_db)
        v += np.float32(cfg.log_intercept_v)
        return v

    def push(self, power_mw: np.ndarray) -> np.ndarray:
        """Process one chunk; returns the decision voltages that fall in it."""
        v = self._detect(power_mw)
        if self.alpha is not None:
            v, self.zi = rc_lpf_array(v, self.alpha, self.zi)
        local = self.next_dec - self.g0
        n = v.size
        if local < n:
            sel = np.arange(local, n, self.spb)
            self.next_dec = self.g0 + int(sel[-1]) + self.spb
            out = v[sel]
            if self.noise is not None:
                out += self.noise.at(self.g0 + sel).astype(out.dtype)
        else:
            out = v[:0]
        self.g0 += n
        return out


def _noise_power(rng, n: int, noise_mw: float) -> np.ndarray:
    if noise_mw == 0.0:
        return np.zeros(n, dtype=np.float32)
    return rng.standard_exponential(n, dtype=np.float32) * np.float32(noise_mw)


def _rice_power(rng, amp: np.ndarray, noise_mw: float) -> np.ndarray:
    """|amp + n|^2 with circular complex Gaussian n of mean power noise_mw."""
    amp = np.asarray(amp, dtype=np.float32)
    if noise_mw == 0.0:
        return amp * amp
    sigma = np.float32(np.sqrt(noise_mw / 2.0))
    re = rng.standard_normal(amp.size, dtype=np.float32)
    im = rng.standard_normal(amp.size, dtype=np.float32)
    re *= sigma
    im *= sigma
    re += amp
    return re * re + im * im


def _ar1_lognormal_amp(rng, n: int, sigma_db: float, tau_us: float,
                       rate_hz: float, state):
    """Amplitude ripple factors for dsss_ripple; mean-one in power."""
    sigma_ln = sigma_db * np.log(10.0) / 10.0
    a = np.exp(-1e6 / (tau_us * rate_hz))
    c = np.sqrt(1.0 - a * a)
    w = rng.standard_normal(n).astype(np.float32)
    if state is None:
        zi = np.array([(1.0 - c) * w[0]], dtype=np.float32)
    else:
        zi = np.array([a * state], dtype=np.float32)
    g = lfilter([c], [1.0, -a], w, zi=zi)[0]
    factors = np.exp(0.5 * (sigma_ln * g - 0.5 * sigma_ln ** 2)).astype(np.float32)
    return factors, float(g[-1])


def noise_decision_voltages(cfg: ReceiverConfig, channel, n_decisions: int,
                            rng_seed=None, settle_us: float = 500.0) -> np.ndarray:
    """Decision voltages with no signal present (noise-only operation)."""
    rate = channel.bandwidth_hz
    spb = _samples_per_bit(cfg, rate)
    settle = int(np.ceil(settle_us / cfg.d_sample_us))
    total = n_decisions + settle
    n_samples = (total - 1) * spb + 1
    rng = np.random.default_rng(rng_seed)
    stream = ReceiverStream(cfg, rate, rng)
    noise_mw = channel.noise_floor_mw
    out = []
    done = 0
    while done < n_samples:
        m = min(CHUNK_SAMPLES, n_samples - done)
        out.append(stream.push(_noise_power(rng, m, noise_mw)))
        done += m
    dec = np.concatenate(out)
    return dec[settle:settle + n_decisions]


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
    rate = channel.bandwidth_hz
    spb = _samples_per_bit(cfg, rate)
    settle = int(np.ceil(settle_us / cfg.d_sample_us))
    total = n_bits + settle
    n_samples = (total - 1) * spb + 1
    rng = np.random.default_rng(rng_seed)
    stream = ReceiverStream(cfg, rate, rng)
    noise_mw = channel.noise_floor_mw
    amp0 = np.float32(np.sqrt(dbm_to_mw(rx_power_dbm)))
    r_state = None
    out = []
    done = 0
    while done < n_samples:
        m = min(CHUNK_SAMPLES, n_samples - done)
        if waveform == "dsss_constant":
            amp = np.full(m, amp0, dtype=np.float32)
        elif waveform == "ofdm_rayleigh":
            amp = amp0 * np.sqrt(rng.standard_exponential(m, dtype=np.float32))
        elif waveform == "dsss_ripple":
            factors, r_state = _ar1_lognormal_amp(rng, m, ripple_sigma_db,
                                                  ripple_tau_us, rate, r_state)
            amp = amp0 * factors
        else:
            raise ConfigurationError(f"unknown waveform {waveform!r}")
        out.append(stream.push(_rice_power(rng, amp, noise_mw)))
        done += m
    dec = np.concatenate(out)
    return dec[settle:settle + n_bits]


def _score_trial(volts, phase_us, cfg, length_us, starts_us,
                 difs_us, margin_us, min_run_bits):
    """Number of detection errors among the frames of one trial.

    volts are the decision voltages on the trial's comb of phase phase_us.
    """
    bits = BitStream(bits=(volts > cfg.threshold_v).astype(np.uint8),
                     d_sample_us=cfg.d_sample_us, phase_offset_us=phase_us)
    runs = extract_runs(bits, min_run_bits=min_run_bits)
    b = starts_us.size
    centers = starts_us + length_us / 2.0
    half_window = (length_us + difs_us) / 2.0
    hits = np.zeros(b, dtype=np.int32)      # runs falling in each window
    good = np.zeros(b, dtype=bool)          # window's run matches the symbol
    for run in runs:
        mid = phase_us + (run.start_bit + (run.run_length_bits - 1) / 2.0) \
            * cfg.d_sample_us
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
    scatter.

    Returns {length_us: (n_errors, n_frames)}.
    """
    if cfg.threshold_v is None:
        raise ConfigurationError("threshold_v is not set; calibrate it first")
    lengths = [float(x) for x in lengths_us]
    rate = channel.bandwidth_hz
    per_us = rate / 1e6
    payloads = {length: payload_for_duration(length) for length in lengths}
    noise_mw = channel.noise_floor_mw
    amp0 = np.float32(np.sqrt(dbm_to_mw(rx_power_dbm)))
    margin = alphabet.margin_us
    spb = _samples_per_bit(cfg, rate)
    quiet = replace(cfg, video_noise_sigma_v=0.0)
    n_trials = int(np.ceil(n_frames / frames_per_trial))
    seeds = seed_sequence(rng_seed).spawn(n_trials)
    errors = {length: 0 for length in lengths}
    total = 0
    for seed in seeds:
        b = min(frames_per_trial, n_frames - total)
        s_sched, s_run = seed.spawn(2)
        rng = np.random.default_rng(s_run)
        schedules = {
            length: build_tx_schedule([FrameSpec(payloads[length])] * b, cw=cw,
                                      rng_seed=s_sched)
            for length in lengths
        }
        n_max = max(int(round((lead_us + s.end_us + tail_us) * per_us))
                    for s in schedules.values())
        re = im = None
        if noise_mw > 0:
            sigma = np.float32(np.sqrt(noise_mw / 2.0))
            re = rng.standard_normal(n_max, dtype=np.float32) * sigma
            im = rng.standard_normal(n_max, dtype=np.float32) * sigma
        phase_us = float(rng.uniform(0.0, cfg.d_sample_us))
        offset = int(round(phase_us * spb / cfg.d_sample_us))
        # one comb noise path per trial, read as a prefix by every length
        comb_noise = None
        if cfg.video_noise_sigma_v > 0:
            comb_noise = _CombVideoNoise(cfg, rate, rng).at(
                np.arange(offset, n_max, spb)).astype(np.float32)
        for length in lengths:
            schedule = schedules[length]
            n_samples = int(round((lead_us + schedule.end_us + tail_us) * per_us))
            amp = np.zeros(n_samples, dtype=np.float32)
            starts_us = np.empty(b)
            for k, (t_us, frame) in enumerate(schedule.events):
                i0 = int(round((lead_us + t_us) * per_us))
                i1 = int(round((lead_us + t_us + frame.duration_us) * per_us))
                amp[i0:i1] = amp0
                starts_us[k] = lead_us + t_us
            if re is not None:
                power = (amp + re[:n_samples]) ** 2 + im[:n_samples] ** 2
            else:
                power = amp * amp
            volts = ReceiverStream(quiet, rate, None, comb_offset=offset).push(power)
            if comb_noise is not None:
                volts += comb_noise[:volts.size]
            errors[length] += _score_trial(volts, phase_us, cfg, length,
                                           starts_us, schedule.difs_us,
                                           margin, min_run_bits)
        total += b
    return {length: (errors[length], total) for length in lengths}


def frame_error_batch(length_us, rx_power_dbm, cfg, channel, alphabet,
                      n_frames, rng_seed=None, **kwargs):
    """Single-length wrapper around frame_error_trials; returns (errors, n)."""
    out = frame_error_trials([length_us], rx_power_dbm, cfg, channel, alphabet,
                             n_frames, rng_seed=rng_seed, **kwargs)
    return out[float(length_us)]

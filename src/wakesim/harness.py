"""Experiment drivers: threshold calibration, error estimators, sweeps.

All entry points are deterministic given an explicit seed. Confidence
intervals are 95% Wilson score intervals on binomial counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .cc2420 import Cc2420Config, count_distribution
from .channel import ChannelConfig
from .codec import Alphabet
from .errors import CalibrationError, ConfigurationError
from .framing import check_difs_separability, measure_edge_delays
from .montecarlo import (frame_error_batch, frame_error_trials,
                         noise_decision_voltages, signal_decision_voltages)
from .phy import FrameSpec
from .receiver import ReceiverConfig
from .seeding import seed_sequence

Z95 = 1.959963984540054


def wilson_interval(k: int, n: int, z: float = Z95) -> Tuple[float, float]:
    """95% score interval for a binomial proportion."""
    if n <= 0:
        raise ConfigurationError("n must be positive")
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * np.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    # the score interval contains p by construction; clamp away float fuzz
    return min(p, max(0.0, center - half)), max(p, min(1.0, center + half))


@dataclass
class ErrorStats:
    """Measured error probabilities with 95% confidence intervals."""

    p10: Optional[float] = None
    p10_ci: Optional[Tuple[float, float]] = None
    p01: Optional[float] = None
    p01_ci: Optional[Tuple[float, float]] = None
    frame_error_rate: Dict[float, Tuple[float, float, float]] = field(default_factory=dict)

    def __post_init__(self):
        for value, ci in ((self.p10, self.p10_ci), (self.p01, self.p01_ci)):
            if value is not None:
                if not (0.0 <= value <= 1.0):
                    raise ConfigurationError(f"probability {value} outside [0, 1]")
                if ci is not None and not (ci[0] <= value <= ci[1]):
                    raise ConfigurationError("confidence interval must bracket the estimate")


def calibrate_threshold(cfg: ReceiverConfig, channel: ChannelConfig,
                        target_p10: float = 1e-3, rng_seed=None,
                        n_decisions: int = 1_000_000,
                        max_steps: int = 60) -> float:
    """Bisect the threshold until measured p(1|0) lands in [0.5, 2] x target.

    The noise-only decision sample is drawn once (>= n_decisions bit
    decisions) and the threshold is bisected against it, which makes the
    measured false-alarm rate monotone in the threshold.
    """
    if not (0.0 < target_p10 < 0.5):
        raise ConfigurationError("target_p10 must lie in (0, 0.5)")
    dec = noise_decision_voltages(cfg, channel, n_decisions, rng_seed=rng_seed)
    dec = np.sort(dec)
    lo, hi = float(dec[0]), float(dec[-1])
    if lo == hi:
        # noise disabled: any threshold above the detector floor gives p10 = 0
        # (epsilon comfortably above float32 rounding of the floor voltage)
        return hi + max(1e-6, abs(hi) * 1e-5)
    band = (0.5 * target_p10, 2.0 * target_p10)
    n = dec.size
    best = None
    best_err = np.inf
    for _ in range(max_steps):
        mid = 0.5 * (lo + hi)
        p = (n - np.searchsorted(dec, mid, side="right")) / n
        if band[0] <= p <= band[1] and abs(p - target_p10) < best_err:
            best, best_err = float(mid), abs(p - target_p10)
            if best_err <= 0.02 * target_p10:
                return best
        if p > target_p10:
            lo = mid
        else:
            hi = mid
    if best is not None:
        return best
    raise CalibrationError(
        f"threshold bisection did not reach p(1|0) in [{band[0]:g}, {band[1]:g}] "
        f"within {max_steps} steps")


def measure_p10(cfg: ReceiverConfig, channel: ChannelConfig, rng_seed=None,
                n_decisions: int = 1_000_000) -> ErrorStats:
    """Fresh noise-only false-alarm measurement at the configured threshold.

    The Wilson interval assumes independent decisions. The LPF and the slow
    video noise correlate consecutive decisions, so the interval is too
    narrow: at COF 159 kHz and p10 = 1e-2 the standard deviation of p10 over
    seeds is 1.38x the binomial one (1.08x at COF 0).
    """
    if cfg.threshold_v is None:
        raise ConfigurationError("threshold_v is not set; calibrate it first")
    dec = noise_decision_voltages(cfg, channel, n_decisions, rng_seed=rng_seed)
    k = int(np.count_nonzero(dec > cfg.threshold_v))
    return ErrorStats(p10=k / n_decisions, p10_ci=wilson_interval(k, n_decisions))


def estimate_p01(cfg: ReceiverConfig, channel: ChannelConfig,
                 rx_power_dbm: float, rng_seed=None, n_bits: int = 100_000,
                 waveform: str = "dsss_constant") -> ErrorStats:
    """Fraction of in-frame bits sliced as 0 at the given received power.

    The Wilson interval assumes independent decisions, which the LPF and
    the slow video noise correlate (see measure_p10).
    """
    if cfg.threshold_v is None:
        raise ConfigurationError("threshold_v is not set; calibrate it first")
    dec = signal_decision_voltages(cfg, channel, rx_power_dbm, n_bits,
                                   rng_seed=rng_seed, waveform=waveform)
    k = int(np.count_nonzero(dec <= cfg.threshold_v))
    return ErrorStats(p01=k / n_bits, p01_ci=wilson_interval(k, n_bits))


def required_power_for_p01(cfg: ReceiverConfig, channel: ChannelConfig,
                           target_p01: float = 1e-3, rng_seed=None,
                           power_hi_dbm: float = -60.0,
                           power_lo_dbm: float = -105.0,
                           coarse_step_db: float = 2.0,
                           n_bits_coarse: int = 40_000,
                           n_bits_fine: int = 250_000,
                           waveform: str = "dsss_constant") -> float:
    """Received power (dBm) at which p(0|1) crosses target_p01.

    Scans downward on a coarse grid to bracket the crossing, refines the
    bracketing points with a larger bit count, and interpolates the crossing
    linearly in log10 p(0|1).
    """
    ss = seed_sequence(rng_seed)

    def p01_at(power, n_bits, seed):
        stats = estimate_p01(cfg, channel, power, rng_seed=seed, n_bits=n_bits,
                             waveform=waveform)
        return stats.p01

    powers = np.arange(power_hi_dbm, power_lo_dbm - 1e-9, -coarse_step_db)
    seeds = iter(ss.spawn(len(powers) + 16))
    above = None  # last power with p01 < target
    bracket = None
    for power in powers:
        p = p01_at(power, n_bits_coarse, next(seeds))
        if p < target_p01:
            above = power
        elif above is not None:
            bracket = (power, above)
            break
    if bracket is None:
        raise CalibrationError(
            f"p(0|1) = {target_p01:g} not bracketed in "
            f"[{power_lo_dbm}, {power_hi_dbm}] dBm")
    lo, hi = bracket
    p_lo = max(p01_at(lo, n_bits_fine, next(seeds)), 1.0 / n_bits_fine)
    p_hi = max(p01_at(hi, n_bits_fine, next(seeds)), 0.5 / n_bits_fine)
    for _ in range(3):
        mid = 0.5 * (lo + hi)
        p_mid = max(p01_at(mid, n_bits_fine, next(seeds)), 0.5 / n_bits_fine)
        if p_mid > target_p01:
            lo, p_lo = mid, p_mid
        else:
            hi, p_hi = mid, p_mid
    # linear crossing in log-probability
    f = (np.log10(target_p01) - np.log10(p_lo)) / (np.log10(p_hi) - np.log10(p_lo))
    return float(lo + f * (hi - lo))


def frame_error_sweep(lengths_us: Sequence[float], rx_powers_dbm: Sequence[float],
                      cfg: ReceiverConfig, channel: ChannelConfig,
                      alphabet: Optional[Alphabet] = None,
                      n_frames: int = 10_000, rng_seed=None,
                      frames_per_trial: int = 100, cw: int = 1) -> Dict[Tuple[float, float], ErrorStats]:
    """Frame-length detection error rate per (length, received power).

    All lengths at one power share the same noise realizations (common random
    numbers), so cross-length comparisons are not washed out by Monte Carlo
    scatter.
    """
    if alphabet is None:
        alphabet = Alphabet(symbols=tuple(sorted(float(x) for x in set(lengths_us))))
    for length in lengths_us:
        if float(length) not in alphabet.symbols:
            raise ConfigurationError(f"alphabet does not cover {length} us")
    ss = seed_sequence(rng_seed)
    seeds = ss.spawn(len(rx_powers_dbm))
    results: Dict[Tuple[float, float], ErrorStats] = {}
    for power, seed in zip(rx_powers_dbm, seeds):
        by_length = frame_error_trials(lengths_us, float(power), cfg, channel,
                                       alphabet, n_frames, rng_seed=seed,
                                       frames_per_trial=frames_per_trial, cw=cw)
        for length, (k, n) in by_length.items():
            lo, hi = wilson_interval(k, n)
            stats = ErrorStats()
            stats.frame_error_rate[float(length)] = (k / n, lo, hi)
            results[(float(length), float(power))] = stats
    return results


def min_power_for_frame_error(length_us: float, cfg: ReceiverConfig,
                              channel: ChannelConfig, alphabet: Alphabet,
                              target_error: float = 0.1, rng_seed=None,
                              power_lo_dbm: float = -96.0,
                              power_hi_dbm: float = -80.0,
                              step_db: float = 0.5,
                              n_frames: int = 2000) -> float:
    """Lowest received power at which frame identification stays below target.

    Scans upward on a step_db grid; returns the first power whose measured
    frame error rate is below target_error.
    """
    powers = np.arange(power_lo_dbm, power_hi_dbm + 1e-9, step_db)
    seeds = seed_sequence(rng_seed).spawn(len(powers))
    for power, seed in zip(powers, seeds):
        k, n = frame_error_batch(float(length_us), float(power), cfg, channel,
                                 alphabet, n_frames, rng_seed=seed)
        if k / n < target_error:
            return float(power)
    raise CalibrationError(
        f"frame error never fell below {target_error:g} up to {power_hi_dbm} dBm")


def cc2420_min_power_for_identification(frame: FrameSpec, cfg: Cc2420Config,
                                        channel: ChannelConfig,
                                        count_window: Tuple[int, int],
                                        target_error: float = 0.1, rng_seed=None,
                                        power_lo_dbm: float = -80.0,
                                        power_hi_dbm: float = -58.0,
                                        step_db: float = 0.5,
                                        n_frames: int = 1000) -> float:
    """Lowest received power at which CCA-count identification stays below target.

    A frame is identified when its CCA count falls inside count_window
    (inclusive). Scans upward like min_power_for_frame_error.
    """
    lo_count, hi_count = count_window
    powers = np.arange(power_lo_dbm, power_hi_dbm + 1e-9, step_db)
    seeds = seed_sequence(rng_seed).spawn(len(powers))
    for power, seed in zip(powers, seeds):
        counts = count_distribution(frame, float(power), cfg, n_frames=n_frames,
                                    rng_seed=seed, channel=channel)
        bad = sum(v for c, v in counts.items() if not lo_count <= c <= hi_count)
        if bad / n_frames < target_error:
            return float(power)
    raise CalibrationError(
        f"CCA identification error never fell below {target_error:g} up to "
        f"{power_hi_dbm} dBm")


@dataclass
class EdgeDelayRow:
    """One cut-off-frequency row of the decay-delay table."""

    cof_hz: float
    threshold_v: float
    d_down_min_us: float
    d_down_max_us: float
    d_down_mean_us: float
    d_up_mean_us: float
    difs_separable: bool


def edge_delay_table(cofs_hz: Sequence[float], cfg: ReceiverConfig,
                     channel: ChannelConfig, rx_power_dbm: float = -10.2,
                     n_trials: int = 25, rng_seed=None,
                     threshold_policy: str = "fixed_reference",
                     reference_cof_hz: float = 159e3,
                     target_p10: float = 1e-3):
    """Decay-delay statistics across LPF cut-off settings at one received power.

    threshold_policy "fixed_reference" calibrates the detection threshold once
    at reference_cof_hz and holds that comparator setting while the filter is
    swapped, isolating the filter's effect on the decay. "per_cof" recalibrates
    at every cut-off instead.
    """
    if threshold_policy not in ("fixed_reference", "per_cof"):
        raise ConfigurationError(f"unknown threshold_policy {threshold_policy!r}")
    ss = seed_sequence(rng_seed)
    cal_seed, *trial_seeds = ss.spawn(len(cofs_hz) + 1)
    t_ref = None
    if threshold_policy == "fixed_reference":
        ref_cfg = replace(cfg, cof_hz=reference_cof_hz, threshold_v=None)
        t_ref = calibrate_threshold(ref_cfg, channel, target_p10=target_p10,
                                    rng_seed=cal_seed)
    rows = []
    for cof, seed in zip(cofs_hz, trial_seeds):
        if threshold_policy == "per_cof":
            run_cfg = replace(cfg, cof_hz=cof, threshold_v=None)
            threshold = calibrate_threshold(run_cfg, channel,
                                            target_p10=target_p10, rng_seed=seed)
        else:
            threshold = t_ref
        run_cfg = replace(cfg, cof_hz=cof, threshold_v=threshold)
        stats = measure_edge_delays(run_cfg, rx_power_dbm, channel,
                                    n_trials=n_trials, rng_seed=seed)
        rows.append(EdgeDelayRow(
            cof_hz=float(cof), threshold_v=float(threshold),
            d_down_min_us=stats.d_down_min, d_down_max_us=stats.d_down_max,
            d_down_mean_us=stats.d_down_mean, d_up_mean_us=stats.d_up_mean,
            difs_separable=check_difs_separability(
                stats.d_down_mean, d_sample_us=cfg.d_sample_us),
        ))
    return rows

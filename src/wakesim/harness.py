"""Experiment drivers: threshold calibration, error estimators, sweeps.

All entry points are deterministic given an explicit seed. Thresholds are
order statistics of a noise-only sample. Every power search is one upward
grid scan (_first_power_below) that returns the first power whose measured
error is below target, so it resolves to the grid step;
required_power_for_p01 runs a second scan at 1/8 of its coarse step.
Confidence intervals are 95% Wilson score intervals on binomial counts.
frame_error_sweep runs its powers on a thread pool, two at a time, or three
for an odd number of powers, each from the seed it is spawned in power
order, so its result does not depend on thread timing or the number of
CPUs.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .cc2420 import Cc2420Config, count_distribution
from .channel import ChannelConfig
from .codec import Alphabet
from .errors import CalibrationError, ConfigurationError, _check_count
from .framing import check_difs_separability, measure_edge_delays
from .montecarlo import (_check_trial_input, frame_error_trials,
                         noise_decision_voltages, signal_decision_voltages)
from .phy import FrameSpec
from .receiver import ReceiverConfig
from .seeding import seed_sequence

Z95 = 1.959963984540054
# the powers of frame_error_sweep in flight at once: one per CPU of a
# 2-CPU host, and one more for an odd number of powers, so that the last
# power does not run alone; a trial holds one path of its longest trace
# (montecarlo._NoiseStore), so three trials take less memory than two did
# when each held two
_SWEEP_WORKERS = 2


def wilson_interval(k: int, n: int, z: float = Z95) -> Tuple[float, float]:
    """95% score interval for a binomial proportion."""
    if n <= 0:
        raise ConfigurationError("n must be positive")
    if not 0 <= k <= n:
        raise ConfigurationError(f"k must lie in [0, n], got k = {k}, n = {n}")
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
                        n_decisions: int = 1_000_000) -> float:
    """Threshold above which target_p10 of a noise-only decision sample lies.

    The sample (>= n_decisions decisions) is drawn once. Of its n decisions,
    the threshold is the midpoint of the k-th and (k+1)-th largest, with k =
    round(target_p10 * n). Raises CalibrationError if p(1|0) = #(dec > t) / n
    is outside [0.5, 2] x target (k = 0, or ties across the midpoint).
    """
    if not (0.0 < target_p10 < 0.5):
        raise ConfigurationError("target_p10 must lie in (0, 0.5)")
    dec = np.sort(noise_decision_voltages(cfg, channel, n_decisions, rng_seed=rng_seed))
    lo, hi = float(dec[0]), float(dec[-1])
    if lo == hi:
        # noise disabled: any threshold above the detector floor gives p10 = 0
        # (epsilon comfortably above float32 rounding of the floor voltage)
        return hi + max(1e-6, abs(hi) * 1e-5)
    n = dec.size
    k = int(round(target_p10 * n))
    # at k = 0 both order statistics are the largest decision, so p = 0
    threshold = 0.5 * (float(dec[n - k - 1]) + float(dec[min(n - k, n - 1)]))
    p = np.count_nonzero(dec > threshold) / n
    if not 0.5 * target_p10 <= p <= 2.0 * target_p10:
        raise CalibrationError(
            f"p(1|0) = {p:g} at the order-statistic threshold is outside "
            f"[0.5, 2] x {target_p10:g} with {n} decisions")
    return threshold


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
                 rx_power_dbm: float, rng_seed=None, n_bits: int = 100_000) -> ErrorStats:
    """Fraction of in-frame bits sliced as 0 at the given received power.

    The Wilson interval assumes independent decisions, which the LPF and
    the slow video noise correlate (see measure_p10).
    """
    if cfg.threshold_v is None:
        raise ConfigurationError("threshold_v is not set; calibrate it first")
    dec = signal_decision_voltages(cfg, channel, rx_power_dbm, n_bits,
                                   rng_seed=rng_seed)
    k = int(np.count_nonzero(dec <= cfg.threshold_v))
    return ErrorStats(p01=k / n_bits, p01_ci=wilson_interval(k, n_bits))


def required_power_for_p01(cfg: ReceiverConfig, channel: ChannelConfig,
                           target_p01: float = 1e-3, rng_seed=None,
                           power_hi_dbm: float = -60.0,
                           power_lo_dbm: float = -105.0,
                           coarse_step_db: float = 2.0,
                           n_bits_coarse: int = 40_000,
                           n_bits_fine: int = 250_000) -> float:
    """Lowest grid power (dBm) at which the measured p(0|1) is below target_p01.

    Scans upward from power_lo_dbm on the coarse_step_db grid with
    n_bits_coarse bits per power, then from one coarse step below that
    answer on a grid of coarse_step_db / 8 (0.25 dB at the default) with
    n_bits_fine bits, and returns the first fine power below target. Raises
    CalibrationError if p(0|1) is already below target at power_lo_dbm (the
    crossing is not bracketed) or never falls below it up to power_hi_dbm.
    """
    if not (np.isfinite(coarse_step_db) and coarse_step_db > 0):
        raise ConfigurationError(
            f"coarse_step_db must be positive and finite, got {coarse_step_db}")
    _check_count("n_bits_coarse", n_bits_coarse)
    _check_count("n_bits_fine", n_bits_fine)
    s_coarse, s_fine = seed_sequence(rng_seed).spawn(2)

    def p01_with(n_bits):
        return lambda power, seed: estimate_p01(cfg, channel, power, rng_seed=seed,
                                                n_bits=n_bits).p01

    coarse = _first_power_below(p01_with(n_bits_coarse), target_p01, s_coarse,
                                power_lo_dbm, power_hi_dbm, coarse_step_db, "p(0|1)",
                                "target_p01")
    if coarse == power_lo_dbm:
        raise CalibrationError(
            f"p(0|1) is already below {target_p01:g} at power_lo_dbm = "
            f"{power_lo_dbm} dBm: the crossing is not bracketed")
    return _first_power_below(p01_with(n_bits_fine), target_p01, s_fine,
                              coarse - coarse_step_db, power_hi_dbm,
                              coarse_step_db / 8, "p(0|1)", "target_p01")


def frame_error_sweep(lengths_us: Sequence[float], rx_powers_dbm: Sequence[float],
                      cfg: ReceiverConfig, channel: ChannelConfig,
                      alphabet: Optional[Alphabet] = None,
                      n_frames: int = 10_000, rng_seed=None,
                      frames_per_trial: int = 100, cw: int = 1) -> Dict[Tuple[float, float], ErrorStats]:
    """Frame-length detection error rate per (length, received power).

    All lengths at one power share the same noise realizations (common random
    numbers), so cross-length comparisons are not washed out by Monte Carlo
    scatter.

    Each power runs frame_error_trials from its own seed, spawned from
    rng_seed in power order, on one of the threads of a ThreadPoolExecutor:
    _SWEEP_WORKERS of them, and one more for an odd number of powers, whose
    last power would otherwise run while a CPU idles (with three for an
    even number, its last power would run alone). The inputs are checked
    before the pool starts, the powers each once; the results are read in
    power order, and the first power to fail raises its error here, after
    the powers not yet started are cancelled and the workers are joined.
    """
    powers = [float(power) for power in rx_powers_dbm]
    for power in powers:
        _check_trial_input(lengths_us, power, n_frames, frames_per_trial)
    if len(set(powers)) < len(powers):
        # the results are keyed by (length, power)
        raise ConfigurationError(
            f"rx_powers_dbm must hold distinct powers, got {powers}")
    if alphabet is None:
        alphabet = Alphabet(symbols=tuple(sorted(float(x) for x in set(lengths_us))))
    for length in lengths_us:
        if float(length) not in alphabet.symbols:
            raise ConfigurationError(f"alphabet does not cover {length} us")
    seeds = seed_sequence(rng_seed).spawn(len(powers))

    def trials(power, seed):
        return frame_error_trials(lengths_us, power, cfg, channel, alphabet,
                                  n_frames, rng_seed=seed,
                                  frames_per_trial=frames_per_trial, cw=cw)

    with ThreadPoolExecutor(max_workers=_SWEEP_WORKERS + len(powers) % 2) as pool:
        by_power = list(pool.map(trials, powers, seeds))
    results: Dict[Tuple[float, float], ErrorStats] = {}
    for power, by_length in zip(powers, by_power):
        for length, (k, n) in by_length.items():
            lo, hi = wilson_interval(k, n)
            stats = ErrorStats()
            stats.frame_error_rate[float(length)] = (k / n, lo, hi)
            results[(float(length), power)] = stats
    return results


def _first_power_below(error_at, target_error: float, rng_seed,
                       power_lo_dbm: float, power_hi_dbm: float,
                       step_db: float, what: str,
                       target_key: str = "target_error") -> float:
    """First power of the upward step_db grid where error_at(power, seed) < target.

    Every grid power gets its own seed, spawned in grid order from rng_seed.
    The target, named target_key, must be in (0, 1] and the grid bounds
    finite with power_lo_dbm <= power_hi_dbm; they are checked before
    anything is measured.
    """
    # written so that NaN fails it
    if not 0 < target_error <= 1:
        raise ConfigurationError(f"{target_key} must be in (0, 1], got {target_error}")
    if not (np.isfinite(step_db) and step_db > 0):
        raise ConfigurationError(f"step_db must be positive and finite, got {step_db}")
    for key, value in (("power_lo_dbm", power_lo_dbm), ("power_hi_dbm", power_hi_dbm)):
        if not np.isfinite(value):
            raise ConfigurationError(f"{key} must be finite, got {value}")
    if power_lo_dbm > power_hi_dbm:
        raise ConfigurationError(
            f"power_lo_dbm = {power_lo_dbm} must not exceed power_hi_dbm = {power_hi_dbm}")
    powers = np.arange(power_lo_dbm, power_hi_dbm + 1e-9, step_db)
    seeds = seed_sequence(rng_seed).spawn(len(powers))
    for power, seed in zip(powers, seeds):
        if error_at(float(power), seed) < target_error:
            return float(power)
    raise CalibrationError(
        f"{what} never fell below {target_error:g} up to {power_hi_dbm} dBm")


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
    def error_at(power, seed):
        [(k, n)] = frame_error_trials([length_us], power, cfg, channel,
                                      alphabet, n_frames, rng_seed=seed).values()
        return k / n

    return _first_power_below(error_at, target_error, rng_seed, power_lo_dbm,
                              power_hi_dbm, step_db, "frame error")


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
    (inclusive), which must not be empty. Scans upward like
    min_power_for_frame_error.
    """
    lo_count, hi_count = count_window
    if lo_count > hi_count:
        raise ConfigurationError(
            f"count_window = {tuple(count_window)} is empty: its low count exceeds its high")

    def error_at(power, seed):
        counts = count_distribution(frame, power, cfg, n_frames=n_frames,
                                    rng_seed=seed, channel=channel)
        bad = sum(v for c, v in counts.items() if not lo_count <= c <= hi_count)
        return bad / n_frames

    return _first_power_below(error_at, target_error, rng_seed, power_lo_dbm,
                              power_hi_dbm, step_db, "CCA identification error")


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
                     reference_cof_hz: float = 159e3,
                     target_p10: float = 1e-3):
    """Decay-delay statistics across LPF cut-off settings at one received power.

    The detection threshold is calibrated once, at reference_cof_hz, and that
    comparator setting is held while the filter is swapped, isolating the
    filter's effect on the decay.
    """
    ss = seed_sequence(rng_seed)
    cal_seed, *trial_seeds = ss.spawn(len(cofs_hz) + 1)
    ref_cfg = replace(cfg, cof_hz=reference_cof_hz, threshold_v=None)
    threshold = calibrate_threshold(ref_cfg, channel, target_p10=target_p10,
                                    rng_seed=cal_seed)
    rows = []
    for cof, seed in zip(cofs_hz, trial_seeds):
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

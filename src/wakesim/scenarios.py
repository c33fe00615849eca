"""Scenario runners: each writes plot-ready CSV files plus a text summary.

Output is deterministic for a given config and seed: rows are emitted in a
fixed order and floats are formatted with a fixed precision.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List

import numpy as np

from .cc2420 import count_distribution, modal_count
from .channel import add_noise
from .codec import (WakeupId, build_alphabet, decode_id, encode_id,
                    wakeup_success_probability)
from .config import ExperimentConfig, load_config
from .framing import extract_runs
from .harness import (calibrate_threshold, edge_delay_table, estimate_p01,
                      frame_error_sweep, measure_p10, required_power_for_p01,
                      wilson_interval)
from .montecarlo import frame_error_trials
from .phy import FrameSpec, build_tx_schedule, synthesize_envelope
from .receiver import receive
from .seeding import seed_sequence


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".10g")
    return str(value)


def _write_csv(path: Path, header: List[str], rows) -> Path:
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    return path


@dataclass
class ScenarioResult:
    scenario: str
    csv_paths: List[Path]
    summary_path: Path
    summary: str


def _prepare_outdir(cfg: ExperimentConfig) -> Path:
    out = Path(cfg.output_dir)
    parent = out.parent
    if not parent.exists():
        raise IOError(f"output directory parent {parent} does not exist")
    out.mkdir(exist_ok=True)
    return out


def _calibrated(cfg: ExperimentConfig, cof_hz: float, seed):
    rx = replace(cfg.receiver, cof_hz=cof_hz, threshold_v=None)
    threshold = calibrate_threshold(rx, cfg.channel, target_p10=cfg.target_p10,
                                    rng_seed=seed)
    return rx.with_threshold(threshold)


def _run_calibrate(cfg: ExperimentConfig, out: Path) -> ScenarioResult:
    ss = seed_sequence(cfg.rng_seed)
    rows = []
    lines = ["scenario: calibrate"]
    for cof, (s_cal, s_meas) in zip(cfg.cofs_hz,
                                    (s.spawn(2) for s in ss.spawn(len(cfg.cofs_hz)))):
        rx = replace(cfg.receiver, cof_hz=cof, threshold_v=None)
        threshold = calibrate_threshold(rx, cfg.channel, target_p10=cfg.target_p10,
                                        rng_seed=s_cal, n_decisions=cfg.n_trials)
        stats = measure_p10(rx.with_threshold(threshold), cfg.channel,
                            rng_seed=s_meas, n_decisions=cfg.n_trials)
        rows.append((cof, threshold, stats.p10, stats.p10_ci[0], stats.p10_ci[1]))
        lines.append(f"cof_hz={cof:g} threshold_v={threshold:.8g} "
                     f"p10={stats.p10:.3e}")
    path = _write_csv(out / "calibrate.csv",
                      ["cof_hz", "threshold_v", "p10", "p10_ci_lo", "p10_ci_hi"],
                      rows)
    return ScenarioResult("calibrate", [path], out / "summary.txt", "\n".join(lines))


def _run_cof_sweep(cfg: ExperimentConfig, out: Path) -> ScenarioResult:
    ss = seed_sequence(cfg.rng_seed)
    curve_rows = []
    req_rows = []
    required: Dict[float, float] = {}
    lines = ["scenario: cof_sweep"]
    seeds = ss.spawn(len(cfg.cofs_hz))
    for cof, seed in zip(cfg.cofs_hz, seeds):
        s_cal, s_curve, s_req = seed.spawn(3)
        rx = _calibrated(cfg, cof, s_cal)
        point_seeds = s_curve.spawn(len(cfg.rx_powers_dbm))
        for power, s_point in zip(cfg.rx_powers_dbm, point_seeds):
            stats = estimate_p01(rx, cfg.channel, power, rng_seed=s_point,
                                 n_bits=cfg.n_trials)
            curve_rows.append((cof, power, stats.p01, stats.p01_ci[0], stats.p01_ci[1]))
        required[cof] = required_power_for_p01(
            rx, cfg.channel, target_p01=cfg.target_p01, rng_seed=s_req,
            n_bits_coarse=max(5_000, cfg.n_trials // 5),
            n_bits_fine=max(10_000, 2 * cfg.n_trials))
    bypass_req = required.get(0.0)
    for cof in cfg.cofs_hz:
        gain = bypass_req - required[cof] if bypass_req is not None else float("nan")
        req_rows.append((cof, required[cof], gain))
        lines.append(f"cof_hz={cof:g} required_power_dbm={required[cof]:.2f} "
                     f"gain_vs_bypass_db={gain:.2f}")
    p1 = _write_csv(out / "cof_sweep.csv",
                    ["cof_hz", "rx_power_dbm", "p01", "p01_ci_lo", "p01_ci_hi"],
                    curve_rows)
    p2 = _write_csv(out / "cof_required_power.csv",
                    ["cof_hz", "required_power_dbm", "gain_vs_bypass_db"],
                    req_rows)
    return ScenarioResult("cof_sweep", [p1, p2], out / "summary.txt", "\n".join(lines))


def _run_rx_power_sweep(cfg: ExperimentConfig, out: Path) -> ScenarioResult:
    ss = seed_sequence(cfg.rng_seed)
    s_cal, s_sweep = ss.spawn(2)
    rx = _calibrated(cfg, cfg.receiver.cof_hz, s_cal)
    results = frame_error_sweep(cfg.lengths_us, cfg.rx_powers_dbm, rx,
                                cfg.channel, cfg.alphabet,
                                n_frames=cfg.n_trials, rng_seed=s_sweep,
                                cw=cfg.cw)
    rows = []
    lines = ["scenario: rx_power_sweep",
             f"cof_hz={cfg.receiver.cof_hz:g} threshold_v={rx.threshold_v:.8g}"]
    for length in cfg.lengths_us:
        for power in cfg.rx_powers_dbm:
            rate, lo, hi = results[(float(length), float(power))].frame_error_rate[float(length)]
            rows.append((length, power, rate, lo, hi))
            lines.append(f"length_us={length:g} rx_power_dbm={power:g} "
                         f"frame_error_rate={rate:.4g}")
    path = _write_csv(out / "frame_error.csv",
                      ["length_us", "rx_power_dbm", "frame_error_rate",
                       "ci_lo", "ci_hi"], rows)
    return ScenarioResult("rx_power_sweep", [path], out / "summary.txt",
                          "\n".join(lines))


def _run_edge_delay_table(cfg: ExperimentConfig, out: Path) -> ScenarioResult:
    rows_out = []
    lines = ["scenario: edge_delay_table", f"rx_power_dbm={cfg.edge_rx_power_dbm:g}"]
    rows = edge_delay_table(cfg.edge_cofs_hz, cfg.receiver, cfg.channel,
                            rx_power_dbm=cfg.edge_rx_power_dbm,
                            n_trials=cfg.n_trials, rng_seed=cfg.rng_seed,
                            reference_cof_hz=cfg.edge_reference_cof_hz,
                            target_p10=cfg.target_p10)
    for r in rows:
        rows_out.append((r.cof_hz, r.threshold_v, r.d_down_min_us, r.d_down_max_us,
                         r.d_down_mean_us, r.d_up_mean_us, r.difs_separable))
        lines.append(f"cof_hz={r.cof_hz:g} d_down_mean_us={r.d_down_mean_us:.2f} "
                     f"difs_separable={r.difs_separable}")
    path = _write_csv(out / "edge_delay.csv",
                      ["cof_hz", "threshold_v", "d_down_min_us", "d_down_max_us",
                       "d_down_mean_us", "d_up_mean_us", "difs_separable"],
                      rows_out)
    return ScenarioResult("edge_delay_table", [path], out / "summary.txt",
                          "\n".join(lines))


def _run_cc2420_histogram(cfg: ExperimentConfig, out: Path) -> ScenarioResult:
    from .phy import payload_for_duration
    frame = FrameSpec(payload_bytes=payload_for_duration(cfg.cc2420_length_us))
    ss = seed_sequence(cfg.rng_seed)
    seeds = ss.spawn(len(cfg.cc2420_rx_powers_dbm))
    rows = []
    lines = ["scenario: cc2420_histogram",
             f"length_us={cfg.cc2420_length_us:g}"]
    for power, seed in zip(cfg.cc2420_rx_powers_dbm, seeds):
        counts = count_distribution(frame, power, cfg.cc2420,
                                    n_frames=cfg.n_trials, rng_seed=seed,
                                    channel=cfg.channel)
        n = sum(counts.values())
        for count in sorted(counts):
            rows.append((power, count, counts[count] / n))
        lines.append(f"rx_power_dbm={power:g} modal_count={modal_count(counts)}")
    path = _write_csv(out / "cc2420_histogram.csv",
                      ["rx_power_dbm", "cca_count", "probability"], rows)
    return ScenarioResult("cc2420_histogram", [path], out / "summary.txt",
                          "\n".join(lines))


def _run_wakeup_end_to_end(cfg: ExperimentConfig, out: Path) -> ScenarioResult:
    alphabet = build_alphabet(cfg.wakeup_alphabet_size)
    ss = seed_sequence(cfg.rng_seed)
    s_cal, s_psym, s_trials = ss.spawn(3)
    rx = _calibrated(cfg, cfg.receiver.cof_hz, s_cal)
    # independent per-symbol error estimates for the analytic prediction
    psym = {}
    psym_seeds = s_psym.spawn(len(alphabet.symbols))
    for sym, seed in zip(alphabet.symbols, psym_seeds):
        [(k, n)] = frame_error_trials([sym], cfg.wakeup_rx_power_dbm, rx,
                                      cfg.channel, alphabet,
                                      n_frames=max(1000, cfg.n_trials),
                                      rng_seed=seed, cw=cfg.cw).values()
        psym[sym] = k / n
    trial_seeds = s_trials.spawn(cfg.n_trials)
    successes = 0
    predicted_sum = 0.0
    rows = []
    for i, seed in enumerate(trial_seeds):
        s_id, s_noise, s_rx, s_sched, s_phase = seed.spawn(5)
        rng = np.random.default_rng(s_id)
        wid = WakeupId(value=int(rng.integers(0, 1 << cfg.wakeup_id_width)),
                       width=cfg.wakeup_id_width)
        frames = encode_id(wid, alphabet)
        schedule = build_tx_schedule(frames, cw=cfg.cw, rng_seed=s_sched)
        trace = synthesize_envelope(schedule, cfg.wakeup_rx_power_dbm,
                                    internal_rate_hz=cfg.channel.bandwidth_hz,
                                    lead_us=200.0, tail_us=300.0)
        trace = add_noise(trace, cfg.channel, rng_seed=s_noise)
        phase = float(np.random.default_rng(s_phase).uniform(0, rx.d_sample_us))
        bits = receive(trace, rx, phase_offset_us=phase, rng_seed=s_rx)
        decoded = decode_id(extract_runs(bits), alphabet,
                            expected_width=cfg.wakeup_id_width)
        ok = decoded == wid
        successes += bool(ok)
        predicted_sum += wakeup_success_probability(
            [psym[f.duration_us] for f in frames])
        if isinstance(decoded, WakeupId):
            decoded_value = decoded.value
            outcome = "ok" if ok else "mismatch"
        else:
            decoded_value = -1
            outcome = decoded.reason.value
        rows.append((i, wid.value, decoded_value, outcome, ok))
    n = cfg.n_trials
    rate = successes / n
    lo, hi = wilson_interval(successes, n)
    predicted = predicted_sum / n
    lines = ["scenario: wakeup_end_to_end",
             f"rx_power_dbm={cfg.wakeup_rx_power_dbm:g} trials={n}",
             f"success_rate={rate:.4f} ci=[{lo:.4f},{hi:.4f}]",
             f"predicted_success_rate={predicted:.4f}"]
    path = _write_csv(out / "wakeup.csv",
                      ["trial", "id_value", "decoded_value", "outcome", "success"],
                      rows)
    return ScenarioResult("wakeup_end_to_end", [path], out / "summary.txt",
                          "\n".join(lines))


_RUNNERS = {
    "calibrate": _run_calibrate,
    "cof_sweep": _run_cof_sweep,
    "rx_power_sweep": _run_rx_power_sweep,
    "edge_delay_table": _run_edge_delay_table,
    "cc2420_histogram": _run_cc2420_histogram,
    "wakeup_end_to_end": _run_wakeup_end_to_end,
}


def run_scenario(config) -> ScenarioResult:
    """Run one scenario from an ExperimentConfig or a config file path."""
    if not isinstance(config, ExperimentConfig):
        config = load_config(config)
    out = _prepare_outdir(config)
    result = _RUNNERS[config.scenario](config, out)
    with open(result.summary_path, "w", newline="\n") as fh:
        fh.write(result.summary + "\n")
    return result

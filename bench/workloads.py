"""The four benchmark workloads and the checks on their outputs.

Each workload is a closed loop with one client: it runs passes back to back,
and every pass issues its operations one after the other, each waiting for
the previous one. An operation is one top-level public call, or one wake-up
attempt on wakeup_attempts. The program sees only the inputs generated here
from the pass seed. Every check holds for any correct implementation, not
only at one seed: the statistical ones sit at least 4.5 standard deviations
inside their limits at these sizes.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, replace
from time import perf_counter
from typing import Optional

import numpy as np

from wakesim import cc2420, channel, codec, framing, harness, phy, receiver

from samples import (cc2420_samples, frame_trial_samples,
                     stream_samples, trace_samples)

# Comparator threshold for frame_sweep and wakeup_attempts, pinned so that
# calibration cost stays in bit_stats. It is the output of
#   harness.calibrate_threshold(ReceiverConfig(cof_hz=159e3), ChannelConfig(),
#                               target_p10=1e-3, rng_seed=20241017,
#                               n_decisions=1_000_000)
PINNED_THRESHOLD = {
    "threshold_v": 0.31099969789557436,
    "cof_hz": 159e3,
    "target_p10": 1e-3,
    "rng_seed": 20241017,
    "n_decisions": 1_000_000,
}

# z of the Wilson interval used by the oracle check: a correct
# implementation falls outside it with probability below 1e-6.
ORACLE_Z = 5.0

MAX_ERRORS_KEPT = 20


def wilson_interval(k: int, n: int, z: float):
    """Wilson score interval, computed independently of the program."""
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return center - half, center + half


class Ops:
    """Log of the operations of a run: latencies, failures, check verdicts.

    An operation fails if it raises or if a check on its output fails.
    """

    def __init__(self, check_names):
        self.latencies = []
        self.names = []
        self.failed = 0
        self.outside = 0  # failures raised between operations
        self.errors = []
        self.checks = {name: {"ran": 0, "failed": 0} for name in check_names}
        self._ok = True
        self._raised = None

    @property
    def attempted(self) -> int:
        return len(self.latencies) + self.outside

    def _log(self, exc):
        if len(self.errors) < MAX_ERRORS_KEPT:
            self.errors.append(f"{type(exc).__name__}: {exc}")

    @contextmanager
    def op(self, name: str):
        self._ok = True
        t0 = perf_counter()
        try:
            yield self
        except Exception as exc:
            self._ok = False
            self._raised = exc
            self._log(exc)
            raise
        finally:
            self.latencies.append(perf_counter() - t0)
            self.names.append(name)
            self.failed += not self._ok

    def fail_outside(self, exc):
        """Count an exception that ended a pass, unless an operation did."""
        if exc is not self._raised:
            self.outside += 1
            self.failed += 1
            self._log(exc)

    def check(self, name: str, ok) -> bool:
        ok = bool(ok)
        entry = self.checks[name]
        entry["ran"] += 1
        if not ok:
            entry["failed"] += 1
            self._ok = False
        return ok


@dataclass
class PassResult:
    """What one pass simulated, as computed from its inputs."""

    samples: int
    frames_sent: int = 0
    frames_matched: Optional[int] = None  # set where the kernel scores frames


class BitStats:
    """Calibration, false-alarm and miss estimation on long noise streams.

    Nearly all time goes to noise and Rice draws, the detector, the video
    noise AR(1) and the LPF, streamed in 2^22-sample chunks (calibration
    and false-alarm calls span two chunks). It never touches framing, codec
    or cc2420. COF 0 bypasses the LPF, so an LPF-only change moves two of
    the three sub-runs. The sizes give every call about the same latency,
    so that the latency percentiles do not sit between two clusters.
    """

    name = "bit_stats"
    checks = ("p10_in_band", "p01_nonincreasing", "square_law_oracle")

    def __init__(self, tiny: bool = False):
        self.cofs_hz = (0.0, 159e3, 48.2e3)
        # A 1e-2 target keeps 220 expected false alarms per 22k decisions,
        # so the [0.5, 2] x target band is 7 standard deviations wide.
        self.target_p10 = 1e-2
        self.n_decisions = 2_000 if tiny else 22_000
        self.n_bits = 2_000 if tiny else 15_000
        self.p01_powers_dbm = (-94.0, -90.0)
        # Oracle: square law, no video noise, COF 0; T = N ln(1/p).
        self.oracle_p10 = 1e-2
        self.oracle_decisions = 5_000 if tiny else 100_000
        self.channel = channel.ChannelConfig()
        self.base = receiver.ReceiverConfig()
        self.oracle_cfg = receiver.ReceiverConfig(
            detector_model="square_law_linear", cof_hz=0.0,
            video_noise_sigma_v=0.0)
        noise_v = (self.oracle_cfg.square_law_k
                   * 10.0 ** (self.oracle_cfg.lna_gain_db / 10.0)
                   * self.channel.noise_floor_mw)
        self.oracle_threshold_v = noise_v * math.log(1.0 / self.oracle_p10)
        self.oracle_noise_v = noise_v

    def params(self) -> dict:
        return {
            "cofs_hz": list(self.cofs_hz), "target_p10": self.target_p10,
            "n_decisions": self.n_decisions, "n_bits": self.n_bits,
            "p01_powers_dbm": list(self.p01_powers_dbm),
            "oracle": {"detector_model": "square_law_linear", "cof_hz": 0.0,
                       "video_noise_sigma_v": 0.0, "p10": self.oracle_p10,
                       "threshold_v": self.oracle_threshold_v,
                       "noise_v": self.oracle_noise_v,
                       "n_decisions": self.oracle_decisions, "z": ORACLE_Z},
        }

    def warm_up(self):
        cfg = replace(self.base, cof_hz=159e3, threshold_v=None)
        harness.calibrate_threshold(cfg, self.channel, target_p10=0.1,
                                    rng_seed=0, n_decisions=200)

    def run_pass(self, ss: np.random.SeedSequence, ops: Ops, tracer=None) -> PassResult:
        seeds = iter(ss.spawn(4 * len(self.cofs_hz) + 1))
        samples = 0
        dec_samples = stream_samples(self.n_decisions)
        bit_samples = stream_samples(self.n_bits)
        for cof in self.cofs_hz:
            cfg = replace(self.base, cof_hz=cof, threshold_v=None)
            with ops.op("calibrate_threshold"):
                threshold = harness.calibrate_threshold(
                    cfg, self.channel, target_p10=self.target_p10,
                    rng_seed=next(seeds), n_decisions=self.n_decisions)
            cfg = cfg.with_threshold(threshold)
            with ops.op("measure_p10"):
                stats = harness.measure_p10(cfg, self.channel, rng_seed=next(seeds),
                                            n_decisions=self.n_decisions)
                ops.check("p10_in_band", 0.5 * self.target_p10 <= stats.p10
                          <= 2.0 * self.target_p10)
            p01 = []
            for power in self.p01_powers_dbm:
                with ops.op("estimate_p01"):
                    p01.append(harness.estimate_p01(
                        cfg, self.channel, power, rng_seed=next(seeds),
                        n_bits=self.n_bits).p01)
                    if len(p01) > 1:
                        ops.check("p01_nonincreasing", p01[-1] <= p01[-2])
            samples += 2 * dec_samples + len(self.p01_powers_dbm) * bit_samples
        cfg = self.oracle_cfg.with_threshold(self.oracle_threshold_v)
        n = self.oracle_decisions
        with ops.op("measure_p10_oracle"):
            stats = harness.measure_p10(cfg, self.channel, rng_seed=next(seeds),
                                        n_decisions=n)
            lo, hi = wilson_interval(int(round(stats.p10 * n)), n, ORACLE_Z)
            expected = math.exp(-self.oracle_threshold_v / self.oracle_noise_v)
            ops.check("square_law_oracle", lo <= expected <= hi)
        samples += stream_samples(n)
        return PassResult(samples=samples)


class FrameSweep:
    """Frame-error sweep on ~100-frame traces with common random numbers.

    The same receiver as bit_stats, used on short traces; phy schedules and
    framing scoring run here, and their cost grows with the number of
    spurious runs at low power. The threshold is pinned.
    """

    name = "frame_sweep"
    checks = ("rates_in_unit_interval", "no_frames_lost", "rate_falls_with_power")

    def __init__(self, tiny: bool = False):
        self.lengths_us = (720.0, 800.0, 1000.0)
        self.powers_dbm = (-94.0, -92.0, -90.0)
        self.n_frames = 100
        self.frames_per_trial = 100
        self.channel = channel.ChannelConfig()
        self.cfg = receiver.ReceiverConfig(
            cof_hz=PINNED_THRESHOLD["cof_hz"],
            threshold_v=PINNED_THRESHOLD["threshold_v"])

    def params(self) -> dict:
        return {"lengths_us": list(self.lengths_us),
                "powers_dbm": list(self.powers_dbm), "n_frames": self.n_frames,
                "frames_per_trial": self.frames_per_trial, "cw": 1,
                "pinned_threshold": PINNED_THRESHOLD}

    def warm_up(self):
        harness.frame_error_sweep(self.lengths_us, self.powers_dbm[-1:], self.cfg,
                                  self.channel, n_frames=2, rng_seed=0)

    def run_pass(self, ss: np.random.SeedSequence, ops: Ops, tracer=None) -> PassResult:
        n = self.n_frames
        with ops.op("frame_error_sweep"):
            res = harness.frame_error_sweep(
                self.lengths_us, self.powers_dbm, self.cfg, self.channel,
                n_frames=n, rng_seed=ss, frames_per_trial=self.frames_per_trial,
                cw=1)
            rates = {}
            for length in self.lengths_us:
                for power in self.powers_dbm:
                    stats = res.get((length, power))
                    rate = None if stats is None else \
                        stats.frame_error_rate.get(length, (None,))[0]
                    rates[(length, power)] = rate
            complete = all(r is not None for r in rates.values())
            ops.check("no_frames_lost", complete and all(
                abs(r * n - round(r * n)) < 1e-6 for r in rates.values()))
            ops.check("rates_in_unit_interval",
                      complete and all(0.0 <= r <= 1.0 for r in rates.values()))
            ops.check("rate_falls_with_power", complete and all(
                rates[(length, self.powers_dbm[-1])] < rates[(length, self.powers_dbm[0])]
                for length in self.lengths_us))
        matched = 0
        if complete:
            matched = sum(int(round((1.0 - r) * n)) for r in rates.values())
        n_sent = n * len(self.lengths_us) * len(self.powers_dbm)
        samples = len(self.powers_dbm) * frame_trial_samples(
            self.lengths_us, n, self.frames_per_trial)
        return PassResult(samples=samples, frames_sent=n_sent, frames_matched=matched)


class Cc2420Hist:
    """CCA count histograms of the CC2420 reference model.

    The control workload: it uses only the cc2420 layer (plus one envelope
    and one link-budget call per histogram), so every receiver or
    montecarlo change should predict no change here.
    """

    name = "cc2420_hist"
    checks = ("counts_sum_to_n_frames", "mode_at_high_power", "zero_below_threshold")

    # The mode at -61.56 dBm splits about 60/40 between 32 and 31 counts;
    # 600 frames put the 33 +- 1 check 4.9 standard deviations from failing.
    HIGH_POWER_DBM = -61.56
    LOW_POWER_DBM = -77.0

    def __init__(self, tiny: bool = False):
        small = 20 if tiny else 100
        high = 100 if tiny else 600
        # (frame duration us, power dBm, frames): range_comparison.ini powers
        # for 1000 us frames, plus 800 us frames at -73.56 dBm.
        self.points = tuple(
            [(1000.0, p, high if p == self.HIGH_POWER_DBM else small)
             for p in (-61.56, -67.56, -71.56, -73.56, -77.0)]
            + [(800.0, -73.56, small)])
        self.chip = cc2420.Cc2420Config()
        self.channel = channel.ChannelConfig()

    def params(self) -> dict:
        return {"points": [{"length_us": d, "rx_power_dbm": p, "n_frames": n}
                           for d, p, n in self.points]}

    def warm_up(self):
        cc2420.count_distribution(phy.FrameSpec(phy.payload_for_duration(720.0)),
                                  -70.0, self.chip, n_frames=2, rng_seed=0,
                                  channel=self.channel)

    def run_pass(self, ss: np.random.SeedSequence, ops: Ops, tracer=None) -> PassResult:
        samples = 0
        for (duration, power, n), seed in zip(self.points, ss.spawn(len(self.points))):
            frame = phy.FrameSpec(phy.payload_for_duration(duration))
            with ops.op(f"count_distribution_{n}"):
                counts = cc2420.count_distribution(frame, power, self.chip,
                                                   n_frames=n, rng_seed=seed,
                                                   channel=self.channel)
                total = sum(counts.values())
                ops.check("counts_sum_to_n_frames", total == n)
                if power == self.HIGH_POWER_DBM:
                    mode = max(sorted(counts.items()), key=lambda kv: kv[1])[0]
                    ops.check("mode_at_high_power", abs(mode - 33) <= 1)
                if power == self.LOW_POWER_DBM:
                    ops.check("zero_below_threshold", counts.get(0, 0) / total > 0.95)
            samples += cc2420_samples(duration, n)
        return PassResult(samples=samples)


class WakeupAttempts:
    """The per-trial body of the wake-up scenario, one attempt at a time.

    encode_id -> build_tx_schedule -> synthesize_envelope -> add_noise ->
    receive -> extract_runs / match_symbol -> decode_id, on ~156k-sample
    traces, near sensitivity so that decode failures (simulated outcomes,
    not failed operations) exercise the failure paths. Every tenth attempt
    is a noiseless control that must round-trip.
    """

    name = "wakeup_attempts"
    checks = ("control_round_trip", "decode_result_type")

    LEAD_US = 200.0
    TAIL_US = 300.0

    def __init__(self, tiny: bool = False):
        # 200 attempts put 10 beyond each pass's p95.
        self.attempts_per_pass = 20 if tiny else 200
        self.control_every = 10
        self.rx_power_dbm = -90.0
        self.id_width = 16
        self.alphabet = codec.build_alphabet(4)
        self.channel = channel.ChannelConfig()
        self.quiet_channel = channel.ChannelConfig(noise_figure_db=None)
        self.cfg = receiver.ReceiverConfig(
            cof_hz=PINNED_THRESHOLD["cof_hz"],
            threshold_v=PINNED_THRESHOLD["threshold_v"])
        self.quiet_cfg = replace(self.cfg, video_noise_sigma_v=0.0)
        self.bits_per_symbol = int(math.floor(math.log2(len(self.alphabet.symbols))))

    def params(self) -> dict:
        return {"attempts_per_pass": self.attempts_per_pass,
                "control_every": self.control_every,
                "rx_power_dbm": self.rx_power_dbm, "id_width": self.id_width,
                "alphabet_us": list(self.alphabet.symbols), "cw": 1,
                "lead_us": self.LEAD_US, "tail_us": self.TAIL_US,
                "pinned_threshold": PINNED_THRESHOLD}

    def durations_us(self, value: int):
        """Frame durations that carry the ID, worked out without the codec."""
        bps = self.bits_per_symbol
        n_frames = math.ceil(self.id_width / bps)
        bits = [(value >> (self.id_width - 1 - i)) & 1 for i in range(self.id_width)]
        bits += [0] * (n_frames * bps - self.id_width)
        out = []
        for k in range(n_frames):
            index = 0
            for b in bits[k * bps:(k + 1) * bps]:
                index = (index << 1) | b
            out.append(self.alphabet.symbols[index])
        return out

    def warm_up(self):
        self._attempt(np.random.SeedSequence(0), control=True)

    def _attempt(self, seed, control: bool):
        s_id, s_noise, s_rx, s_sched, s_phase = seed.spawn(5)
        value = int(np.random.default_rng(s_id).integers(0, 1 << self.id_width))
        wid = codec.WakeupId(value=value, width=self.id_width)
        ch, cfg = (self.quiet_channel, self.quiet_cfg) if control else \
            (self.channel, self.cfg)
        frames = codec.encode_id(wid, self.alphabet)
        schedule = phy.build_tx_schedule(frames, cw=1, rng_seed=s_sched)
        trace = phy.synthesize_envelope(schedule, self.rx_power_dbm,
                                        rng_seed=s_rx, lead_us=self.LEAD_US,
                                        tail_us=self.TAIL_US)
        trace = channel.add_noise(trace, ch, rng_seed=s_noise)
        phase = float(np.random.default_rng(s_phase).uniform(0, cfg.d_sample_us))
        bits = receiver.receive(trace, cfg, phase_offset_us=phase, rng_seed=s_rx)
        runs = [framing.match_symbol(r, self.alphabet)
                for r in framing.extract_runs(bits)]
        decoded = codec.decode_id(runs, self.alphabet, expected_width=self.id_width)
        return value, decoded

    def run_pass(self, ss: np.random.SeedSequence, ops: Ops, tracer=None) -> PassResult:
        samples = 0
        frames = 0
        for i, seed in enumerate(ss.spawn(self.attempts_per_pass)):
            control = i % self.control_every == 0
            if tracer is not None:
                tracer.start_attempt()
            with ops.op("control_attempt" if control else "attempt"):
                value, decoded = self._attempt(seed, control)
                ops.check("decode_result_type",
                          isinstance(decoded, (codec.WakeupId, codec.DecodeFailure)))
                if control:
                    ops.check("control_round_trip",
                              isinstance(decoded, codec.WakeupId)
                              and decoded.value == value)
            durations = self.durations_us(value)
            frames += len(durations)
            samples += trace_samples(durations, self.LEAD_US, self.TAIL_US)
        if tracer is not None:
            tracer.attempt = None
        return PassResult(samples=samples, frames_sent=frames)


WORKLOADS = {w.name: w for w in (BitStats, FrameSweep, Cc2420Hist, WakeupAttempts)}

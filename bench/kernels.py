"""Stage-kernel pass: ns per internal-rate sample of the public stage functions.

Each kernel runs on one fixed 2^22-sample input: a train of 1000 us frames at
-90 dBm (near sensitivity), with receiver noise. Stages take the previous
stage's output, so run extraction sees a realistic mix of frames and spurious
runs. Times are the median of a few repetitions, divided by the 2^22 samples
of the trace, including for the stages that only see the bit stream sliced
from it. The exponential and Rice draws in montecarlo, comb decimation and
the CC2420 tick count are private functions and are not timed on their own.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter_ns

import numpy as np

from wakesim import cc2420, channel, framing, montecarlo, phy, receiver

N_SAMPLES = 1 << 22
RX_POWER_DBM = -90.0

KERNELS = (
    "channel.add_noise",
    "receiver.detector_response",
    "receiver.video_noise_ar1",
    "receiver.rc_lpf_array",
    "montecarlo.ReceiverStream.push",
    "receiver.sample_and_threshold",
    "framing.extract_runs",
    "cc2420.rssi_dbm",
    "cc2420.cca_output_count",
)


def metric_name(kernel: str) -> str:
    return f"kernel.{kernel}.ns_per_sample"


def _envelope(n: int, rate_hz: float) -> phy.EnvelopeTrace:
    frame = phy.FrameSpec(phy.payload_for_duration(1000.0))
    n_frames = int(n / rate_hz * 1e6 // (frame.duration_us + phy.DIFS_US)) + 1
    schedule = phy.build_tx_schedule([frame] * n_frames, cw=1, rng_seed=0)
    env = phy.synthesize_envelope(schedule, RX_POWER_DBM, internal_rate_hz=rate_hz,
                                  lead_us=100.0)
    return phy.EnvelopeTrace(samples=env.samples[:n], sample_rate_hz=rate_hz)


def kernel_pass(threshold_v: float, cof_hz: float, seed: int,
                n: int = N_SAMPLES, reps: int = 3) -> dict:
    """Median ns per sample of each stage kernel over reps repetitions."""
    rate = phy.DEFAULT_INTERNAL_RATE_HZ
    chan = channel.ChannelConfig()
    cfg = receiver.ReceiverConfig(cof_hz=cof_hz, threshold_v=threshold_v)
    chip = cc2420.Cc2420Config()
    alpha = receiver.lpf_alpha(cof_hz, rate)
    env = _envelope(n, rate)
    seeds = np.random.SeedSequence(seed).spawn(reps)
    times = {k: [] for k in KERNELS}

    def timed(kernel, fn, *args, **kwargs):
        t0 = perf_counter_ns()
        out = fn(*args, **kwargs)
        times[kernel].append((perf_counter_ns() - t0) / n)
        return out

    for ss in seeds:
        s_noise, s_video, s_stream, s_cca = ss.spawn(4)
        noisy = timed("channel.add_noise", channel.add_noise, env, chan, rng_seed=s_noise)
        volts = timed("receiver.detector_response", receiver.detector_response, noisy, cfg)
        video, _ = timed("receiver.video_noise_ar1", receiver.video_noise_ar1, n,
                         cfg.video_noise_sigma_v, cfg.video_noise_tau_us, rate,
                         np.random.default_rng(s_video), dtype=np.float32)
        v32 = volts.samples.astype(np.float32) + video
        filtered, _ = timed("receiver.rc_lpf_array", receiver.rc_lpf_array, v32, alpha)
        stream = montecarlo.ReceiverStream(cfg, rate, np.random.default_rng(s_stream))
        timed("montecarlo.ReceiverStream.push", stream.push,
              noisy.samples.astype(np.float32))
        trace = receiver.VoltageTrace(samples=filtered, sample_rate_hz=rate)
        bits = timed("receiver.sample_and_threshold", receiver.sample_and_threshold,
                     trace, cfg, phase_offset_us=0.0)
        timed("framing.extract_runs", framing.extract_runs, bits)
        timed("cc2420.rssi_dbm", cc2420.rssi_dbm, noisy.samples, chip, rate)
        timed("cc2420.cca_output_count", cc2420.cca_output_count, noisy, chip,
              rng_seed=s_cca)
        del noisy, volts, video, v32, filtered, trace, bits
    return {metric_name(k): median(v) for k, v in times.items()}

"""Cross-validation of the streaming kernels against the whole-trace chain."""

import sys
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.linalg import solve_discrete_lyapunov
from scipy.signal import lfilter
from scipy.stats import ks_2samp, ncx2, norm

import wakesim as ws
from wakesim import montecarlo
from wakesim.channel import rice_combine, rice_noise, rice_power
from wakesim.montecarlo import (ReceiverStream, _score_trial, _TrialDecisions,
                                frame_error_trials, noise_decision_voltages,
                                signal_decision_voltages)
from wakesim.framing import _run_bounds
from wakesim.phy import _frame_spans
from wakesim.receiver import (_comb_noise, _comb_offset, _comb_step,
                              _samples_per_bit, filtered_voltage, lpf_alpha,
                              rc_lpf_array, video_noise_ar1)
from wakesim.seeding import seed_sequence
from wakesim.units import db_to_linear, dbm_to_mw


class TestChunkedFilterState:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=400), min_size=1,
                    max_size=6),
           st.floats(min_value=0.001, max_value=0.9))
    def test_chunked_equals_whole(self, chunk_sizes, alpha):
        rng = np.random.default_rng(hash(tuple(chunk_sizes)) % (1 << 32))
        n = sum(chunk_sizes)
        x = rng.normal(size=n)
        whole, _ = rc_lpf_array(x, alpha, zi=0.0)
        pieces = []
        state = 0.0
        pos = 0
        for size in chunk_sizes:
            y, state = rc_lpf_array(x[pos:pos + size], alpha, zi=state)
            pieces.append(y)
            pos += size
        np.testing.assert_allclose(np.concatenate(pieces), whole, atol=1e-10)

    def test_float32_chunks_carry_state_exactly(self):
        # the carried state is not rounded to float32 at the chunk joins
        x = np.random.default_rng(4).normal(size=1000).astype(np.float32)
        alpha = lpf_alpha(48.2e3, 20e6)
        whole, _ = rc_lpf_array(x, alpha)
        pieces, state, pos = [], 0.0, 0
        for size in (1, 250, 7, 342, 400):
            y, state = rc_lpf_array(x[pos:pos + size], alpha, zi=state)
            pieces.append(y)
            pos += size
        np.testing.assert_array_equal(np.concatenate(pieces), whole)

    def test_video_noise_continuation_is_stationary(self):
        rng = np.random.default_rng(3)
        sigma, tau, rate = 0.03, 30.0, 20e6
        state = None
        parts = []
        for _ in range(40):
            part, state = video_noise_ar1(100_000, sigma, tau, rate, rng,
                                          zi=state, dtype=np.float32)
            parts.append(part)
        nv = np.concatenate(parts)
        assert abs(nv.std() / sigma - 1.0) < 0.05
        assert abs(nv.mean()) < 0.01 * sigma * 20
        # no discontinuity artifacts at chunk joints
        joints = np.arange(1, 40) * 100_000
        jumps = np.abs(nv[joints] - nv[joints - 1])
        step_sigma = sigma * np.sqrt(2 * (1 - np.exp(-1e6 / (tau * rate))))
        assert jumps.max() < 6 * step_sigma


class TestVideoNoiseAr1:
    """The full-rate AR(1) reference against its closed form."""

    # one sample per 10 us decision, so that the pole stays well inside 1
    RATE_HZ = 1e5

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("tau_us", [10.0, 40.0])
    def test_variance_and_lag1(self, tau_us, dtype):
        # stationary from the first sample: variance sigma^2, pole
        # exp(-dt/tau) per sample
        sigma, n = 0.02, 200_000
        x, _ = video_noise_ar1(n, sigma, tau_us, self.RATE_HZ,
                               np.random.default_rng(35), dtype=dtype)
        assert x.dtype == dtype
        x = x.astype(float)
        var = sigma ** 2
        rho = np.exp(-1e6 / (tau_us * self.RATE_HZ))
        se_var = var * np.sqrt(2.0 * (1.0 + rho ** 2) / (1.0 - rho ** 2) / n)
        se_rho = np.sqrt((1.0 - rho ** 2) / n)
        assert abs(np.mean(x * x) - var) < 5.0 * se_var
        assert abs(np.corrcoef(x[1:], x[:-1])[0, 1] - rho) < 5.0 * se_rho

    def test_continuation_matches_one_draw(self):
        whole, end = video_noise_ar1(3000, 0.02, 30.0, 20e6,
                                     np.random.default_rng(36))
        rng = np.random.default_rng(36)
        first, state = video_noise_ar1(1000, 0.02, 30.0, 20e6, rng)
        second, state = video_noise_ar1(2000, 0.02, 30.0, 20e6, rng, zi=state)
        np.testing.assert_allclose(np.concatenate([first, second]), whole,
                                   rtol=1e-12, atol=0.0)
        assert state == end

    @pytest.mark.parametrize("n, sigma, zi, state", [
        (1000, 0.0, None, 0.0), (1000, 0.0, 0.4, 0.4), (0, 0.02, 0.4, 0.4)],
        ids=["zero-sigma", "zero-sigma-carried-state", "empty"])
    def test_silent_cases_draw_nothing(self, n, sigma, zi, state):
        rng = np.random.default_rng(37)
        x, out = video_noise_ar1(n, sigma, 30.0, 20e6, rng, zi=zi)
        assert x.shape == (n,) and np.all(x == 0.0)
        assert out == state
        assert rng.standard_normal() == np.random.default_rng(37).standard_normal()


class TestEngineMatchesWholeTrace:
    def test_noise_p10_agreement(self, channel):
        """Engine decisions and receive() see the same noise statistics."""
        cfg = ws.ReceiverConfig(cof_hz=159e3, video_noise_sigma_v=0.0)
        t = ws.calibrate_threshold(cfg, channel, rng_seed=5)
        cfg = cfg.with_threshold(t)
        # whole-trace route: 40k decisions
        idle = ws.EnvelopeTrace(samples=np.zeros(8_000_000), sample_rate_hz=20e6)
        trace = ws.add_noise(idle, channel, rng_seed=6)
        bits = ws.receive(trace, cfg)
        p_whole = bits.bits[200:].mean()
        # engine route at the same threshold
        dec = noise_decision_voltages(cfg, channel, 200_000, rng_seed=7)
        p_engine = np.mean(dec > t)
        lo, hi = ws.wilson_interval(int(bits.bits[200:].sum()),
                                    bits.bits.size - 200)
        assert lo * 0.3 <= p_engine <= hi * 3.0
        assert 2e-4 <= p_engine <= 5e-3 and 2e-4 <= p_whole <= 5e-3

    def test_signal_p01_agreement(self, channel):
        cfg = ws.ReceiverConfig(cof_hz=159e3, video_noise_sigma_v=0.0)
        t = ws.calibrate_threshold(cfg, channel, rng_seed=8)
        cfg = cfg.with_threshold(t)
        power = -93.0
        # whole-trace route: one long frame
        sched = ws.build_tx_schedule([ws.FrameSpec(payload_bytes=12436)], cw=1,
                                     rng_seed=0)  # 100 ms on
        trace = ws.synthesize_envelope(sched, power)
        trace = ws.add_noise(trace, channel, rng_seed=9)
        bits = ws.receive(trace, cfg)
        misses = bits.bits[100:9900] == 0
        p_whole = misses.mean()
        stats = ws.estimate_p01(cfg, channel, power, rng_seed=10, n_bits=200_000)
        assert stats.p01 == pytest.approx(p_whole, rel=0.5, abs=2e-3)


class TestRiceMissOracle:
    """Square law, COF 0, no video noise: each decision is one Rice power.

    With the threshold at input power t = 2N (T = k g 2N volts), the miss
    probability is p(0|1) = P(|a + n|^2 <= t) = ncx2.cdf(2t/N, 2, 2S/N)
    (Rice, BSTJ 1944), computed here from scipy, not from the receiver.
    """

    SNRS_DB = (0.0, 6.0, 10.0)

    @staticmethod
    def _cfg(channel):
        cfg = ws.ReceiverConfig(detector_model="square_law_linear", cof_hz=0.0,
                                video_noise_sigma_v=0.0)
        t = 2.0 * channel.noise_floor_mw
        return cfg.with_threshold(cfg.square_law_k * db_to_linear(cfg.lna_gain_db) * t)

    @staticmethod
    def _oracle(snr_db):
        return float(ncx2.cdf(4.0, 2, 2.0 * 10.0 ** (snr_db / 10.0)))

    @pytest.mark.parametrize("snr_db", SNRS_DB)
    def test_estimate_p01(self, channel, snr_db):
        n = 200_000
        stats = ws.estimate_p01(self._cfg(channel), channel,
                                channel.noise_floor_dbm + snr_db, rng_seed=3,
                                n_bits=n)
        lo, hi = ws.wilson_interval(int(round(stats.p01 * n)), n, z=5.0)
        assert lo <= self._oracle(snr_db) <= hi

    @pytest.mark.parametrize("snr_db", SNRS_DB)
    def test_add_noise_then_receive(self, channel, snr_db):
        # one frame, on over the whole trace: every decision is in-frame
        n_bits = 40_000
        s_mw = channel.noise_floor_mw * 10.0 ** (snr_db / 10.0)
        frame = ws.EnvelopeTrace(samples=np.full(n_bits * 200, s_mw),
                                 sample_rate_hz=channel.bandwidth_hz)
        noisy = ws.add_noise(frame, channel, rng_seed=int(snr_db) + 60)
        bits = ws.receive(noisy, self._cfg(channel)).bits
        assert bits.size == n_bits
        lo, hi = ws.wilson_interval(int(np.count_nonzero(bits == 0)), n_bits, z=5.0)
        assert lo <= self._oracle(snr_db) <= hi


def _full_rate_decisions(cfg, n, rng, power_chunk, settle=50):
    """COF 0 decisions drawn at 20 Msps, one decision every 200 samples.

    power_chunk(m) gives the next m full-rate samples of input power; a
    quiet ReceiverStream at the full rate, which draws nothing, reads them
    in chunks of whole 200-sample blocks (at most 2^22 samples), each a
    whole trace on the comb. The comb noise of the 20 Msps comb is then
    drawn once from rng and added, and the decisions are read after settle
    of them: the full-rate law that TestCofZeroLaw checks the decision-rate
    bit kernels against.
    """
    per_chunk = (1 << 22) // 200
    n_dec = n + settle
    quiet = ReceiverStream(replace(cfg, video_noise_sigma_v=0.0), 20e6, None)
    out = np.concatenate([quiet.push(power_chunk(200 * min(per_chunk, n_dec - k)))
                          for k in range(0, n_dec, per_chunk)])
    out += _comb_noise(cfg, 20e6, rng, 0, n_dec).astype(out.dtype)
    return out[settle:]


class TestCofZeroLaw:
    """COF 0: the bit kernels run at the decision rate (spb = 1).

    The noise samples are iid, the in-frame power is constant and the video
    noise at alpha = 1 is the AR(1) itself, so one sample per decision has
    the law of the full-rate path (_full_rate_decisions): the KS test
    compares the two, and the lag-1 test checks the video-noise pole against
    its closed form.
    """

    # decisions 80 us apart, so that the 30 us video noise leaves them
    # nearly independent (correlation e^-8/3 in the noise term), as a KS
    # test needs
    THIN = 8

    @pytest.mark.parametrize("signal", [False, True], ids=["noise", "signal"])
    def test_matches_full_rate_path_ks(self, channel, signal):
        cfg = ws.ReceiverConfig(cof_hz=0.0)
        n, noise = 100_000 * self.THIN, channel.noise_floor_mw
        rng = np.random.default_rng(31)
        if signal:
            got = signal_decision_voltages(cfg, channel, -90.0, n, rng_seed=32)
            amp = np.float32(np.sqrt(dbm_to_mw(-90.0)))
            ref = _full_rate_decisions(cfg, n, rng, lambda m: rice_power(
                rng, np.full(m, amp, dtype=np.float32), noise))
        else:
            got = noise_decision_voltages(cfg, channel, n, rng_seed=32)
            ref = _full_rate_decisions(cfg, n, rng, lambda m: (
                rng.standard_exponential(m, dtype=np.float32) * np.float32(noise)))
        assert got.dtype == ref.dtype == np.float32
        assert ks_2samp(got[::self.THIN], ref[::self.THIN]).pvalue > 1e-3

    def test_noise_lag1_autocovariance(self, channel):
        # decision k is D_k + x_k: D_k the detector output, iid, and x_k the
        # video noise, AR(1) with variance s2 and pole rho per decision
        cfg = ws.ReceiverConfig(cof_hz=0.0)
        n = 1_000_000
        d = noise_decision_voltages(cfg, channel, n, rng_seed=33).astype(float)
        d -= d.mean()
        s2 = cfg.video_noise_sigma_v ** 2
        rho = np.exp(-cfg.d_sample_us / cfg.video_noise_tau_us)
        v_det = np.var(d) - s2
        # variance of the sample lag-1 autocovariance: the D D, D x and x x
        # products are uncorrelated; x x by Bartlett's formula for a
        # Gaussian AR(1)
        r2 = rho * rho
        var_c1 = (v_det ** 2 + 2.0 * v_det * s2 * (1.0 + r2)
                  + s2 * s2 * ((1.0 + r2) / (1.0 - r2) + r2 + 2.0 * r2 / (1.0 - r2))
                  ) / n
        c1 = np.mean(d[1:] * d[:-1])
        assert abs(c1 - s2 * rho) < 5.0 * np.sqrt(var_c1)


class TestLogLawFalseAlarmOracle:
    """Log law, COF 0: p(1|0) from the exponential noise power.

    The detector output exceeds T > V_f (the floor voltage) exactly when the
    post-LNA power g E, E ~ Exp(N), exceeds P_T, T mapped back through the
    log law: p(1|0) = exp(-P_T / (g N)). With the video noise on, each
    decision adds a N(0, sigma_v^2) draw independent of E (at COF 0 the
    video noise itself), and p(1|0) is a 1-D integral over it; where the
    draw lifts the floor above T, every decision is a 1. A 2 us video-noise
    time constant keeps the decisions nearly independent (lag-1 correlation
    e^-5), as the Wilson interval needs.
    """

    @staticmethod
    def _oracle(cfg, channel, t):
        gn = db_to_linear(cfg.lna_gain_db) * channel.noise_floor_mw
        v_floor = cfg.log_intercept_v + cfg.log_slope_v_per_db * cfg.log_floor_dbm

        def exceed(v):  # P(detector output > v), for v >= V_f
            p_v = 10.0 ** ((v - cfg.log_intercept_v) / (10.0 * cfg.log_slope_v_per_db))
            return np.exp(-p_v / gn)

        sigma = cfg.video_noise_sigma_v
        if sigma == 0.0:
            assert t > v_floor
            return exceed(t)
        edge = t - v_floor
        body, _ = quad(lambda z: norm.pdf(z, scale=sigma) * exceed(t - z),
                       edge - 12.0 * sigma, edge, epsabs=1e-12)
        return norm.sf(edge, scale=sigma) + body

    @pytest.mark.parametrize("p_target", [1e-2, 1e-3])
    @pytest.mark.parametrize("sigma_v", [0.0, 0.03])
    def test_measure_p10(self, channel, sigma_v, p_target):
        cfg = ws.ReceiverConfig(cof_hz=0.0, video_noise_sigma_v=sigma_v,
                                video_noise_tau_us=2.0)
        # the threshold that gives p_target without the video noise
        gn = db_to_linear(cfg.lna_gain_db) * channel.noise_floor_mw
        t = cfg.log_intercept_v + 10.0 * cfg.log_slope_v_per_db * np.log10(
            gn * np.log(1.0 / p_target))
        n = 200_000
        stats = ws.measure_p10(cfg.with_threshold(t), channel, rng_seed=35,
                               n_decisions=n)
        lo, hi = ws.wilson_interval(int(round(stats.p10 * n)), n, z=5.0)
        assert lo <= self._oracle(cfg, channel, t) <= hi


def _serial_decisions(cfg, channel, n, seed, rx_power_dbm=None, settle_us=500.0):
    """The bit kernels' decisions from one thread: the kernels' reference.

    The stream is cut into pieces of max(1, PIECE_SAMPLES // spb) whole
    decision blocks. Each piece's input power is drawn whole (for the Rice
    power all its Exp(1) before all its uniforms) from its own child of the
    seed, in piece order, and the pieces, joined, are pushed once through a
    ReceiverStream at comb offset spb - 1, which draws the comb noise from
    the first child.
    """
    rate = channel.bandwidth_hz
    spb = _samples_per_bit(cfg, rate)
    if cfg.cof_hz == 0:
        # one sample per decision, at the decision rate
        rate, spb = rate / spb, 1
    n_blocks = n + int(np.ceil(settle_us / cfg.d_sample_us))
    per_piece = max(1, montecarlo.PIECE_SAMPLES // spb)
    starts = range(0, n_blocks, per_piece)
    noise_seed, *seeds = seed_sequence(seed).spawn(len(starts) + 1)
    noise_mw = channel.noise_floor_mw
    pieces = []
    for b0, piece_seed in zip(starts, seeds):
        m = min(per_piece, n_blocks - b0) * spb
        rng = np.random.default_rng(piece_seed)
        if rx_power_dbm is not None:
            amp = np.float32(np.sqrt(dbm_to_mw(rx_power_dbm)))
            power = rice_power(rng, np.full(m, amp, dtype=np.float32), noise_mw)
        elif noise_mw == 0.0:
            power = np.zeros(m, dtype=np.float32)
        else:
            power = rng.standard_exponential(m, dtype=np.float32) * np.float32(noise_mw)
        pieces.append(power)
    stream = ReceiverStream(cfg, rate, np.random.default_rng(noise_seed),
                            comb_offset=spb - 1)
    return stream.push(np.concatenate(pieces))[n_blocks - n:]


def _kernel_decisions(cfg, channel, n, seed, rx_power_dbm=None):
    if rx_power_dbm is None:
        return noise_decision_voltages(cfg, channel, n, rng_seed=seed)
    return signal_decision_voltages(cfg, channel, rx_power_dbm, n, rng_seed=seed)


class TestPipeline:
    """The workers of the bit kernels each draw, detect and sum whole
    pieces, each from its own seed, and the caller reads them in piece
    order: byte for byte the serial stream.

    22 000 decisions at 48.2 and 159 kHz (spb 200, 1310 decisions per
    piece) span 17 pieces; at COF 0 (one sample per decision) one piece.
    """

    @pytest.mark.parametrize("n", [37, 22_000])
    @pytest.mark.parametrize("signal", [False, True], ids=["noise", "signal"])
    @pytest.mark.parametrize("video", [False, True], ids=["quiet", "video"])
    @pytest.mark.parametrize("detector", ["log_detector", "square_law_linear"])
    @pytest.mark.parametrize("cof", [0.0, 48.2e3, 159e3])
    def test_equals_serial_stream(self, channel, cof, detector, video, signal, n):
        cfg = ws.ReceiverConfig(cof_hz=cof, detector_model=detector,
                                video_noise_sigma_v=0.03 if video else 0.0)
        power = -92.0 if signal else None
        got = _kernel_decisions(cfg, channel, n, 40 + n, power)
        ref = _serial_decisions(cfg, channel, n, 40 + n, power)
        assert got.dtype == ref.dtype and got.size == n
        assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("slowed", [False, True], ids=["free", "slowed"])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("signal", [False, True], ids=["noise", "signal"])
    def test_same_bytes_from_any_worker_count(self, channel, monkeypatch, signal,
                                              workers, slowed):
        # slowed: every other piece sleeps before it is drawn, so that with
        # two or three workers the pieces finish out of piece order
        monkeypatch.setattr(montecarlo, "_BIT_WORKERS", workers)
        if slowed:
            real = montecarlo._piece_sums

            def slow(stream, amp, noise_mw, seed, n_samples):
                if seed.spawn_key[-1] % 2:
                    time.sleep(0.01)
                return real(stream, amp, noise_mw, seed, n_samples)

            monkeypatch.setattr(montecarlo, "_piece_sums", slow)
        cfg = ws.ReceiverConfig(cof_hz=159e3)
        power = -90.0 if signal else None
        got = _kernel_decisions(cfg, channel, 22_000, 7, power)
        ref = _serial_decisions(cfg, channel, 22_000, 7, power)
        assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("piece", [77_777, 150], ids=["piece-77777", "piece-150"])
    @pytest.mark.parametrize("signal", [False, True], ids=["noise", "signal"])
    def test_piece_sizes(self, channel, monkeypatch, signal, piece):
        # 388 decision blocks per piece, or one (a piece below spb)
        monkeypatch.setattr(montecarlo, "PIECE_SAMPLES", piece)
        cfg = ws.ReceiverConfig(cof_hz=159e3)
        power = -90.0 if signal else None
        got = _kernel_decisions(cfg, channel, 2000, 9, power)
        assert got.tobytes() == _serial_decisions(cfg, channel, 2000, 9, power).tobytes()

    @pytest.mark.parametrize("signal", [False, True], ids=["noise", "signal"])
    @pytest.mark.parametrize("cof", [0.0, 159e3])
    def test_noiseless_channel(self, noiseless_channel, cof, signal):
        cfg = ws.ReceiverConfig(cof_hz=cof)
        power = -90.0 if signal else None
        got = _kernel_decisions(cfg, noiseless_channel, 3000, 8, power)
        ref = _serial_decisions(cfg, noiseless_channel, 3000, 8, power)
        assert got.tobytes() == ref.tobytes()

    def test_concurrent_calls_under_fast_switching(self, channel):
        # four callers, each with its own workers, on two CPUs, with the
        # interpreter switching threads every 10 us: every result is still
        # the serial stream's
        cfg = ws.ReceiverConfig(cof_hz=48.2e3)
        cases = [(seed, -92.0 if seed % 2 else None) for seed in range(4)]
        refs = [_serial_decisions(cfg, channel, 22_000, *case) for case in cases]
        got = [None] * len(cases)

        def run(i):
            got[i] = _kernel_decisions(cfg, channel, 22_000, *cases[i])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=run, args=(i,)) for i in range(4)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        for g, ref in zip(got, refs):
            assert g is not None and g.tobytes() == ref.tobytes()

    def test_workers_are_joined(self, channel):
        before = threading.active_count()
        noise_decision_voltages(ws.ReceiverConfig(), channel, 22_000, rng_seed=1)
        assert threading.active_count() == before

    @pytest.mark.parametrize("where", ["draw", "detect", "comb"])
    def test_error_reaches_caller_with_workers_joined(self, channel, monkeypatch,
                                                      where):
        # a worker's Rice draw or detector fails on its 5th piece of 17, or
        # the caller's comb noise fails: the error reaches the caller and
        # the workers are gone
        calls = []
        target, name = {"draw": (montecarlo, "_rice_blocks"),
                        "detect": (ReceiverStream, "_detect"),
                        "comb": (montecarlo, "_comb_noise")}[where]
        fail_on = 1 if where == "comb" else 5
        real = getattr(target, name)

        def failing(*args, **kwargs):
            calls.append(1)
            if len(calls) == fail_on:
                raise RuntimeError(f"{where} failed")
            return real(*args, **kwargs)

        monkeypatch.setattr(target, name, failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match=f"{where} failed"):
            signal_decision_voltages(ws.ReceiverConfig(), channel, -90.0, 22_000,
                                     rng_seed=1)
        assert threading.active_count() == before
        assert fail_on <= len(calls) < 17

    def test_signal_stream_memory(self, channel):
        # per worker one piece of float32 power (the Rice block buffers hold
        # 2^14 samples), and about 50 bytes per decision at the decision
        # rate (the sums, the filter, the comb noise's normals and readings):
        # no stream-sized array of power, which would be 80 MB here
        cfg = ws.ReceiverConfig(cof_hz=159e3)
        n = 100_000
        assert (n + 50) * 200 > 64 * montecarlo.PIECE_SAMPLES
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            signal_decision_voltages(cfg, channel, -90.0, n, rng_seed=3)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak <= montecarlo._BIT_WORKERS * 4 * montecarlo.PIECE_SAMPLES \
            + 64 * n + 2 ** 20


class TestBitKernelInput:
    """The bit kernels check their count and settle_us before any draw."""

    KERNELS = {
        "noise": lambda n, settle_us: noise_decision_voltages(
            ws.ReceiverConfig(), ws.ChannelConfig(), n, rng_seed=1,
            settle_us=settle_us),
        "signal": lambda n, settle_us: signal_decision_voltages(
            ws.ReceiverConfig(), ws.ChannelConfig(), -90.0, n, rng_seed=1,
            settle_us=settle_us),
    }
    KEYS = {"noise": "n_decisions", "signal": "n_bits"}

    @pytest.fixture(autouse=True)
    def _no_draws(self, monkeypatch):
        def drawn(*args):
            raise AssertionError("drawn before the input was checked")

        monkeypatch.setattr(montecarlo, "_settled_decisions", drawn)

    @pytest.mark.parametrize("settle_us", [-20.0, float("nan"), float("inf")],
                             ids=["negative", "nan", "inf"])
    @pytest.mark.parametrize("kernel", list(KERNELS))
    def test_bad_settle(self, kernel, settle_us):
        # unchecked, -20 us gave 2 decisions for 10 and NaN raised numpy's
        # ValueError
        with pytest.raises(ws.ConfigurationError, match="^settle_us "):
            self.KERNELS[kernel](10, settle_us)

    @pytest.mark.parametrize("n", [0, -1, 2.5], ids=["zero", "negative", "fraction"])
    @pytest.mark.parametrize("kernel", list(KERNELS))
    def test_bad_count(self, kernel, n):
        # unchecked, a negative count returned an empty array
        with pytest.raises(ws.ConfigurationError, match=f"^{self.KEYS[kernel]} "):
            self.KERNELS[kernel](n, 500.0)


class TestStreamWaveforms:
    def test_mean_power_additivity(self, channel):
        cfg = ws.ReceiverConfig(detector_model="square_law_linear",
                                lna_gain_db=0.0, cof_hz=0.0,
                                video_noise_sigma_v=0.0)
        rx = -85.0
        dec = signal_decision_voltages(cfg, channel, rx, 150_000, rng_seed=11)
        expected = dbm_to_mw(rx) + channel.noise_floor_mw
        assert float(np.mean(dec)) == pytest.approx(expected, rel=0.03)


class TestStreamDecimation:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("detector", ["log_detector", "square_law_linear"])
    def test_comb_then_detect_equals_detect_then_comb(self, channel, detector,
                                                      dtype):
        # at COF 0 the stream detects only the comb samples; the LNA and the
        # detector act sample by sample, so that changes no decision
        cfg = ws.ReceiverConfig(detector_model=detector, cof_hz=0.0,
                                video_noise_sigma_v=0.0)
        power = (np.random.default_rng(15).standard_exponential(50_000)
                 * channel.noise_floor_mw).astype(dtype)
        ref = cfg.detector_voltage(power * db_to_linear(cfg.lna_gain_db))[37::200]
        got = ReceiverStream(cfg, 20e6, None, comb_offset=37).push(power)
        assert got.dtype == dtype and got.size == 250
        np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("detector", ["log_detector", "square_law_linear"])
    @pytest.mark.parametrize("cof", [0.0, 159e3])
    def test_detects_in_place_on_its_own_product(self, channel, cof, detector,
                                                 dtype):
        # the detector runs in place on the stream's LNA product: the input
        # is left as it was, and the decisions are those of detector_voltage
        # read by a chain whose LNA and detector are the identity
        cfg = ws.ReceiverConfig(detector_model=detector, cof_hz=cof,
                                video_noise_sigma_v=0.0)
        power = (np.random.default_rng(16).standard_exponential(50_000)
                 * channel.noise_floor_mw).astype(dtype)
        before = power.copy()
        got = ReceiverStream(cfg, 20e6, None, comb_offset=37).push(power)
        np.testing.assert_array_equal(power, before)
        v = cfg.detector_voltage(power * db_to_linear(cfg.lna_gain_db))
        identity = ws.ReceiverConfig(detector_model="square_law_linear",
                                     lna_gain_db=0.0, cof_hz=cof,
                                     video_noise_sigma_v=0.0)
        ref = ReceiverStream(identity, 20e6, None, comb_offset=37).push(v)
        assert got.dtype == ref.dtype
        np.testing.assert_array_equal(got, ref)


class TestLpfMomentOracle:
    """Square law, LPF on, no video noise, white exponential noise power N.

    The decisions are then an AR(1) with pole a^spb (a = 1 - alpha) driven
    by iid block sums u = w . block, w_j = alpha a^(spb-1-j): mean kN,
    variance (kN)^2 alpha/(2 - alpha), lag-1 correlation a^spb. alpha is
    computed here, not taken from the receiver.
    """

    @pytest.mark.parametrize("cof", [48.2e3, 159e3])
    def test_mean_variance_and_lag1(self, channel, cof):
        spb, n = 200, 200_000
        cfg = ws.ReceiverConfig(detector_model="square_law_linear",
                                square_law_k=1.0, lna_gain_db=0.0, cof_hz=cof,
                                video_noise_sigma_v=0.0)
        y = noise_decision_voltages(cfg, channel, n, rng_seed=int(cof) + 3)
        alpha = 1.0 - np.exp(-2.0 * np.pi * cof / 20e6)
        a = 1.0 - alpha
        rho = a ** spb
        mean = channel.noise_floor_mw
        var = mean ** 2 * alpha / (2.0 - alpha)
        # excess kurtosis of the block sums: an exponential has 6
        w = alpha * a ** np.arange(spb)
        excess = 6.0 * np.sum(w ** 4) / np.sum(w ** 2) ** 2
        # asymptotic standard errors of a linear process (Bartlett): the
        # sample mean, the sample variance with its fourth-cumulant term, and
        # the lag-1 autocorrelation of an AR(1)
        se_mean = np.sqrt(var / n * (1.0 + rho) / (1.0 - rho))
        se_var = var * np.sqrt((excess + 2.0 * (1.0 + rho ** 2) / (1.0 - rho ** 2))
                               / n)
        se_rho = np.sqrt((1.0 - rho ** 2) / n)
        assert abs(y.mean() - mean) < 5.0 * se_mean
        assert abs(np.var(y) - var) < 5.0 * se_var
        assert abs(np.corrcoef(y[1:], y[:-1])[0, 1] - rho) < 5.0 * se_rho


class TestFrameErrorTrialsInput:
    @staticmethod
    def _run(**kwargs):
        cfg = ws.ReceiverConfig(cof_hz=159e3, video_noise_sigma_v=0.0,
                                threshold_v=0.31)
        kwargs = {"n_frames": 20, "frames_per_trial": 10, **kwargs}
        return frame_error_trials(
            [800.0], -60.0, cfg, ws.ChannelConfig(noise_figure_db=None),
            ws.Alphabet((720.0, 800.0, 1000.0)), rng_seed=1, **kwargs)

    def test_defaults_score_every_frame(self):
        assert self._run() == {800.0: (0, 20)}

    @pytest.mark.parametrize("value", [-100.0, -300.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("name", ["lead_us", "tail_us"])
    def test_bad_lead_or_tail_rejected(self, name, value):
        # unchecked, the clipped traces were scored: 2 errors of 20
        with pytest.raises(ws.ConfigurationError, match=name):
            self._run(**{name: value})

    @pytest.mark.parametrize("value", [0, -5, float("nan")])
    def test_bad_frames_per_trial_rejected(self, value):
        # unchecked, 0 divided by zero and -5 overflowed the trial count
        with pytest.raises(ws.ConfigurationError, match="frames_per_trial"):
            self._run(frames_per_trial=value)

    @pytest.mark.parametrize("value", [0, -20, float("nan")])
    def test_bad_n_frames_rejected(self, value):
        # unchecked, no frame was scored: (0, 0), and the interval failed later
        with pytest.raises(ws.ConfigurationError, match="n_frames"):
            self._run(n_frames=value)

    @pytest.mark.parametrize("lengths", [[800.0, 800.0], [720.0, 800.0, 720.0], []],
                             ids=["twice", "repeated", "empty"])
    def test_duplicate_or_empty_lengths_rejected(self, lengths):
        # unchecked, [800, 800] counted each frame twice: (32, 20), more
        # errors than frames; [] failed in max() with a bare ValueError
        with pytest.raises(ws.ConfigurationError, match="^lengths_us "):
            frame_error_trials(lengths, -93.0, FRAME_CFG, ws.ChannelConfig(),
                               ALPHABET, 20, rng_seed=1, frames_per_trial=10)

    def test_sweep_and_trials_reject_bad_counts(self, channel):
        cfg = ws.ReceiverConfig(cof_hz=159e3, threshold_v=0.31)
        alphabet = ws.Alphabet((720.0, 800.0, 1000.0))
        with pytest.raises(ws.ConfigurationError, match="n_frames"):
            ws.frame_error_sweep([800.0], [-90.0], cfg, channel, alphabet,
                                 n_frames=0, rng_seed=1)
        with pytest.raises(ws.ConfigurationError, match="frames_per_trial"):
            frame_error_trials([800.0], -90.0, cfg, channel, alphabet, 10,
                               rng_seed=1, frames_per_trial=0)


NON_FINITE = [float("nan"), float("inf"), float("-inf")]
FRAME_CFG = ws.ReceiverConfig(cof_hz=159e3, threshold_v=0.31)
ALPHABET = ws.Alphabet((720.0, 800.0, 1000.0))


class TestNonFiniteRxPower:
    """A NaN or infinite received power raises a ConfigurationError naming
    rx_power_dbm before anything is drawn. Unchecked, a sweep at NaN scored
    every frame as an error and estimate_p01 gave 0 at NaN and 1 at -inf."""

    @pytest.mark.parametrize("power", NON_FINITE, ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("entry", [
        lambda p: frame_error_trials([800.0], p, FRAME_CFG, ws.ChannelConfig(),
                                     ALPHABET, 10, rng_seed=1),
        lambda p: ws.frame_error_sweep([800.0], [-90.0, p], FRAME_CFG,
                                       ws.ChannelConfig(), ALPHABET, n_frames=10,
                                       rng_seed=1),
        lambda p: signal_decision_voltages(FRAME_CFG, ws.ChannelConfig(), p, 100,
                                           rng_seed=1),
        lambda p: ws.estimate_p01(FRAME_CFG, ws.ChannelConfig(), p, rng_seed=1,
                                  n_bits=100),
    ], ids=["frame_error_trials", "frame_error_sweep", "signal_decision_voltages",
            "estimate_p01"])
    def test_rejected_before_any_draw(self, monkeypatch, entry, power):
        def no_draw(*args, **kwargs):
            raise AssertionError("a generator was made")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        before = threading.active_count()
        with pytest.raises(ws.ConfigurationError, match="^rx_power_dbm "):
            entry(power)
        assert threading.active_count() == before


COUNT_ENTRIES = {
    "frame_error_trials-n_frames": ("n_frames", lambda n: frame_error_trials(
        [800.0], -90.0, FRAME_CFG, ws.ChannelConfig(), ALPHABET, n, rng_seed=1)),
    "frame_error_trials-frames_per_trial": ("frames_per_trial", lambda n: (
        frame_error_trials([800.0], -90.0, FRAME_CFG, ws.ChannelConfig(),
                           ALPHABET, 10, rng_seed=1, frames_per_trial=n))),
    "frame_error_sweep-n_frames": ("n_frames", lambda n: ws.frame_error_sweep(
        [800.0], [-90.0], FRAME_CFG, ws.ChannelConfig(), ALPHABET, n_frames=n,
        rng_seed=1)),
    "frame_error_sweep-frames_per_trial": ("frames_per_trial", lambda n: (
        ws.frame_error_sweep([800.0], [-90.0], FRAME_CFG, ws.ChannelConfig(),
                             ALPHABET, n_frames=10, rng_seed=1,
                             frames_per_trial=n))),
    "count_distribution-n_frames": ("n_frames", lambda n: ws.count_distribution(
        ws.FrameSpec(12), -70.0, ws.Cc2420Config(), n_frames=n, rng_seed=1)),
    "measure_edge_delays-n_trials": ("n_trials", lambda n: ws.measure_edge_delays(
        FRAME_CFG, -60.0, ws.ChannelConfig(), n_trials=n, rng_seed=1)),
}


class TestNonIntegerCounts:
    """A count that is not an integer raises a ConfigurationError naming its
    key before anything is drawn, through the one errors._check_count.
    Unchecked, 2.5 and "3" raised a bare TypeError (frame_error_sweep's from
    inside a worker), and NaN a bare ValueError or a message without the
    word integer."""

    @pytest.mark.parametrize("value", [2.5, float("nan"), "3"],
                             ids=["fraction", "nan", "string"])
    @pytest.mark.parametrize("entry", sorted(COUNT_ENTRIES))
    def test_rejected_before_any_draw(self, monkeypatch, entry, value):
        def no_draw(*args, **kwargs):
            raise AssertionError("a generator was made")

        key, call = COUNT_ENTRIES[entry]
        monkeypatch.setattr(np.random, "default_rng", no_draw)
        before = threading.active_count()
        with pytest.raises(ws.ConfigurationError,
                           match=f"^{key} must be an integer >= 1, got "):
            call(value)
        assert threading.active_count() == before


class TestFrameTrialMemory:
    @pytest.mark.parametrize("lengths", [(720.0, 800.0, 1000.0), (1000.0,)],
                             ids=["three", "one"])
    def test_peak_fits_one_trial_path(self, channel, lengths):
        # one trial of 100 frames of 1000 us (n_max about 2.11M samples)
        # holds one float32 path, 4 n_max bytes, and under 4 MB besides
        # (its store of E, 14% of the trace with three lengths), so that
        # three powers of frame_error_sweep in flight stay within the
        # memory budget; a second float32 path of the trace would not fit.
        # The blocks that frame edges cut are formed per length, and one
        # length (the wake-up scenario's calls) must fit as well
        seed = np.random.SeedSequence(3)
        s_sched = seed_sequence(seed).spawn(1)[0].spawn(3)[0]
        schedule = ws.build_tx_schedule(
            [ws.FrameSpec(ws.payload_for_duration(1000.0))] * 100, cw=1,
            rng_seed=s_sched)
        n_max = _frame_spans(schedule, channel.bandwidth_hz, 200.0, 300.0)[0]
        assert 2.0e6 < n_max < 2.2e6
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            frame_error_trials(lengths, -92.0, FRAME_CFG, channel, ALPHABET, 100,
                               rng_seed=seed, frames_per_trial=100)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak <= 4 * n_max + 4 * 2 ** 20

    def test_three_power_sweep_peak(self, channel):
        # three powers of 100-frame trials, all in flight at once, peak
        # below 16 n_max, what two trials of two float32 paths each held
        seeds = seed_sequence(5).spawn(3)
        n_max = 0
        for seed in seeds:
            s_sched = seed_sequence(seed).spawn(1)[0].spawn(3)[0]
            schedule = ws.build_tx_schedule(
                [ws.FrameSpec(ws.payload_for_duration(1000.0))] * 100, cw=1,
                rng_seed=s_sched)
            n_max = max(n_max, _frame_spans(schedule, channel.bandwidth_hz,
                                            200.0, 300.0)[0])
        assert 2.0e6 < n_max < 2.2e6
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            ws.frame_error_sweep((720.0, 800.0, 1000.0), (-94.0, -92.0, -90.0),
                                 FRAME_CFG, channel, ALPHABET, n_frames=100,
                                 rng_seed=5, frames_per_trial=100)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < 16 * n_max


def _loop_score_trial(bits, length_us, starts_us, difs_us, margin_us,
                      min_run_bits):
    """The per-run scorer that _score_trial vectorises: its reference."""
    runs = ws.extract_runs(bits, min_run_bits=min_run_bits)
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


def _receive_frame_error_trials(lengths_us, rx_power_dbm, cfg, channel, alphabet,
                                n_frames, rng_seed, frames_per_trial, cw=1,
                                lead_us=200.0, tail_us=300.0, min_run_bits=3,
                                bits_out=None):
    """frame_error_trials as one receive call per length on its whole trace.

    The same draws as frame_error_trials, but each length forms its own
    amplitude array, combines its own power and draws its own comb noise
    from the trial's video-noise seed, and the per-run loop scores it: the
    reference that the shared per-trial work must reproduce exactly. The
    bits of each length of each trial are appended to bits_out, if given.
    """
    lengths = [float(x) for x in lengths_us]
    rate = channel.bandwidth_hz
    noise_mw = channel.noise_floor_mw
    amp0 = np.float32(np.sqrt(dbm_to_mw(rx_power_dbm)))
    n_trials = int(np.ceil(n_frames / frames_per_trial))
    errors = {length: 0 for length in lengths}
    total = 0
    for seed in seed_sequence(rng_seed).spawn(n_trials):
        b = min(frames_per_trial, n_frames - total)
        s_sched, s_run, s_video = seed.spawn(3)
        rng = np.random.default_rng(s_run)
        schedules = {length: ws.build_tx_schedule(
            [ws.FrameSpec(ws.payload_for_duration(length))] * b, cw=cw,
            rng_seed=s_sched) for length in lengths}
        spans = {length: _frame_spans(s, rate, lead_us, tail_us)
                 for length, s in schedules.items()}
        n_max = max(n for n, _ in spans.values())
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
            bits = ws.receive(ws.EnvelopeTrace(power, rate), cfg, phase_us,
                              rng_seed=s_video)
            if bits_out is not None:
                bits_out.append(bits.bits)
            starts_us = lead_us + np.array([t for t, _ in schedule.events])
            errors[length] += _loop_score_trial(bits, length, starts_us,
                                                schedule.difs_us,
                                                alphabet.margin_us, min_run_bits)
        total += b
    return {length: (errors[length], total) for length in lengths}


def _trial_decisions(cfg, rate, offset, in_frame, idle, spans):
    """The shared chain of one trial (_TrialDecisions) from two full paths.

    idle holds E over the longest trace; its store (_NoiseStore) keeps it
    where a length reads noise, and in_frame becomes the shared path.
    """
    store = montecarlo._NoiseStore(spans, idle, 1.0)
    return _TrialDecisions(cfg, rate, offset, in_frame, store)


FRAME_ORACLE_COFS = (0.0, 48.2e3, 159e3, 482e3)
# (threshold V, rx power dBm) per (detector, COF, video noise on): the
# threshold is the 1 - 1e-3 quantile of the noise-only decisions, and at the
# power the 99 frames of rng_seed 1 hold both hits and errors. The square
# law runs at 1e8 V/mW, so that its voltages are on the video noise's scale.
FRAME_ORACLE_POINTS = {
    ("log_detector", 0.0, False): (0.3997, -87.0),
    ("log_detector", 0.0, True): (0.4263, -85.0),
    ("log_detector", 48.2e3, False): (0.2316, -101.0),
    ("log_detector", 48.2e3, True): (0.3033, -93.0),
    ("log_detector", 159e3, False): (0.2456, -99.0),
    ("log_detector", 159e3, True): (0.3089, -93.0),
    ("log_detector", 482e3, False): (0.27, -95.0),
    ("log_detector", 482e3, True): (0.3191, -91.0),
    ("square_law_linear", 0.0, False): (0.996, -87.0),
    ("square_law_linear", 0.0, True): (0.9963, -87.0),
    ("square_law_linear", 48.2e3, False): (0.185, -101.0),
    ("square_law_linear", 48.2e3, True): (0.2371, -99.0),
    ("square_law_linear", 159e3, False): (0.2274, -99.0),
    ("square_law_linear", 159e3, True): (0.261, -97.0),
    ("square_law_linear", 482e3, False): (0.309, -95.0),
    ("square_law_linear", 482e3, True): (0.3225, -95.0),
}


class TestFrameErrorTrialsOracle:
    """frame_error_trials against one receive per length on its whole trace.

    Sharing each trial's power, detection, block sums and comb noise
    between its lengths must not change one decision, so the counts are
    equal, not close. 15 frames of 1000 us span 4.8 Rice blocks of
    TRIAL_RICE_BLOCK, so block boundaries cut frames; the third trial has
    3 frames, one block.
    """

    LENGTHS = (720.0, 800.0, 1000.0)

    @staticmethod
    def _cfg(detector, cof, video, threshold_v):
        return ws.ReceiverConfig(cof_hz=cof, detector_model=detector,
                                 square_law_k=1e8,
                                 video_noise_sigma_v=0.03 if video else 0.0,
                                 threshold_v=threshold_v)

    @pytest.mark.parametrize("detector, cof, video", list(FRAME_ORACLE_POINTS))
    def test_matches_receive_per_length(self, channel, alphabet, detector, cof,
                                        video):
        threshold_v, power = FRAME_ORACLE_POINTS[(detector, cof, video)]
        cfg = self._cfg(detector, cof, video, threshold_v)
        assert 15 * 1050.0 * 20 > 4 * montecarlo.TRIAL_RICE_BLOCK
        kwargs = dict(n_frames=33, rng_seed=1, frames_per_trial=15)
        got = frame_error_trials(self.LENGTHS, power, cfg, channel, alphabet,
                                 **kwargs)
        assert got == _receive_frame_error_trials(self.LENGTHS, power, cfg,
                                                  channel, alphabet, **kwargs)
        # both outcomes occur, so a scorer that always answered 0 or n, or a
        # chain that lost the frames or the gaps, could not pass
        assert 0 < sum(k for k, _ in got.values()) < 99

    @pytest.mark.parametrize("cof", FRAME_ORACLE_COFS)
    def test_noiseless_channel(self, noiseless_channel, alphabet, cof):
        cfg = self._cfg("log_detector", cof, True, 0.31)
        kwargs = dict(n_frames=20, rng_seed=3, frames_per_trial=20)
        got = frame_error_trials(self.LENGTHS, -80.0, cfg, noiseless_channel,
                                 alphabet, **kwargs)
        assert got == _receive_frame_error_trials(
            self.LENGTHS, -80.0, cfg, noiseless_channel, alphabet, **kwargs)

    @pytest.mark.parametrize("phase_us", [0.0, 3.3, 9.97, 9.99],
                             ids=["0", "mid", "offset199", "offset200"])
    @pytest.mark.parametrize("cof", FRAME_ORACLE_COFS)
    def test_trial_bits_equal_receive(self, channel, cof, phase_us):
        # one trace, read from the shared paths of a longer trace, with the
        # comb noise drawn for that longer trace; 9.99 us rounds the
        # comb offset up to a whole bit
        cfg = self._cfg("log_detector", cof, True, 0.31)
        rate = channel.bandwidth_hz
        offset = _comb_offset(cfg, rate, phase_us)
        assert phase_us < 9.99 or offset == 200
        schedule = ws.build_tx_schedule(
            [ws.FrameSpec(ws.payload_for_duration(1000.0))] * 15, cw=1, rng_seed=4)
        n_samples, frames = _frame_spans(schedule, rate, 200.0, 300.0)
        n_max = n_samples + 12_345
        rng = np.random.default_rng(5)
        e, x = rice_noise(rng, n_max, channel.noise_floor_mw)
        amp = np.zeros(n_samples, dtype=np.float32)
        for i0, i1 in frames:
            amp[i0:i1] = np.float32(np.sqrt(dbm_to_mw(-90.0)))
        power = rice_combine(amp, e[:n_samples], x[:n_samples])
        in_frame = rice_combine(amp.max(), e, x)
        seed = np.random.SeedSequence(6)
        n_dec = len(range(offset, n_max, _samples_per_bit(cfg, rate)))
        noise = _comb_noise(cfg, rate, np.random.default_rng(seed), offset, n_dec)
        ref = ws.receive(ws.EnvelopeTrace(power, rate), cfg, phase_us,
                         rng_seed=seed).bits
        # the frame edges lie on the first samples of blocks at offset 199,
        # and cut blocks at the other offsets; the paths run on past the trace
        cut = [(i - offset - 1) % 200 != 0 for i in np.ravel(frames)]
        assert all(cut) if offset != 199 else not any(cut)
        chain = _trial_decisions(cfg, rate, offset, in_frame, e,
                                 [(n_samples, frames)])
        got = chain.bits(n_samples, frames, noise)
        assert got.dtype == ref.dtype and 0 < ref.sum() < ref.size
        np.testing.assert_array_equal(got, ref)


def _trial_and_reference_bits(monkeypatch, lengths, power, cfg, channel,
                              **kwargs):
    """Bits of frame_error_trials and of _receive_frame_error_trials.

    Also returns the comb offset of each trial. The counts must agree too.
    """
    got, offsets = [], []
    score, comb_offset = montecarlo._score_trial, montecarlo._comb_offset

    def scored(bits, *args):
        got.append(bits.bits)
        return score(bits, *args)

    def offset(*args):
        offsets.append(comb_offset(*args))
        return offsets[-1]

    monkeypatch.setattr(montecarlo, "_score_trial", scored)
    monkeypatch.setattr(montecarlo, "_comb_offset", offset)
    kwargs = {"n_frames": 4, "rng_seed": 1, "frames_per_trial": 4, **kwargs}
    counts = frame_error_trials(lengths, power, cfg, channel, ALPHABET, **kwargs)
    ref = []
    assert counts == _receive_frame_error_trials(lengths, power, cfg, channel,
                                                 ALPHABET, bits_out=ref, **kwargs)
    assert len(got) == len(ref)
    for g, r in zip(got, ref):
        assert g.dtype == r.dtype and g.tobytes() == r.tobytes()
    return got, offsets


class TestTrialDecisionBytes:
    """The bits of every length, byte for byte, from the shared per-trial
    chain (_TrialDecisions) and from one receive per length on its whole
    trace, where the block bookkeeping could slip: frame edges at every
    sample of a decision block, the comb offsets at the ends of their range,
    frames from sample 0 or up to the last sample, 1 to 4 lengths sharing
    the paths, a noiseless channel, the LPF bypassed and at its widest."""

    LENGTHS = (720.0, 800.0, 1000.0)

    @staticmethod
    def _cfg(cof):
        return ws.ReceiverConfig(cof_hz=cof, threshold_v=0.31)

    @pytest.mark.parametrize("cof", [159e3, 482e3])
    def test_edges_at_every_sample_of_a_block(self, monkeypatch, channel, cof):
        # lead + tail stays 500 us, so the draws and the comb phase stay and
        # the frames move by one sample per step, across one 10 us bit
        cuts = set()
        for i in range(200):
            lead_us = 200.0 + 0.05 * i
            bits, [offset] = _trial_and_reference_bits(
                monkeypatch, self.LENGTHS, -92.0, self._cfg(cof), channel,
                n_frames=2, frames_per_trial=2, lead_us=lead_us,
                tail_us=500.0 - lead_us)
            assert 0 < sum(b.sum() for b in bits)
            cuts.add((int(round(lead_us * 20)) - offset % 200 - 1) % 200)
        assert cuts == set(range(200))

    # seeds whose one trial draws these comb offsets
    OFFSET_SEEDS = {0: 210, 1: 265, 199: 55, 200: 115}

    @pytest.mark.parametrize("cof", [0.0, 159e3, 482e3])
    @pytest.mark.parametrize("offset", sorted(OFFSET_SEEDS))
    def test_comb_offsets(self, monkeypatch, channel, cof, offset):
        _, offsets = _trial_and_reference_bits(
            monkeypatch, self.LENGTHS, -92.0, self._cfg(cof), channel,
            rng_seed=self.OFFSET_SEEDS[offset])
        assert offsets == [offset]

    @pytest.mark.parametrize("cof", [0.0, 159e3, 482e3])
    @pytest.mark.parametrize("lead_us, tail_us",
                             [(0.0, 300.0), (200.0, 0.0), (0.0, 0.0),
                              (0.05, 0.05), (5.0, 300.0)])
    def test_no_idle_at_the_ends(self, monkeypatch, channel, cof, lead_us,
                                 tail_us):
        # a frame from sample 0, up to the trace's last sample, or cutting
        # the first block, whose samples before 0 are zeros
        for seed in range(3):
            _trial_and_reference_bits(monkeypatch, self.LENGTHS, -92.0,
                                      self._cfg(cof), channel, rng_seed=seed,
                                      lead_us=lead_us, tail_us=tail_us)

    @pytest.mark.parametrize("cof", [0.0, 159e3, 482e3])
    @pytest.mark.parametrize("n_lengths", [1, 2, 3, 4])
    def test_one_to_four_lengths(self, monkeypatch, channel, cof, n_lengths):
        lengths = (1000.0, 720.0, 1200.0, 800.0)[:n_lengths]
        bits, _ = _trial_and_reference_bits(monkeypatch, lengths, -92.0,
                                            self._cfg(cof), channel,
                                            n_frames=10, frames_per_trial=4)
        assert len(bits) == 3 * n_lengths

    @pytest.mark.parametrize("video", [False, True])
    @pytest.mark.parametrize("cof", [0.0, 159e3, 482e3])
    def test_noiseless_channel(self, monkeypatch, noiseless_channel, cof, video):
        cfg = ws.ReceiverConfig(cof_hz=cof, threshold_v=0.31,
                                video_noise_sigma_v=0.03 if video else 0.0)
        _trial_and_reference_bits(monkeypatch, self.LENGTHS, -80.0, cfg,
                                  noiseless_channel, lead_us=0.05)


    @pytest.mark.parametrize("cof", [0.0, 48.2e3, 159e3, 482e3])
    def test_any_spans_equal_receive(self, cof):
        # up to 4 lengths of random frames, as short as one sample and as
        # long as many blocks, touching, from sample 0 or up to the end, so
        # that a block holds several edges and block 0 holds conflicts
        cfg = ws.ReceiverConfig(cof_hz=cof, threshold_v=0.31)
        rate = 20e6
        rng = np.random.default_rng(17)
        for case in range(40):
            offset = int(rng.choice([0, 1, 57, 150, 199, 200]))
            lengths = []
            for _ in range(int(rng.integers(1, 5))):
                n = int(rng.integers(300, 4000))
                cuts = np.sort(rng.integers(0, n + 1, size=2 * int(rng.integers(1, 12))))
                if case % 3 == 0:
                    cuts[0] = 0
                frames = [(int(i0), int(i1)) for i0, i1 in cuts.reshape(-1, 2) if i0 < i1]
                lengths.append((n, frames))
            n_max = max(n for n, _ in lengths)
            in_frame = (rng.standard_exponential(n_max) * 3e-9).astype(np.float32)
            idle = (rng.standard_exponential(n_max) * 1e-9).astype(np.float32)
            seed = np.random.SeedSequence(case)
            noise = _comb_noise(cfg, rate, np.random.default_rng(seed), offset,
                                len(range(offset, n_max, 200)))
            refs = []
            for n, frames in lengths:
                power = idle[:n].copy()
                for i0, i1 in frames:
                    power[i0:i1] = in_frame[i0:i1]
                # 9.99 us rounds to offset 200
                phase_us = min(offset * 0.05, 9.99)
                refs.append(ws.receive(ws.EnvelopeTrace(power, rate), cfg,
                                       phase_us, rng_seed=seed).bits)
            chain = _trial_decisions(cfg, rate, offset, in_frame, idle, lengths)
            for (n, frames), ref in zip(lengths, refs):
                got = chain.bits(n, frames, noise)
                assert got.tobytes() == ref.tobytes(), (case, n, frames)


def _random_frames(rng, n):
    """Disjoint sorted frames below n: some touch, one may start at sample 0
    or end at n, and there may be none."""
    cuts = np.sort(rng.integers(0, n + 1, size=2 * int(rng.integers(0, 6))))
    if cuts.size >= 4 and rng.random() < 0.3:
        cuts[2] = cuts[1]
    if cuts.size and rng.random() < 0.3:
        cuts[0] = 0
    if cuts.size and rng.random() < 0.3:
        cuts[-1] = n
    return [(int(i0), int(i1)) for i0, i1 in cuts.reshape(-1, 2) if i0 < i1]


def _mask(n, frames):
    """The samples below n that the frames (i0, i1) cover."""
    mask = np.zeros(n, dtype=bool)
    for i0, i1 in frames:
        mask[i0:i1] = True
    return mask


class TestConflictRule:
    """A length's conflicts (montecarlo._conflicts) are the samples below
    its n_samples that another length's frame covers and none of its own
    frames does: the one rule by which _TrialDecisions picks the noise path
    or the shared one."""

    def test_conflicts_equal_a_per_sample_mask(self):
        rng = np.random.default_rng(29)
        seen = set()
        for _ in range(400):
            n_max = int(rng.integers(1, 300))
            lengths = [(n_max, _random_frames(rng, n_max))]
            for _ in range(int(rng.integers(0, 4))):
                n = int(rng.integers(1, n_max + 1))
                if rng.random() < 0.3:
                    # another length's frames, as far as they fit
                    frames = [f for f in lengths[-1][1] if f[1] <= n]
                    seen.add("duplicate")
                else:
                    frames = _random_frames(rng, n)
                lengths.append((n, frames))
            merged = montecarlo._merged([f for _, frames in lengths for f in frames])
            framed = np.array(merged, dtype=np.int64).reshape(-1)
            union = _mask(n_max, merged)
            for n, frames in lengths:
                bounds = montecarlo._conflicts(framed, n, frames)
                assert np.all(np.diff(bounds) > 0)
                assert np.all((0 <= bounds) & (bounds <= n))
                want = union[:n] & ~_mask(n, frames)
                got = np.searchsorted(bounds, np.arange(n), side="right") % 2 == 1
                np.testing.assert_array_equal(got, want)
                if want.any():
                    seen.add("conflicts")
                if n < n_max and union[n:].any():
                    seen.add("union clipped")
                if any(i0 == 0 for i0, _ in frames):
                    seen.add("from 0")
                if any(i1 == n for _, i1 in frames):
                    seen.add("up to n")
                if any(a[1] == b[0] for a, b in zip(frames, frames[1:])):
                    seen.add("touching")
        assert seen == {"duplicate", "conflicts", "union clipped", "from 0",
                        "up to n", "touching"}

    @pytest.mark.parametrize("cof", [0.0, 48.2e3, 159e3, 482e3])
    def test_loud_noise_on_the_conflicts_equals_receive(self, cof):
        # E far above the threshold and the in-frame power far below it, so
        # that a decision or a row that reads the wrong path, or an E sample
        # left undetected or a block sum left NaN (a NaN decision reads 0),
        # flips bits that receive sets
        cfg = ws.ReceiverConfig(cof_hz=cof, video_noise_sigma_v=0.0,
                                threshold_v=0.31)
        rate = 20e6
        rng = np.random.default_rng(31)
        ones = 0
        for case in range(30):
            offset = int(rng.choice([0, 1, 57, 150, 199, 200]))
            n_max = int(rng.integers(300, 4000))
            lengths = [(n_max, _random_frames(rng, n_max))]
            for n in rng.integers(300, n_max + 1, size=int(rng.integers(1, 4))):
                lengths.append((int(n), _random_frames(rng, int(n))))
            in_frame = (rng.standard_exponential(n_max) * 1e-12).astype(np.float32)
            idle = (rng.standard_exponential(n_max) * 1e-6).astype(np.float32)
            refs = []
            for n, frames in lengths:
                power = idle[:n].copy()
                for i0, i1 in frames:
                    power[i0:i1] = in_frame[i0:i1]
                # 9.99 us rounds to offset 200
                refs.append(ws.receive(ws.EnvelopeTrace(power, rate), cfg,
                                       min(offset * 0.05, 9.99)).bits)
            chain = _trial_decisions(cfg, rate, offset, in_frame, idle, lengths)
            for (n, frames), ref in zip(lengths, refs):
                got = chain.bits(n, frames, None)
                assert got.tobytes() == ref.tobytes(), (case, n, frames)
                ones += int(ref.sum())
        assert ones > 0

    @pytest.mark.parametrize("cof", [0.0, 159e3])
    @pytest.mark.parametrize("n_lengths", [1, 2, 3])
    def test_noise_detected_in_one_call_or_none(self, monkeypatch, cof, n_lengths):
        # the shared path is detected by one whole-array call, which
        # releases the GIL for long, and E by one call on the store, only
        # when there are conflicts and exactly over them; reading the bits
        # of a length detects nothing more
        detect, calls = ReceiverStream._detect, []

        def spy(stream, power_mw, out=None):
            calls.append((power_mw, power_mw.copy()))
            return detect(stream, power_mw, out=out)

        monkeypatch.setattr(ReceiverStream, "_detect", spy)
        rate = 20e6
        cfg = ws.ReceiverConfig(cof_hz=cof, threshold_v=0.31)
        spans = [_frame_spans(ws.build_tx_schedule(
            [ws.FrameSpec(ws.payload_for_duration(length))] * 6, cw=8,
            rng_seed=7), rate, 200.0, 300.0)
            for length in (1000.0, 720.0, 800.0)[:n_lengths]]
        n_max = max(n for n, _ in spans)
        rng = np.random.default_rng(8)
        in_frame = (rng.standard_exponential(n_max) * 3e-9).astype(np.float32)
        idle = (rng.standard_exponential(n_max) * 1e-9).astype(np.float32)
        store = montecarlo._NoiseStore(spans, idle, 1.0)
        chain = _TrialDecisions(cfg, rate, 57, in_frame, store)
        for n, frames in spans:
            chain.bits(n, frames, None)
        assert len(calls) == 1 + (n_lengths > 1)
        # the whole path (at COF 0 its comb samples) ...
        (path, _), *on_store = calls
        comb = np.zeros(n_max, dtype=bool)
        comb[57::200] = True
        assert np.shares_memory(path, in_frame)
        assert path.size == (n_max if cof else np.count_nonzero(comb))
        # ... and E on the union of every length's conflicts, the samples a
        # per-sample mask gives (at COF 0 its comb samples)
        union = np.zeros(n_max, dtype=bool)
        for n, frames in spans:
            union[:n] |= _mask(n, montecarlo._merged(
                [f for _, fs in spans for f in fs])) & ~_mask(n, frames)
        assert union.any() == (n_lengths > 1)
        for power, before in on_store:
            assert np.shares_memory(power, store.values) == (cof > 0)
            np.testing.assert_array_equal(before, idle[union if cof else union & comb])

    @pytest.mark.parametrize("cof", [48.2e3, 159e3])
    def test_store_missing_a_conflict_sample_raises(self, monkeypatch, channel, cof):
        # a store that lacks the middle sample of its longest conflict leaves
        # the sum of the block around it unformed (NaN, which would read as
        # bit 0): the length that reads it raises and is named
        class Missing(montecarlo._NoiseStore):
            def __init__(self, *args):
                super().__init__(*args)
                j = int(np.argmax(np.diff(self.conflicts, axis=1)))
                (c0, c1), o = self.conflicts[j], self.offsets[j]
                m = (c0 + c1) // 2
                self.conflicts = np.insert(self.conflicts, j + 1, (m + 1, c1), axis=0)
                self.conflicts[j, 1] = m
                self.offsets = np.insert(self.offsets, j + 1, o + m + 1 - c0)

        cfg = ws.ReceiverConfig(cof_hz=cof, threshold_v=0.31)
        kwargs = dict(n_frames=10, rng_seed=1, frames_per_trial=10)
        lengths = (720.0, 800.0, 1000.0)
        frame_error_trials(lengths, -92.0, cfg, channel, ALPHABET, **kwargs)
        monkeypatch.setattr(montecarlo, "_NoiseStore", Missing)
        with pytest.raises(RuntimeError,
                           match=r"^frame length (720|800|1000)\.0 us \(\d+ samples\)"):
            frame_error_trials(lengths, -92.0, cfg, channel, ALPHABET, **kwargs)


def _loop_merged(spans):
    """The union of spans by a sort and one Python loop (the reference)."""
    out = []
    for i0, i1 in sorted(spans):
        if i0 >= i1:
            continue
        if out and i0 <= out[-1][1]:
            out[-1][1] = max(out[-1][1], i1)
        else:
            out.append([i0, i1])
    return out


class TestMerged:
    """montecarlo._merged gives the spans of the loop it replaced."""

    def test_random_spans_match_the_loop(self):
        rng = np.random.default_rng(31)
        seen = set()
        for _ in range(2000):
            n = int(rng.integers(0, 12))
            starts = rng.integers(0, 40, n)
            spans = np.stack((starts, starts + rng.integers(-3, 12, n)), axis=1)
            if n > 1 and rng.random() < 0.3:
                # a copy of span 0, and a span that starts where it ends
                spans[1] = (spans[0, 0], spans[0, 1])
                spans[-1, 0] = spans[0, 1]
            spans = spans.tolist()
            got = montecarlo._merged(spans)
            assert got.dtype == np.int64 and got.shape[1] == 2
            assert got.tolist() == _loop_merged(spans)
            ends = {i1 for i0, i1 in spans if i0 < i1}
            if any(i0 >= i1 for i0, i1 in spans):
                seen.add("empty")
            if any(i0 in ends for i0, i1 in spans if i0 < i1):
                seen.add("touching")
            if any(a0 <= b0 and b1 <= a1 and (a0, a1) != (b0, b1)
                   for a0, a1 in spans for b0, b1 in spans if b0 < b1):
                seen.add("nested")
            if not got.size:
                seen.add("none left")
        assert seen == {"empty", "touching", "nested", "none left"}

    def test_touching_spans_join(self):
        assert montecarlo._merged([(5, 9), (0, 5), (9, 9)]).tolist() == [[0, 9]]
        assert montecarlo._merged([(0, 4), (5, 9)]).tolist() == [[0, 4], [5, 9]]
        assert montecarlo._merged([]).shape == (0, 2)


class TestNoiselessFrameOracle:
    """With no channel noise and no video noise, the chain's output is the
    RC response to a two-level detector output: V_lo between frames (the
    log law's floor) and V_hi inside them, from 0 V before sample 0. Over a
    level segment from sample s with y(s - 1) = y0 it is x + (y0 - x) a^(n -
    s + 1), a = 1 - alpha. It crosses the threshold upward at
    n_up = s + floor(L), L = ln((x - th) / (x - y0)) / ln a, and is last
    above it after the frame at s + ceil(L') - 2, L' = ln((th - x) /
    (y0 - x)) / ln a; at COF 0 the run is the frame itself. So each frame's
    run holds the comb points offset + k spb in [n_up, n_dn), and its length
    is a closed-form count for every comb phase, which the per-length
    decision step must give."""

    @pytest.mark.parametrize("offset", [0, 1, 57, 100, 199, 200])
    @pytest.mark.parametrize("cof", [0.0, 48.2e3, 159e3, 482e3])
    def test_run_lengths_are_the_comb_count(self, cof, offset):
        rate = 20e6
        cfg = ws.ReceiverConfig(cof_hz=cof, video_noise_sigma_v=0.0)
        lna = db_to_linear(cfg.lna_gain_db)
        p_in = np.float32(np.sqrt(dbm_to_mw(-80.0))) ** 2
        v_lo, v_hi = (float(cfg.detector_voltage(np.float32(p) * lna))
                      for p in (0.0, p_in))
        # below the midpoint, so that the run outlasts the frame by a part
        # of a bit, and its length depends on the comb phase
        cfg = cfg.with_threshold(v_lo + 0.3 * (v_hi - v_lo))
        th = cfg.threshold_v
        a = 1.0 - lpf_alpha(cof, rate) if cof > 0 else 0.0
        lengths = (720.0, 800.0, 1000.0)
        spans = [_frame_spans(ws.build_tx_schedule(
            [ws.FrameSpec(ws.payload_for_duration(length))] * 6, cw=8,
            rng_seed=7), rate, 200.0, 300.0) for length in lengths]
        n_max = max(n for n, _ in spans)
        chain = _trial_decisions(cfg, rate, offset, np.full(n_max, p_in),
                                 np.zeros(n_max, dtype=np.float32), spans)

        def steps(y0, x, threshold):
            # ln((x - th) / (x - y0)) / ln a: samples to cross th from y0
            ratio = (x - threshold) / (x - y0)
            n = np.log(ratio) / np.log(a)
            # no comb point sits within rounding of the threshold
            assert abs(n - round(n)) > 1e-6
            return n

        for (n_samples, frames), length in zip(spans, lengths):
            bits = chain.bits(n_samples, frames, None)
            first, n_bits = _run_bounds(bits, 1)
            y, s = 0.0, 0         # y(s - 1) at the start s of each segment
            want_first, want_n = [], []
            for i0, i1 in frames:
                if cof == 0:
                    n_up, n_dn = i0, i1
                else:
                    y = v_lo + (y - v_lo) * a ** (i0 - s)
                    n_up = i0 + int(np.floor(steps(y, v_hi, th)))
                    y = v_hi + (y - v_hi) * a ** (i1 - i0)
                    n_dn = i1 + int(np.ceil(steps(y, v_lo, th))) - 1
                    s = i1
                # the comb points offset + k spb in [n_up, n_dn)
                k_up, k_dn = -((offset - n_up) // 200), -((offset - n_dn) // 200)
                want_first.append(k_up)
                want_n.append(k_dn - k_up)
            assert len(frames) == 6
            assert first.tolist() == want_first
            assert n_bits.tolist() == want_n
            assert set(want_n) <= {int(length // 10), int(length // 10) + 1}


@st.composite
def _scored_trials(draw):
    """Bits with runs placed about the frames of a trial.

    Frame starts and lengths are whole samples. A frame may get a run aimed
    at its window centre and one aimed halfway to the next centre, where
    the two windows tie, each perhaps moved by a few samples; runs that
    touch merge. So a window can hold no run
    (erased), one, or several (split), one run can span frames (merged),
    and runs can fall outside every window (spurious).
    """
    d_sample = draw(st.sampled_from([1.0, 2.5, 10.0]))
    half = draw(st.booleans())               # a phase of half a sample
    # (ones, shift) of a run, or no run
    run = st.one_of(st.none(), st.tuples(st.integers(1, 6),
                                         st.one_of(st.just(0), st.integers(-3, 3))))
    # per frame: the gap to its start, a run at its centre, a run at the tie
    frames = draw(st.lists(st.tuples(st.integers(2, 16), run, run),
                           min_size=1, max_size=12))
    gaps = np.array([gap for gap, _, _ in frames])
    first = np.cumsum(gaps) - gaps[0]        # frame starts, in samples
    length = draw(st.integers(1, 10))
    bits = np.zeros(int(first[-1]) + length + 8, dtype=np.uint8)
    nxt = np.append(first[1:], first[-1])
    for k, (_, *runs) in enumerate(frames):
        # twice the aim, in samples: the centre, then halfway to the next
        for twice, aimed in zip((2 * first[k], first[k] + nxt[k]), runs):
            if aimed is None:
                continue
            ones, shift = aimed
            # the run's midpoint, phase + s + (ones - 1) / 2, hits the aim
            twice += length - half
            ones += (twice - ones + 1) % 2
            s = max(0, (twice - ones + 1) // 2 + shift)
            bits[s:s + ones] = 1
    difs = d_sample * draw(st.integers(0, 8))
    margin = d_sample * draw(st.integers(0, 2))
    min_run_bits = draw(st.integers(1, 3))
    stream = ws.BitStream(bits=bits, d_sample_us=d_sample,
                          phase_offset_us=d_sample / 2.0 if half else 0.0)
    return (stream, d_sample * length, d_sample * first.astype(float), difs,
            margin, min_run_bits)


class TestScoreTrial:
    @settings(max_examples=400, deadline=None)
    @given(_scored_trials())
    def test_matches_loop(self, case):
        assert _score_trial(*case) == _loop_score_trial(*case)

    def test_equidistant_run_goes_to_the_earlier_frame(self):
        # centres 5 and 15: run A (midpoint 10) is halfway, run B (midpoint
        # 15) sits on frame 1. A counts for frame 0, so both frames are
        # correct; given to frame 1, A would split it and erase frame 0.
        bits = ws.BitStream(bits=np.array([0] * 9 + [1] * 3 + [0] * 2 + [1] * 3
                                          + [0] * 5, dtype=np.uint8),
                            d_sample_us=1.0, phase_offset_us=0.0)
        case = (bits, 3.0, np.array([3.5, 13.5]), 20.0, 0.0, 1)
        assert _loop_score_trial(*case) == _score_trial(*case) == 0


def _video_noise_model(cfg, rate, gap):
    """A^gap and Q_gap of the (video noise, LPF response) state, by direct sums."""
    a = np.exp(-1e6 / (cfg.video_noise_tau_us * rate))
    alpha = lpf_alpha(cfg.cof_hz, rate) if cfg.cof_hz > 0 else 1.0
    step = np.array([[a, 0.0], [alpha * a, 1.0 - alpha]])
    b = cfg.video_noise_sigma_v * np.sqrt(1.0 - a * a) * np.array([1.0, alpha])
    power, cov = np.eye(2), np.zeros((2, 2))
    for _ in range(gap):
        cov += power @ np.outer(b, b) @ power.T
        power = step @ power
    return power, cov


def _zero_input_decisions(cfg, n, seed):
    """Decision voltages of a zero-input square-law stream: the comb noise.

    The detector adds exactly 0, so the n decisions are the comb noise that
    the stream draws from seed, in its decisions' dtype (float32 at COF 0).
    It is drawn alone (_comb_noise), without the n * 200 samples of zeros,
    and a stream pushed 100 decisions of zeros gives its prefix.
    """
    noise = _comb_noise(cfg, 20e6, np.random.default_rng(seed), 0, n)
    head = ReceiverStream(cfg, 20e6, np.random.default_rng(seed)).push(
        np.zeros(100 * 200, dtype=np.float32))
    noise = noise.astype(head.dtype)
    np.testing.assert_array_equal(head, noise[:head.size])
    return noise.astype(np.float64)


COMB_COFS = (0.0, 48.2e3, 159e3)
# (cof, gap): the decision comb, and every sample (gap 1)
COMB_CASES = ([pytest.param(cof, 200, id=str(cof)) for cof in COMB_COFS]
              + [pytest.param(cof, 1, id=f"gap1-{cof}") for cof in COMB_COFS])


class TestCombVideoNoise:
    """The LPF response to the video noise, drawn on the decision comb."""

    @staticmethod
    def _cfg(cof, **kwargs):
        # square law with zero input and no LNA: the detector adds exactly 0
        return ws.ReceiverConfig(detector_model="square_law_linear",
                                 lna_gain_db=0.0, cof_hz=cof, **kwargs)

    @pytest.mark.parametrize("cof, gap", COMB_CASES)
    def test_variance_and_lag1_match_stationary_covariance(self, cof, gap):
        if gap == 1:
            # every sample, read through filtered_voltage; the 2 us time
            # constant of the KS test lets the 400-lag sums below converge
            cfg = self._cfg(cof, video_noise_tau_us=2.0)
            n, skip = 1_000_000, 2000
            zero = ws.EnvelopeTrace(samples=np.zeros(n + skip), sample_rate_hz=20e6)
            y = filtered_voltage(zero, cfg, rng_seed=int(cof) + 2).samples[skip:]
        else:
            cfg = self._cfg(cof)
            n = 120_000
            y = _zero_input_decisions(cfg, n + 20, seed=int(cof) + 1)[20:]
        step, cov = _video_noise_model(cfg, 20e6, gap)
        p = solve_discrete_lyapunov(step, cov)
        # autocovariance of y at multiples of the gap: [step^k P]_yy
        gamma = []
        m = p
        for _ in range(400):
            gamma.append(m[1, 1])
            m = step @ m
        gamma = np.array(gamma)
        rho = gamma / gamma[0]
        # asymptotic standard errors for a Gaussian autocorrelated series:
        # sample variance (2/n) sum_k gamma_k^2, lag-1 autocorrelation by
        # Bartlett's formula
        se_var = np.sqrt(2.0 / n * (gamma[0] ** 2 + 2.0 * np.sum(gamma[1:] ** 2)))
        k = np.arange(1, rho.size - 1)
        se_rho1 = np.sqrt(np.sum((rho[k + 1] + rho[k - 1]
                                  - 2.0 * rho[1] * rho[k]) ** 2) / n)
        var = np.mean((y - y.mean()) ** 2)
        rho1 = np.corrcoef(y[1:], y[:-1])[0, 1]
        assert abs(var - gamma[0]) < 5.0 * se_var
        assert abs(rho1 - rho[1]) < 5.0 * se_rho1

    @pytest.mark.parametrize("cof", COMB_COFS)
    def test_matches_full_rate_path_ks(self, cof):
        # A 2 us video-noise time constant keeps 10 us-spaced decisions
        # nearly independent (lag-1 correlation e^-5), as the KS test needs,
        # while the full-rate reference stays affordable.
        cfg = self._cfg(cof, video_noise_tau_us=2.0)
        n = 100_000
        comb = _zero_input_decisions(cfg, n + 10, seed=21)[10:]
        rng = np.random.default_rng(22)
        alpha = lpf_alpha(cof, 20e6) if cof > 0 else None
        state, zi, ref = None, 0.0, []
        per_chunk = 10_000
        for _ in range((n + 10) // per_chunk + 1):
            x, state = video_noise_ar1(per_chunk * 200, cfg.video_noise_sigma_v,
                                       cfg.video_noise_tau_us, 20e6, rng, zi=state)
            if alpha is not None:
                x, zi = rc_lpf_array(x, alpha, zi)
            ref.append(x[::200])
        ref = np.concatenate(ref)[10:n + 10]
        assert ks_2samp(comb, ref).pvalue > 1e-3

    @pytest.mark.parametrize("n", [1, 7, 22_000])
    @pytest.mark.parametrize("offset", [0, 37, 199])
    def test_cof0_equals_two_pass_formula(self, offset, n):
        # at COF 0 _comb_noise skips the second filter; the bytes are those
        # of both
        cfg = self._cfg(0.0)
        got = _comb_noise(cfg, 20e6, np.random.default_rng(27), offset, n)
        rng = np.random.default_rng(27)
        sigma = cfg.video_noise_sigma_v
        a = float(np.exp(-1e6 / (cfg.video_noise_tau_us * 20e6)))
        params = (a, 1.0, sigma * float(np.sqrt(1.0 - a * a)))
        x, y = sigma * float(rng.standard_normal()), 0.0
        z = rng.standard_normal((n, 2))
        ref = []
        for gap, zs in ((offset + 1, z[:1]), (200, z[1:])):
            if not zs.size:
                continue
            p, r, q, l11, l21, l22 = _comb_step(*params, gap)
            # q is exactly 0; l22 only to rounding, so its term stays
            assert q == 0.0 and abs(l22) < 1e-6 * l11
            xs, _ = lfilter([1.0], [1.0, -p], l11 * zs[:, 0], zi=[p * x])
            ys, _ = lfilter([1.0], [1.0, -q],
                            r * np.r_[x, xs[:-1]] + l21 * zs[:, 0] + l22 * zs[:, 1],
                            zi=[q * y])
            x, y = float(xs[-1]), float(ys[-1])
            ref.append(ys)
        np.testing.assert_array_equal(got, np.concatenate(ref))

    @pytest.mark.parametrize("offset", [0, 37, 199, 200])
    def test_take_steps_offset_plus_one_then_spb(self, offset):
        # _comb_noise against the state recursion written out reading by
        # reading, from the direct-sum model: offset + 1 samples from the
        # stationary start at sample -1 to the first reading, then 200 to
        # each next one
        cfg = self._cfg(159e3)
        n = 12
        got = _comb_noise(cfg, 20e6, np.random.default_rng(26), offset, n)
        rng = np.random.default_rng(26)
        x, y = cfg.video_noise_sigma_v * rng.standard_normal(), 0.0
        ref = []
        for k, (z0, z1) in enumerate(rng.standard_normal((n, 2))):
            step, cov = _video_noise_model(cfg, 20e6, offset + 1 if k == 0 else 200)
            # the lower Cholesky factor; at gap 1 cov has rank 1
            l11 = np.sqrt(cov[0, 0])
            l21 = cov[1, 0] / l11
            l22 = np.sqrt(max(cov[1, 1] - l21 * l21, 0.0))
            x, y = (step[0, 0] * x + l11 * z0,
                    step[1, 0] * x + step[1, 1] * y + l21 * z0 + l22 * z1)
            ref.append(y)
        np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-12)

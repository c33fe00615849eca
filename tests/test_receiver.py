import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wakesim as ws
from wakesim.errors import ConfigurationError
from wakesim.receiver import (ReceiverStream, _samples_per_bit, filtered_voltage,
                              lpf_alpha, rc_lpf_array)
from wakesim.units import db_to_linear, dbm_to_mw

RATE = 20e6


def _trace(samples, rate=RATE):
    return ws.EnvelopeTrace(samples=np.asarray(samples, dtype=float),
                            sample_rate_hz=rate)


def _vtrace(samples, rate=RATE):
    return ws.VoltageTrace(samples=np.asarray(samples, dtype=float),
                           sample_rate_hz=rate)


class TestDetector:
    def test_log_detector_affine_point(self):
        cfg = ws.ReceiverConfig(log_slope_v_per_db=0.02, log_intercept_v=2.0)
        out = ws.detector_response(_trace([dbm_to_mw(-50.0)]), cfg)
        assert out.samples[0] == pytest.approx(1.0, abs=1e-12)

    def test_square_law_unit_gain(self):
        cfg = ws.ReceiverConfig(detector_model="square_law_linear", square_law_k=1.0)
        out = ws.detector_response(_trace([1.0]), cfg)
        assert out.samples[0] == 1.0

    def test_log_detector_clamps_at_floor(self):
        cfg = ws.ReceiverConfig(log_floor_dbm=-92.0)
        out = ws.detector_response(_trace([0.0, dbm_to_mw(-120.0)]), cfg)
        clamp_v = 0.02 * -92.0 + 2.0
        assert np.all(out.samples == pytest.approx(clamp_v))

    @settings(max_examples=50)
    @given(st.lists(st.floats(min_value=0, max_value=1e3), min_size=2, max_size=50),
           st.sampled_from(["log_detector", "square_law_linear"]))
    def test_monotone_in_input_power(self, powers, model):
        cfg = ws.ReceiverConfig(detector_model=model)
        out = ws.detector_response(_trace(powers, rate=1e6), cfg)
        order = np.argsort(powers, kind="stable")
        assert np.all(np.diff(out.samples[order]) >= -1e-12)

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigurationError):
            ws.ReceiverConfig(detector_model="envelope")

    @pytest.mark.parametrize("model", ["log_detector", "square_law_linear"])
    def test_float32_input_stays_float32(self, model):
        cfg = ws.ReceiverConfig(detector_model=model)
        p = np.array([0.0, 1e-12, 1e-9, 1e-3], dtype=np.float32)
        out = cfg.detector_voltage(p)
        assert out.dtype == np.float32
        np.testing.assert_allclose(out, cfg.detector_voltage(p.astype(float)),
                                   rtol=1e-6)
        assert cfg.detector_voltage(p.astype(int)).dtype == np.float64

    def test_scalar_input_gives_scalar(self):
        out = ws.ReceiverConfig().detector_voltage(0.0)
        assert np.ndim(out) == 0
        assert out == pytest.approx(0.02 * -92.0 + 2.0)


def _lpf(x, cof):
    """The stream's LPF kernel from a zero state, at the internal rate."""
    y, _ = rc_lpf_array(np.asarray(x, dtype=float), lpf_alpha(cof, RATE))
    return y


class TestRcLpf:
    def test_step_response_at_tau(self):
        cof = 159e3
        tau_samples = int(round(RATE / (2 * np.pi * cof)))
        out = _lpf(np.ones(10 * tau_samples), cof)
        # y[n] = 1 - e^{-(n+1) dt/tau}; allow one sample of slack
        assert out[tau_samples - 1] == pytest.approx(1 - np.e ** -1, abs=0.01)
        assert out[-1] == pytest.approx(1.0, abs=1e-3)

    def test_bypass_is_identity(self):
        # COF 0, unit square law, 0 dB LNA, no video noise: the chain output
        # is exactly its input
        x = np.random.default_rng(0).uniform(size=1000)
        cfg = ws.ReceiverConfig(detector_model="square_law_linear",
                                lna_gain_db=0.0, cof_hz=0.0,
                                video_noise_sigma_v=0.0)
        out = filtered_voltage(_trace(x), cfg)
        np.testing.assert_array_equal(out.samples, x)

    def test_dc_gain_is_unity(self):
        out = _lpf(np.full(200_000, 0.37), 48.2e3)
        assert out[-1] == pytest.approx(0.37, rel=1e-6)

    @pytest.mark.parametrize("cof", [48.2e3, 159e3, 1590e3])
    def test_minus_3db_at_cutoff(self, cof):
        # steady-state amplitude of a sinusoid at f = cof drops to 1/sqrt(2)
        n_per = RATE / cof
        n = int(60 * n_per)
        t = np.arange(n) / RATE
        x = 1.0 + 0.5 * np.sin(2 * np.pi * cof * t)
        out = _lpf(x, cof)
        tail = out[int(20 * n_per):]
        amp = (tail.max() - tail.min()) / 2.0
        assert amp / 0.5 == pytest.approx(1 / np.sqrt(2), rel=0.02)

    def test_linearity(self):
        rng = np.random.default_rng(1)
        x, y = rng.normal(size=5000), rng.normal(size=5000)
        a, b = 2.5, -0.7
        lhs = _lpf(a * x + b * y, 159e3)
        rhs = a * _lpf(x, 159e3) + b * _lpf(y, 159e3)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_negative_cof_rejected(self):
        with pytest.raises(ConfigurationError):
            ws.ReceiverConfig(cof_hz=-1.0)


BLOCK_COFS = (15.9e3, 48.2e3, 159e3, 482e3)
SPB = 200


def _block_input(dtype):
    """20 ms of input power: exponential noise with a -85 dBm frame in it."""
    rng = np.random.default_rng(31)
    power = rng.standard_exponential(400_000) * ws.ChannelConfig().noise_floor_mw
    power[120_000:260_000] += dbm_to_mw(-85.0)
    return power.astype(dtype)


def _full_rate_reference(cfg, power):
    """The detector output low-passed at every sample by rc_lpf_array."""
    v = cfg.detector_voltage(power * db_to_linear(cfg.lna_gain_db))
    y, _ = rc_lpf_array(v, lpf_alpha(cfg.cof_hz, RATE))
    return y


class TestBlockLpf:
    """The stream's LPF, formed only at the decisions, against the full rate."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("offset", [0, 37, 199, 200])
    @pytest.mark.parametrize("cof", BLOCK_COFS)
    def test_decisions_match_full_rate_reference(self, cof, offset, dtype):
        cfg = ws.ReceiverConfig(cof_hz=cof, video_noise_sigma_v=0.0)
        power = _block_input(dtype)
        ref = _full_rate_reference(cfg, power)[offset::SPB]
        got = ReceiverStream(cfg, RATE, None, comb_offset=offset).push(power)
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("cof", BLOCK_COFS)
    def test_filtered_voltage_matches_full_rate_reference(self, cof):
        # d_sample of one sample period: every sample is a decision
        cfg = ws.ReceiverConfig(cof_hz=cof, video_noise_sigma_v=0.0)
        power = _block_input(np.float64)
        out = filtered_voltage(_trace(power), cfg).samples
        np.testing.assert_allclose(out, _full_rate_reference(cfg, power),
                                   rtol=0.0, atol=1e-14)


def _ideal_pulse_voltage(duration_us, lead_us=20.0, tail_us=20.0, high=1.0):
    n_lead = int(lead_us * 20)
    n_on = int(duration_us * 20)
    n_tail = int(tail_us * 20)
    v = np.concatenate([np.zeros(n_lead), np.full(n_on, high), np.zeros(n_tail)])
    return _vtrace(v)


class TestSampleAndThreshold:
    CFG = ws.ReceiverConfig(detector_model="square_law_linear",
                            video_noise_sigma_v=0.0, cof_hz=0.0, threshold_v=0.5)

    def test_all_zero_voltage(self):
        bits = ws.sample_and_threshold(_vtrace(np.zeros(20_000)), self.CFG)
        assert bits.bits.sum() == 0

    def test_constant_above_threshold_800us(self):
        v = _vtrace(np.ones(int(800 * 20)))
        bits = ws.sample_and_threshold(v, self.CFG)
        assert bits.bits.sum() == 80
        assert len(bits) == 80

    def test_bit_count_is_ceiling(self):
        v = _vtrace(np.zeros(int(795 * 20)))
        assert len(ws.sample_and_threshold(v, self.CFG)) == 80

    def test_phase_sweep_run_length_bounds(self):
        # ideal 800 us pulse: any sampling phase gives a run of 79, 80, or 81
        v = _ideal_pulse_voltage(800.0, lead_us=20.37)
        runs = set()
        for k in range(200):
            bits = ws.sample_and_threshold(v, self.CFG, phase_offset_us=k * 0.05)
            frames = ws.extract_runs(bits)
            assert len(frames) == 1
            runs.add(frames[0].run_length_bits)
        assert runs <= {79, 80, 81}

    def test_phase_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            ws.sample_and_threshold(_vtrace(np.zeros(100)), self.CFG,
                                    phase_offset_us=10.0)

    def test_missing_threshold_rejected(self):
        cfg = ws.ReceiverConfig(threshold_v=None)
        with pytest.raises(ConfigurationError):
            ws.sample_and_threshold(_vtrace(np.zeros(100)), cfg)

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(5)
        v = _vtrace(rng.exponential(size=100_000))
        ones = []
        for thr in (0.5, 1.0, 2.0, 4.0):
            cfg = ws.ReceiverConfig(detector_model="square_law_linear",
                                    cof_hz=0.0, threshold_v=thr,
                                    video_noise_sigma_v=0.0)
            ones.append(ws.sample_and_threshold(v, cfg).bits.sum())
        assert all(a >= b for a, b in zip(ones, ones[1:]))

    @pytest.mark.parametrize("model,threshold", [("square_law_linear", 0.5),
                                                 ("log_detector", 1.0)])
    def test_one_comb_with_receive(self, model, threshold):
        # at COF 0 and 0 dB LNA the slicer reads exactly the decisions of
        # receive, the bit count included, at every internal-rate phase
        cfg = ws.ReceiverConfig(detector_model=model, cof_hz=0.0, lna_gain_db=0.0,
                                video_noise_sigma_v=0.0, threshold_v=threshold)
        sched = ws.build_tx_schedule([ws.FrameSpec(12)], cw=1, rng_seed=0)
        trace = ws.synthesize_envelope(sched, 0.0, lead_us=21.35, tail_us=40.0)
        volts = ws.detector_response(trace, cfg)
        for k in range(SPB):
            phase = k * 0.05
            np.testing.assert_array_equal(
                ws.sample_and_threshold(volts, cfg, phase_offset_us=phase).bits,
                ws.receive(trace, cfg, phase_offset_us=phase).bits)


class TestReceive:
    def _strong_trace(self, cof_bypass=True):
        sched = ws.build_tx_schedule([ws.FrameSpec(12)], cw=1, rng_seed=0)
        return ws.synthesize_envelope(sched, -30.0, lead_us=100.0, tail_us=100.0)

    def test_noiseless_strong_signal_bypass(self):
        trace = self._strong_trace()
        cfg = ws.ReceiverConfig(cof_hz=0.0, video_noise_sigma_v=0.0,
                                threshold_v=1.0)
        bits = ws.receive(trace, cfg)
        frames = ws.extract_runs(bits)
        assert len(frames) == 1
        assert abs(frames[0].run_length_bits - 80) <= 1

    def test_lpf_edges_are_exponential_not_step(self):
        # post-LPF rising and falling edges pass through intermediate values
        trace = self._strong_trace()
        cfg = ws.ReceiverConfig(cof_hz=159e3, video_noise_sigma_v=0.0)
        v = filtered_voltage(trace, cfg).samples
        floor_v = v[10]
        plateau = v[int(500 * 20)]
        rising = v[int(100 * 20) + 4: int(100 * 20) + 40]
        falling = v[int(900 * 20) + 4: int(900 * 20) + 40]
        assert np.all(rising > floor_v + 1e-3) and np.all(rising < plateau - 1e-3)
        assert np.all(falling > floor_v + 1e-3) and np.all(falling < plateau - 1e-3)
        # bypass edges jump within one sample
        v0 = filtered_voltage(trace, ws.ReceiverConfig(cof_hz=0.0,
                                                       video_noise_sigma_v=0.0)).samples
        assert v0[int(100 * 20) + 1] == pytest.approx(plateau, abs=1e-6)

    def test_noise_only_false_alarm_rate(self, channel, calibrated):
        cfg = calibrated[159e3]
        idle = ws.EnvelopeTrace(samples=np.zeros(10_000_000), sample_rate_hz=20e6)
        trace = ws.add_noise(idle, channel, rng_seed=60)
        bits = ws.receive(trace, cfg, rng_seed=61)
        p10 = bits.bits[100:].mean()
        assert 3e-4 < p10 < 3e-3

    def test_deterministic(self):
        trace = self._strong_trace()
        cfg = ws.ReceiverConfig(threshold_v=1.0)
        a = ws.receive(trace, cfg, phase_offset_us=3.0, rng_seed=5)
        b = ws.receive(trace, cfg, phase_offset_us=3.0, rng_seed=5)
        np.testing.assert_array_equal(a.bits, b.bits)

    def test_bit_count_at_phase_offset(self):
        # 20_050 samples, spb 200, phase 3 us -> comb offset 60: decisions at
        # 60, 260, ..., 19_860 inside the trace, ceil((20_050 - 60) / 200)
        cfg = ws.ReceiverConfig(cof_hz=0.0, video_noise_sigma_v=0.0,
                                threshold_v=1.0)
        trace = ws.EnvelopeTrace(samples=np.zeros(20_050), sample_rate_hz=20e6)
        bits = ws.receive(trace, cfg, phase_offset_us=3.0)
        assert len(bits) == 100
        assert bits.phase_offset_us == 3.0

    @pytest.mark.parametrize("cof", [0.0, 159e3])
    @pytest.mark.parametrize("offset", [0, 37])
    def test_same_seed_gives_common_prefix(self, cof, offset):
        # the decisions of a shorter input are a prefix of a longer one's,
        # video noise included: the common random numbers of the frame trials;
        # at the comb's edges a trace of offset samples has no decision, one
        # more sample gives the first, spb more the second
        cfg = ws.ReceiverConfig(detector_model="square_law_linear", cof_hz=cof)

        def decisions(n):
            rng = np.random.default_rng(np.random.SeedSequence(41))
            stream = ReceiverStream(cfg, RATE, rng, comb_offset=offset)
            return stream.push(np.zeros(n, dtype=np.float32))

        short, long = decisions(30_123), decisions(81_000)
        assert 0 < short.size < long.size
        np.testing.assert_array_equal(short, long[:short.size])
        for n, count in ((offset, 0), (offset + 1, 1), (offset + SPB, 1),
                         (offset + SPB + 1, 2)):
            edge = decisions(n)
            assert edge.size == count
            np.testing.assert_array_equal(edge, long[:count])

    def test_bit_count_covers_trace(self):
        trace = self._strong_trace()
        cfg = ws.ReceiverConfig(threshold_v=1.0)
        bits = ws.receive(trace, cfg)
        assert len(bits) == int(np.ceil(trace.duration_us / cfg.d_sample_us))


class TestSamplesPerBit:
    @pytest.mark.parametrize("d_sample_us", [1e-11, 0.04])
    def test_under_one_sample_rejected(self, d_sample_us):
        # 1e-11 us is 2e-10 samples, within rounding of 0 samples per bit
        cfg = ws.ReceiverConfig(d_sample_us=d_sample_us, threshold_v=1.0)
        with pytest.raises(ConfigurationError, match="^d_sample_us "):
            _samples_per_bit(cfg, RATE)
        with pytest.raises(ConfigurationError, match="^d_sample_us "):
            ReceiverStream(cfg, RATE, None)

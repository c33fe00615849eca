import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

import wakesim as ws
from wakesim.errors import ConfigurationError
from wakesim.montecarlo import signal_decision_voltages


class TestFrameDuration:
    def test_reference_payload_points(self):
        assert ws.frame_duration(12) == 800.0
        assert ws.frame_duration(37) == 1000.0

    def test_short_frame(self):
        # 192 + 8 * (64 + 2) = 720 by hand
        assert ws.frame_duration(2) == 720.0

    def test_zero_payload(self):
        assert ws.frame_duration(0) == 704.0

    @given(st.integers(min_value=0, max_value=10_000))
    def test_affine_with_8us_per_byte(self, payload):
        assert ws.frame_duration(payload + 1) - ws.frame_duration(payload) == 8.0

    def test_rejects_negative_payload(self):
        with pytest.raises(ConfigurationError):
            ws.frame_duration(-1)

    def test_rejects_unsupported_rate(self):
        with pytest.raises(ConfigurationError):
            ws.frame_duration(12, phy_rate=2e6)

    @given(st.integers(min_value=0, max_value=5000))
    def test_payload_inversion_roundtrip(self, payload):
        assert ws.payload_for_duration(ws.frame_duration(payload)) == payload

    def test_unachievable_duration_rejected(self):
        with pytest.raises(ConfigurationError):
            ws.payload_for_duration(723.0)


class TestEnvelopeTrace:
    @pytest.mark.parametrize("bad", [np.nan, -1e-12, -np.inf])
    def test_rejects_nan_and_negative_power(self, bad):
        samples = np.ones(1000)
        samples[500] = bad
        with pytest.raises(ConfigurationError):
            ws.EnvelopeTrace(samples=samples, sample_rate_hz=20e6)

    @pytest.mark.parametrize("rate", [0.0, -20e6, np.nan, np.inf])
    def test_rejects_bad_sample_rate(self, rate):
        with pytest.raises(ConfigurationError, match="sample_rate_hz"):
            ws.EnvelopeTrace(samples=np.ones(10), sample_rate_hz=rate)

    def test_accepts_zero_and_positive_power(self):
        trace = ws.EnvelopeTrace(samples=np.array([0.0, 1e-12, 5.0]),
                                 sample_rate_hz=20e6)
        assert trace.samples.size == 3


class TestTxSchedule:
    def test_cw1_gaps_are_exactly_difs(self):
        frames = [ws.FrameSpec(12)] * 10
        sched = ws.build_tx_schedule(frames, cw=1, rng_seed=0)
        for (t0, f0), (t1, _) in zip(sched.events, sched.events[1:]):
            assert t1 - (t0 + f0.duration_us) == 50.0

    def test_single_frame_at_origin(self):
        sched = ws.build_tx_schedule([ws.FrameSpec(12)], cw=4, rng_seed=1)
        assert sched.events == ((0.0, ws.FrameSpec(12)),)

    def test_backoff_uniform_chi_square(self):
        # 1e4 gaps with cw=32 should be uniform over the 32 slot values
        frames = [ws.FrameSpec(0)] * 10_001
        sched = ws.build_tx_schedule(frames, cw=32, rng_seed=42)
        gaps = [t1 - (t0 + f0.duration_us)
                for (t0, f0), (t1, _) in zip(sched.events, sched.events[1:])]
        slots = np.round((np.array(gaps) - 50.0) / 20.0).astype(int)
        assert slots.min() >= 0 and slots.max() <= 31
        counts = np.bincount(slots, minlength=32)
        assert stats.chisquare(counts).pvalue > 0.01

    def test_deterministic_given_seed(self):
        frames = [ws.FrameSpec(12)] * 50
        a = ws.build_tx_schedule(frames, cw=16, rng_seed=7)
        b = ws.build_tx_schedule(frames, cw=16, rng_seed=7)
        assert a.events == b.events

    def test_never_violates_difs(self):
        for seed in range(5):
            sched = ws.build_tx_schedule([ws.FrameSpec(5)] * 40, cw=8, rng_seed=seed)
            for (t0, f0), (t1, _) in zip(sched.events, sched.events[1:]):
                assert t1 >= t0 + f0.duration_us + 50.0

    def test_empty_frames_rejected(self):
        with pytest.raises(ConfigurationError):
            ws.build_tx_schedule([], cw=1)


def _one_frame_schedule(payload=12):
    return ws.build_tx_schedule([ws.FrameSpec(payload)], cw=1, rng_seed=0)


class TestSynthesizeEnvelope:
    def test_constant_model_is_exact(self):
        trace = ws.synthesize_envelope(_one_frame_schedule(), 0.0,
                                       waveform_model="dsss_constant",
                                       lead_us=50.0, tail_us=50.0)
        per_us = trace.sample_rate_hz / 1e6
        i0, i1 = int(50 * per_us), int((50 + 800) * per_us)
        assert np.all(trace.samples[i0:i1] == 1.0)
        assert np.all(trace.samples[:i0] == 0.0)
        assert np.all(trace.samples[i1:] == 0.0)

    def test_rayleigh_model_exponential_law(self):
        # one long frame gives 1e6+ in-frame samples
        sched = ws.build_tx_schedule([ws.FrameSpec(6236)], cw=1, rng_seed=0)
        trace = ws.synthesize_envelope(sched, 0.0, waveform_model="ofdm_rayleigh",
                                       rng_seed=3)
        s = trace.samples[trace.samples > 0]
        assert s.size > 990_000
        assert abs(s.mean() - 1.0) < 0.01
        assert abs(s.var() / s.mean() ** 2 - 1.0) < 0.03  # exponential: var = mean^2

    def test_ripple_model_preserves_mean_power(self):
        sched = ws.build_tx_schedule([ws.FrameSpec(24726)], cw=1, rng_seed=0)  # 200 ms
        trace = ws.synthesize_envelope(sched, 0.0, waveform_model="dsss_ripple",
                                       rng_seed=4, ripple_sigma_db=1.5,
                                       ripple_tau_us=2.0)
        s = trace.samples[: int(sched.end_us * 20)]
        assert abs(s.mean() - 1.0) < 0.01

    @pytest.mark.parametrize("model", ["dsss_constant", "dsss_ripple", "ofdm_rayleigh"])
    def test_energy_conservation(self, model):
        frames = [ws.FrameSpec(800), ws.FrameSpec(2000), ws.FrameSpec(1200)]
        sched = ws.build_tx_schedule(frames, cw=4, rng_seed=9)
        trace = ws.synthesize_envelope(sched, 3.0, waveform_model=model,
                                       rng_seed=11, ripple_tau_us=2.0,
                                       tail_us=20.0)
        dt_us = 1e6 / trace.sample_rate_hz
        energy = trace.samples.sum() * dt_us
        expected = sum(f.duration_us for _, f in sched.events) * ws.units.dbm_to_mw(3.0)
        assert abs(energy / expected - 1.0) < 0.01

    def test_gap_region_exactly_zero(self):
        sched = ws.build_tx_schedule([ws.FrameSpec(12), ws.FrameSpec(12)],
                                     cw=1, rng_seed=0)
        trace = ws.synthesize_envelope(sched, 0.0, waveform_model="ofdm_rayleigh",
                                       rng_seed=2)
        per_us = trace.sample_rate_hz / 1e6
        gap = trace.samples[int(801 * per_us):int(849 * per_us)]
        assert np.all(gap == 0.0)

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigurationError):
            ws.synthesize_envelope(_one_frame_schedule(), 0.0, waveform_model="qam")

    def test_nonfinite_power_rejected(self):
        with pytest.raises(ConfigurationError):
            ws.synthesize_envelope(_one_frame_schedule(), float("inf"))

    @pytest.mark.parametrize("value", [-100.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("name", ["lead_us", "tail_us"])
    @pytest.mark.parametrize("entry", [
        lambda **kw: ws.synthesize_envelope(
            _one_frame_schedule(), -60.0, waveform_model="dsss_ripple",
            rng_seed=1, **kw),
        lambda **kw: ws.count_distribution(
            ws.FrameSpec(12), -60.0, ws.Cc2420Config(), n_frames=2,
            rng_seed=1, **kw),
    ], ids=["synthesize_envelope", "count_distribution"])
    def test_bad_lead_or_tail_rejected(self, entry, name, value):
        # unchecked, a negative lead leaves the trace all zero and a negative
        # tail cuts the frame short
        with pytest.raises(ConfigurationError, match=name):
            entry(**{name: value})

    @pytest.mark.parametrize("name, value", [
        ("ripple_tau_us", -10.0), ("ripple_tau_us", 0.0),
        ("ripple_tau_us", float("nan")), ("ripple_tau_us", float("inf")),
        ("ripple_sigma_db", -1.0), ("ripple_sigma_db", float("nan")),
        ("ripple_sigma_db", float("inf"))])
    @pytest.mark.parametrize("entry", [
        lambda **kw: ws.synthesize_envelope(
            _one_frame_schedule(), -60.0, waveform_model="dsss_ripple",
            rng_seed=1, **kw),
        lambda **kw: signal_decision_voltages(
            ws.ReceiverConfig(), ws.ChannelConfig(), -90.0, 1000, rng_seed=1,
            waveform="dsss_ripple", **kw),
    ], ids=["synthesize_envelope", "signal_decision_voltages"])
    def test_bad_ripple_rejected(self, entry, name, value):
        # unchecked, the stream gave all-NaN decisions (so p(0|1) read 0) and
        # the envelope failed on its NaN powers without naming the argument
        with pytest.raises(ConfigurationError, match=name):
            entry(**{name: value})

import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

import wakesim as ws
from wakesim import framing, montecarlo, phy, units
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
                                       lead_us=50.0, tail_us=50.0)
        per_us = trace.sample_rate_hz / 1e6
        i0, i1 = int(50 * per_us), int((50 + 800) * per_us)
        assert np.all(trace.samples[i0:i1] == 1.0)
        assert np.all(trace.samples[:i0] == 0.0)
        assert np.all(trace.samples[i1:] == 0.0)

    def test_energy_conservation(self):
        frames = [ws.FrameSpec(800), ws.FrameSpec(2000), ws.FrameSpec(1200)]
        sched = ws.build_tx_schedule(frames, cw=4, rng_seed=9)
        trace = ws.synthesize_envelope(sched, 3.0, tail_us=20.0)
        dt_us = 1e6 / trace.sample_rate_hz
        energy = trace.samples.sum() * dt_us
        expected = sum(f.duration_us for _, f in sched.events) * ws.units.dbm_to_mw(3.0)
        assert abs(energy / expected - 1.0) < 0.01

    def test_gap_region_exactly_zero(self):
        sched = ws.build_tx_schedule([ws.FrameSpec(12), ws.FrameSpec(12)],
                                     cw=1, rng_seed=0)
        trace = ws.synthesize_envelope(sched, 0.0)
        per_us = trace.sample_rate_hz / 1e6
        gap = trace.samples[int(801 * per_us):int(849 * per_us)]
        assert np.all(gap == 0.0)

    def test_rng_seed_is_not_read(self):
        # the constant envelope draws nothing, whatever seed is passed
        a = ws.synthesize_envelope(_one_frame_schedule(), -60.0, rng_seed=1,
                                   lead_us=20.0, tail_us=20.0)
        b = ws.synthesize_envelope(_one_frame_schedule(), -60.0, rng_seed=2,
                                   lead_us=20.0, tail_us=20.0)
        assert np.array_equal(a.samples, b.samples)

    @pytest.mark.parametrize("rng_seed", [
        0, 7, np.random.SeedSequence(5), np.random.default_rng(3)],
        ids=["int-0", "int-7", "SeedSequence", "Generator"])
    def test_any_rng_seed_gives_the_unseeded_envelope(self, rng_seed):
        ref = ws.synthesize_envelope(_one_frame_schedule(), -60.0,
                                     lead_us=20.0, tail_us=20.0)
        trace = ws.synthesize_envelope(_one_frame_schedule(), -60.0,
                                       rng_seed=rng_seed, lead_us=20.0,
                                       tail_us=20.0)
        assert np.array_equal(trace.samples, ref.samples)

    @pytest.mark.parametrize("tx_power_dbm", [-90.0, -60.0, 3.0, 20.0])
    def test_in_frame_power_is_tx_power(self, tx_power_dbm):
        trace = ws.synthesize_envelope(_one_frame_schedule(), tx_power_dbm,
                                       lead_us=30.0, tail_us=30.0)
        per_us = trace.sample_rate_hz / 1e6
        i0, i1 = int(30 * per_us), int((30 + 800) * per_us)
        assert np.all(trace.samples[i0:i1] == ws.units.dbm_to_mw(tx_power_dbm))
        assert np.count_nonzero(trace.samples) == i1 - i0

    def test_nonfinite_power_rejected(self):
        with pytest.raises(ConfigurationError):
            ws.synthesize_envelope(_one_frame_schedule(), float("inf"))

    @pytest.mark.parametrize("value", [-100.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("name", ["lead_us", "tail_us"])
    @pytest.mark.parametrize("entry", [
        lambda **kw: ws.synthesize_envelope(_one_frame_schedule(), -60.0, **kw),
        lambda **kw: ws.count_distribution(
            ws.FrameSpec(12), -60.0, ws.Cc2420Config(), n_frames=2,
            rng_seed=1, **kw),
    ], ids=["synthesize_envelope", "count_distribution"])
    def test_bad_lead_or_tail_rejected(self, entry, name, value):
        # unchecked, a negative lead leaves the trace all zero and a negative
        # tail cuts the frame short
        with pytest.raises(ConfigurationError, match=name):
            entry(**{name: value})


class TestOneTransmitEnvelope:
    """Only the constant 1 Mbps DSSS envelope is modeled: nothing selects
    another waveform, rate or preamble."""

    @pytest.mark.parametrize("entry, key, value", [
        (lambda **kw: ws.synthesize_envelope(_one_frame_schedule(), 0.0, **kw),
         "waveform_model", "dsss_ripple"),
        (lambda **kw: ws.synthesize_envelope(_one_frame_schedule(), 0.0, **kw),
         "ripple_sigma_db", 1.0),
        (lambda **kw: ws.synthesize_envelope(_one_frame_schedule(), 0.0, **kw),
         "ripple_tau_us", 2.0),
        (lambda **kw: signal_decision_voltages(
            ws.ReceiverConfig(), ws.ChannelConfig(), -90.0, 100, rng_seed=1, **kw),
         "waveform", "ofdm_rayleigh"),
        (lambda **kw: signal_decision_voltages(
            ws.ReceiverConfig(), ws.ChannelConfig(), -90.0, 100, rng_seed=1, **kw),
         "ripple_sigma_db", 1.0),
        (lambda **kw: signal_decision_voltages(
            ws.ReceiverConfig(), ws.ChannelConfig(), -90.0, 100, rng_seed=1, **kw),
         "ripple_tau_us", 2.0),
        (lambda **kw: ws.estimate_p01(
            ws.ReceiverConfig(threshold_v=0.3), ws.ChannelConfig(), -90.0,
            rng_seed=1, n_bits=100, **kw),
         "waveform", "dsss_constant"),
        (lambda **kw: ws.required_power_for_p01(
            ws.ReceiverConfig(threshold_v=0.3), ws.ChannelConfig(), rng_seed=1, **kw),
         "waveform", "dsss_constant"),
        (lambda **kw: ws.ExperimentConfig(**kw), "waveform_model", "dsss_constant"),
        (lambda **kw: ws.FrameSpec(12, **kw), "phy_rate", 1e6),
        (lambda **kw: ws.FrameSpec(12, **kw), "preamble", "long"),
        (lambda **kw: ws.frame_duration(12, **kw), "phy_rate", 1e6),
        (lambda **kw: ws.TxSchedule(((0.0, ws.FrameSpec(12)),), **kw),
         "slot_time_us", 20.0),
        (lambda **kw: ws.TxSchedule(((0.0, ws.FrameSpec(12)),), **kw), "cw", 1),
    ], ids=["synthesize_envelope-waveform_model",
            "synthesize_envelope-ripple_sigma_db",
            "synthesize_envelope-ripple_tau_us",
            "signal_decision_voltages-waveform",
            "signal_decision_voltages-ripple_sigma_db",
            "signal_decision_voltages-ripple_tau_us",
            "estimate_p01-waveform", "required_power_for_p01-waveform",
            "ExperimentConfig-waveform_model", "FrameSpec-phy_rate",
            "FrameSpec-preamble", "frame_duration-phy_rate",
            "TxSchedule-slot_time_us", "TxSchedule-cw"])
    def test_removed_keyword_is_refused(self, entry, key, value):
        # even the one value the keyword used to accept is refused
        with pytest.raises(TypeError, match=key):
            entry(**{key: value})

    @pytest.mark.parametrize("owner, name", [
        (ws, "EdgeDelays"), (framing, "EdgeDelays"),
        (ws.EdgeDelayStats, "trials"), (ws.EnvelopeTrace, "times_us"),
        (ws, "frame_error_batch"), (montecarlo, "frame_error_batch"),
        (phy, "WAVEFORM_MODELS"), (units, "mw_to_dbm")],
        ids=["wakesim.EdgeDelays", "framing.EdgeDelays", "EdgeDelayStats.trials",
             "EnvelopeTrace.times_us", "wakesim.frame_error_batch",
             "montecarlo.frame_error_batch", "phy.WAVEFORM_MODELS",
             "units.mw_to_dbm"])
    def test_removed_name_is_gone(self, owner, name):
        assert not hasattr(owner, name)

    def test_frame_spec_has_only_a_payload_field(self):
        assert [f.name for f in dataclasses.fields(ws.FrameSpec)] == ["payload_bytes"]

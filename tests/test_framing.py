import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wakesim as ws
from wakesim.errors import ConfigurationError, UnboundedDelayError
from wakesim.units import dbm_to_mw


def _bits(seq, d_sample_us=10.0):
    return ws.BitStream(bits=np.asarray(seq, dtype=np.uint8),
                        d_sample_us=d_sample_us)


class TestExtractRuns:
    def test_all_zeros(self):
        assert ws.extract_runs(_bits([0] * 50)) == []

    def test_single_run_of_80(self):
        frames = ws.extract_runs(_bits([0] * 3 + [1] * 80 + [0] * 3))
        assert len(frames) == 1
        assert frames[0].run_length_bits == 80
        assert frames[0].estimated_duration_us == 800.0

    def test_two_runs_split_by_single_zero(self):
        frames = ws.extract_runs(_bits([0] + [1] * 72 + [0] + [1] * 80 + [0]))
        assert [f.run_length_bits for f in frames] == [72, 80]
        assert [f.estimated_duration_us for f in frames] == [720.0, 800.0]

    def test_noise_spikes_are_discarded(self):
        frames = ws.extract_runs(_bits([0, 1, 0, 1, 1, 0] + [1] * 70 + [0, 1, 0]))
        assert [f.run_length_bits for f in frames] == [70]

    def test_min_run_configurable(self):
        frames = ws.extract_runs(_bits([0, 1, 1, 0]), min_run_bits=1)
        assert [f.run_length_bits for f in frames] == [2]

    def test_start_positions_recorded(self):
        frames = ws.extract_runs(_bits([0] * 5 + [1] * 10 + [0] * 5 + [1] * 10))
        assert [f.start_bit for f in frames] == [5, 20]

    @settings(max_examples=50)
    @given(st.lists(st.integers(min_value=3, max_value=30), min_size=0, max_size=8))
    def test_reconstruction_roundtrip(self, run_lengths):
        seq = []
        for n in run_lengths:
            seq += [0] + [1] * n
        seq += [0]
        frames = ws.extract_runs(_bits(seq))
        assert [f.run_length_bits for f in frames] == run_lengths


class TestMatchSymbol:
    def test_margin_window_for_720(self, alphabet):
        # 69..75 consecutive ones all land on the 720 us symbol
        for n in range(69, 76):
            frame = ws.DetectedFrame(run_length_bits=n,
                                     estimated_duration_us=n * 10.0)
            assert ws.match_symbol(frame, alphabet).matched_symbol == 0

    def test_76_bits_is_an_erasure(self, alphabet):
        frame = ws.DetectedFrame(run_length_bits=76, estimated_duration_us=760.0)
        assert ws.match_symbol(frame, alphabet).matched_symbol is None

    def test_100_bits_matches_1000us(self, alphabet):
        frame = ws.DetectedFrame(run_length_bits=100, estimated_duration_us=1000.0)
        assert ws.match_symbol(frame, alphabet).matched_symbol == 2

    def test_overlapping_margin_rejected(self, alphabet):
        with pytest.raises(ConfigurationError):
            ws.Alphabet(symbols=alphabet.symbols, margin_us=40.0)


class TestDifsSeparability:
    def test_fast_decay_is_separable(self):
        assert ws.check_difs_separability(39.0) is True

    def test_159khz_average_is_not(self):
        assert ws.check_difs_separability(47.24) is False

    def test_table_fast_cofs(self):
        assert ws.check_difs_separability(3.3) is True
        assert ws.check_difs_separability(12.76) is True


class TestMeasureEdgeDelays:
    def test_bypass_noiseless_delays_are_zero(self, noiseless_channel):
        cfg = ws.ReceiverConfig(cof_hz=0.0, video_noise_sigma_v=0.0,
                                threshold_v=1.0)
        stats = ws.measure_edge_delays(cfg, -10.2, noiseless_channel, n_trials=3,
                                       rng_seed=1)
        assert stats.d_up_mean <= 0.051
        assert stats.d_down_mean <= 0.051

    def test_unbounded_delay_raises(self, noiseless_channel):
        # threshold above the plateau is never crossed upward
        cfg = ws.ReceiverConfig(cof_hz=0.0, video_noise_sigma_v=0.0,
                                threshold_v=10.0)
        with pytest.raises(UnboundedDelayError):
            ws.measure_edge_delays(cfg, -10.2, noiseless_channel, n_trials=1,
                                   rng_seed=1)

    @pytest.mark.parametrize("cof", [15.9e3, 48.2e3, 159e3, 482e3])
    @pytest.mark.parametrize("frac", [0.2, 0.5, 0.8])
    def test_noiseless_delays_match_closed_form(self, noiseless_channel, cof,
                                                frac):
        # The LPF output relaxes from the floor voltage V_f to the frame-on
        # voltage V_on and back with tau = 1/(2 pi cof), so a threshold T is
        # crossed D_up = tau ln((V_on - V_f)/(V_on - T)) after the frame
        # starts and D_down = tau ln((V_on - V_f)/(T - V_f)) after it ends.
        # The discrete filter has moved one step by the first sample, so the
        # measured delays lie within one sample below the closed form.
        base = ws.ReceiverConfig(cof_hz=cof, video_noise_sigma_v=0.0)
        p_on = dbm_to_mw(-10.2 - noiseless_channel.attenuation_db
                         + base.lna_gain_db)
        v_on = base.detector_voltage(p_on)
        v_f = base.detector_voltage(0.0)
        t = v_f + frac * (v_on - v_f)
        tau_us = 1e6 / (2 * np.pi * cof)
        stats = ws.measure_edge_delays(base.with_threshold(t), -10.2,
                                       noiseless_channel, n_trials=1, rng_seed=1)
        dt_us = 1e6 / noiseless_channel.bandwidth_hz
        for measured, closed in (
                (stats.d_up_us[0], tau_us * np.log((v_on - v_f) / (v_on - t))),
                (stats.d_down_us[0], tau_us * np.log((v_on - v_f) / (t - v_f)))):
            assert closed - dt_us <= measured <= closed

    def test_lpf_increases_decay_delay(self, channel):
        t159 = ws.calibrate_threshold(
            ws.ReceiverConfig(cof_hz=159e3, video_noise_sigma_v=0.0), channel,
            rng_seed=3, n_decisions=200_000)
        slow = ws.measure_edge_delays(
            ws.ReceiverConfig(cof_hz=15.9e3, video_noise_sigma_v=0.0,
                              threshold_v=t159),
            -10.2, channel, n_trials=5, rng_seed=4)
        fast = ws.measure_edge_delays(
            ws.ReceiverConfig(cof_hz=159e3, video_noise_sigma_v=0.0,
                              threshold_v=t159),
            -10.2, channel, n_trials=5, rng_seed=4)
        assert slow.d_down_mean > fast.d_down_mean


class TestGapMergeSplit:
    """Two frames merge into one run iff the gap is shorter than the decay."""

    CFG = ws.ReceiverConfig(detector_model="square_law_linear", cof_hz=20e3,
                            video_noise_sigma_v=0.0, threshold_v=0.01,
                            lna_gain_db=0.0)
    # tau = 7.96 us; decay from 1.0 to 0.01 takes ln(100) * tau = 36.7 us

    def _two_pulse_bits(self, gap_us):
        rate = 20e6
        n_gap = int(gap_us * 20)
        v = np.concatenate([np.zeros(2000), np.ones(int(800 * 20)),
                            np.zeros(n_gap), np.ones(int(800 * 20)),
                            np.zeros(4000)])
        trace = ws.EnvelopeTrace(samples=v, sample_rate_hz=rate)
        return ws.receive(trace, self.CFG)

    def test_wide_gap_gives_two_runs(self):
        frames = ws.extract_runs(self._two_pulse_bits(50.0))
        assert len(frames) == 2

    def test_narrow_gap_merges(self):
        frames = ws.extract_runs(self._two_pulse_bits(25.0))
        assert len(frames) == 1


class TestAsynchronousBound:
    @pytest.mark.parametrize("duration_us", [715.0, 723.4, 800.0, 997.5])
    def test_duration_error_at_most_two_samples(self, duration_us):
        cfg = ws.ReceiverConfig(detector_model="square_law_linear", cof_hz=0.0,
                                video_noise_sigma_v=0.0, threshold_v=0.5,
                                lna_gain_db=0.0)
        n_on = int(round(duration_us * 20))
        v = np.concatenate([np.zeros(447), np.ones(n_on), np.zeros(500)])
        trace = ws.EnvelopeTrace(samples=v, sample_rate_hz=20e6)
        for k in range(0, 200, 7):
            bits = ws.receive(trace, cfg, phase_offset_us=k * 0.05)
            frames = ws.extract_runs(bits)
            assert len(frames) == 1
            err = abs(frames[0].estimated_duration_us - duration_us)
            assert err <= 2 * cfg.d_sample_us

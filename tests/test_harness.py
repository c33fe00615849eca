import numpy as np
import pytest

import wakesim as ws
from wakesim.errors import CalibrationError, ConfigurationError


class TestWilsonInterval:
    def test_brackets_point_estimate(self):
        for k, n in ((0, 100), (1, 100), (50, 100), (100, 100)):
            lo, hi = ws.wilson_interval(k, n)
            assert lo <= k / n <= hi
            assert 0.0 <= lo <= hi <= 1.0

    def test_coverage_meta(self):
        # the 95% interval should cover the true p roughly 95% of the time
        rng = np.random.default_rng(123)
        p, n, reps = 0.3, 200, 500
        covered = 0
        for k in rng.binomial(n, p, size=reps):
            lo, hi = ws.wilson_interval(int(k), n)
            covered += lo <= p <= hi
        assert 0.91 <= covered / reps <= 0.985


class TestCalibrateThreshold:
    def test_noise_disabled_returns_floor(self, noiseless_channel):
        cfg = ws.ReceiverConfig(video_noise_sigma_v=0.0, cof_hz=159e3)
        t = ws.calibrate_threshold(cfg, noiseless_channel, rng_seed=0,
                                   n_decisions=10_000)
        floor_v = cfg.detector_voltage(0.0)
        assert t > floor_v - 1e-6
        assert t == pytest.approx(floor_v, abs=1e-4)
        stats = ws.measure_p10(cfg.with_threshold(t), noiseless_channel,
                               rng_seed=1, n_decisions=10_000)
        assert stats.p10 == 0.0

    def test_bypass_matches_exponential_quantile(self, channel):
        # idealized square-law chain: T such that P(power > T) = 1e-3
        cfg = ws.ReceiverConfig(detector_model="square_law_linear",
                                video_noise_sigma_v=0.0, cof_hz=0.0,
                                lna_gain_db=0.0)
        t = ws.calibrate_threshold(cfg, channel, rng_seed=2)
        analytic = channel.noise_floor_mw * np.log(1000.0)
        assert t == pytest.approx(analytic, rel=0.05)

    def test_lpf_lowers_threshold(self, calibrated):
        assert calibrated[159e3].threshold_v < calibrated[0.0].threshold_v
        assert calibrated[48.2e3].threshold_v < calibrated[159e3].threshold_v

    def test_recalibration_idempotent(self, channel, calibrated):
        stats = ws.measure_p10(calibrated[159e3], channel, rng_seed=33)
        assert 0.5e-3 <= stats.p10 <= 2e-3

    def test_bad_target_rejected(self, channel):
        with pytest.raises(ConfigurationError):
            ws.calibrate_threshold(ws.ReceiverConfig(), channel, target_p10=0.9)


class TestEstimateP01:
    def test_high_power_is_error_free(self, channel, calibrated):
        stats = ws.estimate_p01(calibrated[159e3], channel, -60.0, rng_seed=3,
                                n_bits=200_000)
        assert stats.p01 < 1e-5

    def test_requires_threshold(self, channel):
        with pytest.raises(ConfigurationError):
            ws.estimate_p01(ws.ReceiverConfig(), channel, -60.0)

    def test_p01_monotone_in_cof(self, channel, calibrated):
        # in the transition region smaller COF means fewer misses
        p = {}
        for cof in (0.0, 159e3, 48.2e3):
            p[cof] = ws.estimate_p01(calibrated[cof], channel, -88.0,
                                     rng_seed=4, n_bits=150_000).p01
        assert p[0.0] >= p[159e3] >= p[48.2e3]

    def test_threshold_monotonicity_p01(self, channel, calibrated):
        cfg = calibrated[159e3]
        higher = cfg.with_threshold(cfg.threshold_v + 0.01)
        a = ws.estimate_p01(cfg, channel, -91.0, rng_seed=5, n_bits=100_000).p01
        b = ws.estimate_p01(higher, channel, -91.0, rng_seed=5, n_bits=100_000).p01
        assert b >= a


class TestFrameErrorSweep:
    def test_noiseless_sweep_has_zero_errors(self, noiseless_channel, alphabet):
        cfg = ws.ReceiverConfig(video_noise_sigma_v=0.0, threshold_v=1.0)
        res = ws.frame_error_sweep([720.0, 800.0], [-60.0], cfg,
                                   noiseless_channel, alphabet, n_frames=200,
                                   rng_seed=6)
        for (length, _), stats in res.items():
            assert stats.frame_error_rate[length][0] == 0.0

    def test_alphabet_must_cover_lengths(self, channel, alphabet, calibrated):
        with pytest.raises(ConfigurationError):
            ws.frame_error_sweep([880.0], [-80.0], calibrated[159e3], channel,
                                 alphabet, n_frames=10, rng_seed=7)

    def test_error_rates_with_ci(self, channel, calibrated, alphabet):
        res = ws.frame_error_sweep([720.0], [-91.0], calibrated[159e3], channel,
                                   alphabet, n_frames=500, rng_seed=8)
        rate, lo, hi = res[(720.0, -91.0)].frame_error_rate[720.0]
        assert lo <= rate <= hi
        assert 0.0 < rate < 0.5


class TestRequiredPower:
    def test_interpolated_crossing_is_consistent(self, channel, calibrated):
        cfg = calibrated[159e3]
        power = ws.required_power_for_p01(cfg, channel, rng_seed=9,
                                          n_bits_coarse=20_000,
                                          n_bits_fine=60_000)
        stats = ws.estimate_p01(cfg, channel, power, rng_seed=10, n_bits=200_000)
        assert 2e-4 < stats.p01 < 5e-3

    def test_unreachable_target_raises(self, channel, calibrated):
        with pytest.raises(CalibrationError):
            ws.required_power_for_p01(calibrated[159e3], channel, rng_seed=11,
                                      power_hi_dbm=-50.0, power_lo_dbm=-55.0,
                                      n_bits_coarse=5_000, n_bits_fine=5_000)


class TestEdgeDelayTable:
    def test_unknown_policy_rejected(self, channel):
        with pytest.raises(ConfigurationError):
            ws.edge_delay_table([159e3], ws.ReceiverConfig(), channel,
                                threshold_policy="adaptive")

    @pytest.mark.parametrize("d_sample_us,separable", [(10.0, True), (20.0, False)])
    def test_separability_uses_the_receivers_d_sample(self, monkeypatch, channel,
                                                      d_sample_us, separable):
        # D_down = 35 us leaves a gap inside the 50 us DIFS at d_sample = 10 us
        # (35 < 40) but not at 20 us (35 >= 30)
        from wakesim import harness
        monkeypatch.setattr(harness, "calibrate_threshold", lambda *a, **k: 0.3)
        monkeypatch.setattr(harness, "measure_edge_delays", lambda *a, **k:
                            ws.EdgeDelayStats(d_up_us=np.array([5.0]),
                                              d_down_us=np.array([35.0])))
        cfg = ws.ReceiverConfig(d_sample_us=d_sample_us)
        [row] = ws.edge_delay_table([159e3], cfg, channel, rng_seed=1)
        assert row.d_down_mean_us == 35.0
        assert row.difs_separable is separable

    def test_rows_cover_requested_cofs(self, channel):
        rows = ws.edge_delay_table([482e3, 1590e3], ws.ReceiverConfig(), channel,
                                   n_trials=4, rng_seed=12)
        assert [r.cof_hz for r in rows] == [482e3, 1590e3]
        assert all(r.d_down_min_us <= r.d_down_mean_us <= r.d_down_max_us
                   for r in rows)

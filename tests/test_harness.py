import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

import wakesim as ws
from wakesim import harness
from wakesim.errors import CalibrationError, ConfigurationError
from wakesim.montecarlo import frame_error_trials
from wakesim.seeding import seed_sequence


def _fake_noise_decisions(monkeypatch, desc):
    """Make calibrate_threshold draw the given decisions, shuffled."""
    shuffled = np.random.default_rng(0).permutation(desc)
    monkeypatch.setattr(harness, "noise_decision_voltages",
                        lambda cfg, channel, n, rng_seed=None: shuffled.copy())


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

    @pytest.mark.parametrize("k", [-1, 21, 32])
    def test_count_outside_trials_rejected(self, k):
        # unchecked, 32 of 20 gave the interval (0.0, 1.6) of a rate of 1.6
        # and a RuntimeWarning
        with pytest.raises(ConfigurationError, match="^k must lie in"):
            ws.wilson_interval(k, 20)


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

    @pytest.mark.parametrize("n, target_p10", [
        (1000, 6e-4), (1000, 1e-3), (1000, 0.22), (5000, 0.2)],
        ids=["target*n=0.6", "target*n=1", "target*n=220", "target*n=1000"])
    def test_threshold_is_the_order_statistic(self, monkeypatch, channel,
                                              n, target_p10):
        desc = np.linspace(0.9, 0.1, n)  # distinct, largest first
        _fake_noise_decisions(monkeypatch, desc)
        t = ws.calibrate_threshold(ws.ReceiverConfig(), channel,
                                   target_p10=target_p10, n_decisions=n)
        k = int(round(target_p10 * n))
        assert desc[k] < t < desc[k - 1]  # between the (k+1)-th and k-th largest
        assert np.count_nonzero(desc > t) / n == k / n

    def test_no_decision_above_target_raises(self, monkeypatch, channel):
        # target * n = 0.4 rounds to k = 0: no threshold gives p in [0.5, 2] x target
        _fake_noise_decisions(monkeypatch, np.linspace(0.9, 0.1, 1000))
        with pytest.raises(CalibrationError, match="outside"):
            ws.calibrate_threshold(ws.ReceiverConfig(), channel,
                                   target_p10=4e-4, n_decisions=1000)

    @pytest.mark.parametrize("tie, above", [((8, 12), 8), ((3, 25), None),
                                            ((0, 20), None)])
    def test_tie_across_the_boundary(self, monkeypatch, channel, tie, above):
        # k = 10: the decisions desc[tie[0]:tie[1]] share the 10th and 11th
        # largest value, so only the `above` decisions before the tie exceed it
        desc = np.linspace(0.9, 0.1, 1000)
        desc[tie[0]:tie[1]] = desc[tie[0]]
        _fake_noise_decisions(monkeypatch, desc)
        if above is None:
            with pytest.raises(CalibrationError):
                ws.calibrate_threshold(ws.ReceiverConfig(), channel,
                                       target_p10=0.01, n_decisions=1000)
            return
        t = ws.calibrate_threshold(ws.ReceiverConfig(), channel,
                                   target_p10=0.01, n_decisions=1000)
        assert t == desc[tie[0]]
        p = np.count_nonzero(desc > t) / 1000
        assert p == above / 1000
        assert 0.005 <= p <= 0.02


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


SWEEP_LENGTHS = (720.0, 800.0, 1000.0)
SWEEP_POWERS = (-92.0, -90.0, -94.0, -91.0, -93.0, -95.0)


def _serial_sweep(cfg, channel, alphabet, powers, n_frames, frames_per_trial,
                  rng_seed):
    """frame_error_sweep as a loop on the calling thread over the seeds it
    spawns: (k, n) per (length, power), in the sweep's key order."""
    seeds = seed_sequence(rng_seed).spawn(len(powers))
    out = {}
    for power, seed in zip(powers, seeds):
        counts = frame_error_trials(SWEEP_LENGTHS, power, cfg, channel, alphabet,
                                    n_frames, rng_seed=seed,
                                    frames_per_trial=frames_per_trial)
        for length, (k, n) in counts.items():
            out[(length, power)] = (k, n)
    return out


class TestSweepPool:
    """frame_error_sweep runs its powers on two threads, three for an odd
    number of powers, and returns, key for key and in the same order, what
    one thread looping over the spawned seeds gets. 25 frames in trials of
    10 make three trials, the last one ragged."""

    CFG = ws.ReceiverConfig(cof_hz=159e3, threshold_v=0.311)

    def _check(self, cfg, channel, alphabet, powers, n_frames=25,
               frames_per_trial=10, rng_seed=17):
        got = ws.frame_error_sweep(SWEEP_LENGTHS, powers, cfg, channel, alphabet,
                                   n_frames=n_frames, rng_seed=rng_seed,
                                   frames_per_trial=frames_per_trial)
        ref = _serial_sweep(cfg, channel, alphabet, powers, n_frames,
                            frames_per_trial, rng_seed)
        assert list(got) == list(ref)
        assert list(ref) == [(length, power) for power in powers
                             for length in SWEEP_LENGTHS]
        for (length, power), (k, n) in ref.items():
            assert n == n_frames
            rates = got[(length, power)].frame_error_rate
            assert rates == {length: (k / n, *ws.wilson_interval(k, n))}
        return ref

    @pytest.mark.parametrize("n_powers", [1, 2, 3, 6])
    def test_equals_serial_loop(self, channel, alphabet, n_powers):
        ref = self._check(self.CFG, channel, alphabet, SWEEP_POWERS[:n_powers])
        # not all hits or all errors, so the comparison is not vacuous
        errors = [k for k, _ in ref.values()]
        assert 0 < sum(errors) < 25 * len(errors)

    def test_noiseless_channel(self, noiseless_channel, alphabet):
        self._check(self.CFG, noiseless_channel, alphabet, SWEEP_POWERS[:3])

    def test_video_noise_off(self, channel, alphabet):
        cfg = replace(self.CFG, video_noise_sigma_v=0.0)
        self._check(cfg, channel, alphabet, SWEEP_POWERS[:3])

    def test_under_fast_switching(self, channel, alphabet):
        # the interpreter switches threads every 10 us
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            self._check(self.CFG, channel, alphabet, SWEEP_POWERS)
        finally:
            sys.setswitchinterval(interval)

    def test_two_powers_in_flight(self, monkeypatch, channel, alphabet):
        # each power waits for another to start: one worker would time out
        barrier = threading.Barrier(2, timeout=60)
        real = harness.frame_error_trials

        def meeting(*args, **kwargs):
            barrier.wait()
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "frame_error_trials", meeting)
        ws.frame_error_sweep(SWEEP_LENGTHS, SWEEP_POWERS[:2], self.CFG, channel,
                             alphabet, n_frames=5, rng_seed=1)

    def test_three_powers_in_flight(self, monkeypatch, channel, alphabet):
        # an odd number of powers: each waits for two others to start, which
        # two workers would time out on
        barrier = threading.Barrier(3, timeout=60)
        real = harness.frame_error_trials

        def meeting(*args, **kwargs):
            barrier.wait()
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "frame_error_trials", meeting)
        ws.frame_error_sweep(SWEEP_LENGTHS, SWEEP_POWERS[:3], self.CFG, channel,
                             alphabet, n_frames=5, rng_seed=1)

    def test_even_count_keeps_two_in_flight(self, monkeypatch, channel,
                                            alphabet):
        # four powers meet in pairs, and no third power starts beside a pair
        barrier = threading.Barrier(2, timeout=60)
        lock, running, most = threading.Lock(), [0], [0]
        real = harness.frame_error_trials

        def counted(*args, **kwargs):
            with lock:
                running[0] += 1
                most[0] = max(most[0], running[0])
            try:
                barrier.wait()
                return real(*args, **kwargs)
            finally:
                with lock:
                    running[0] -= 1

        monkeypatch.setattr(harness, "frame_error_trials", counted)
        ws.frame_error_sweep(SWEEP_LENGTHS, SWEEP_POWERS[:4], self.CFG, channel,
                             alphabet, n_frames=5, rng_seed=1)
        assert most[0] == 2

    def test_workers_are_joined(self, channel, alphabet):
        before = threading.active_count()
        ws.frame_error_sweep(SWEEP_LENGTHS, SWEEP_POWERS[:3], self.CFG, channel,
                             alphabet, n_frames=5, rng_seed=1)
        assert threading.active_count() == before

    def test_workers_are_joined_on_error(self, monkeypatch, channel, alphabet):
        # the second power fails: its own error reaches the caller
        real = harness.frame_error_trials
        error = RuntimeError("second power failed")

        def failing(lengths, power, *args, **kwargs):
            if power == SWEEP_POWERS[1]:
                raise error
            return real(lengths, power, *args, **kwargs)

        monkeypatch.setattr(harness, "frame_error_trials", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as info:
            ws.frame_error_sweep(SWEEP_LENGTHS, SWEEP_POWERS, self.CFG, channel,
                                 alphabet, n_frames=5, rng_seed=1)
        assert info.value is error
        assert threading.active_count() == before


class TestRequiredPower:
    """Two upward scans: the coarse_step_db grid from power_lo_dbm, then a
    grid of coarse_step_db / 8 from one coarse step below the coarse answer.
    Both scan up to -80 dBm from -100 dBm in 2 dB coarse steps here."""

    @staticmethod
    def _patched(monkeypatch, p01_at):
        """Fake estimate_p01; return (calls, run_search)."""
        calls = []

        def fake(cfg, channel, power, rng_seed=None, n_bits=100_000):
            calls.append((power, n_bits, rng_seed.spawn_key))
            return ws.ErrorStats(p01=p01_at(power, n_bits))

        monkeypatch.setattr(harness, "estimate_p01", fake)
        return calls, lambda: ws.required_power_for_p01(
            ws.ReceiverConfig(threshold_v=0.3), ws.ChannelConfig(), rng_seed=5,
            power_lo_dbm=-100.0, power_hi_dbm=-80.0, n_bits_coarse=100,
            n_bits_fine=800)

    def test_coarse_then_fine_grid(self, monkeypatch):
        # p(0|1) = 1e-3 is not below the 1e-3 target: the coarse scan stops
        # at -90 dBm, the fine scan from -92 dBm at -90.5 dBm
        calls, search = self._patched(
            monkeypatch,
            lambda p, n: 0.5 if p < -91.0 else 1e-3 if p < -90.5 else 1e-4)
        assert search() == -90.5
        s_coarse, s_fine = np.random.SeedSequence(5).spawn(2)
        coarse = np.arange(-100.0, -80.0 + 1e-9, 2.0)
        fine = np.arange(-92.0, -80.0 + 1e-9, 0.25)
        assert calls == (
            [(float(p), 100, s.spawn_key)
             for p, s in zip(coarse[:6], s_coarse.spawn(coarse.size))]
            + [(float(p), 800, s.spawn_key)
               for p, s in zip(fine[:7], s_fine.spawn(fine.size))])

    def test_below_target_at_power_lo_is_not_bracketed(self, monkeypatch):
        calls, search = self._patched(monkeypatch, lambda p, n: 0.0)
        with pytest.raises(CalibrationError, match="power_lo_dbm = -100.0 dBm"):
            search()
        assert len(calls) == 1

    @pytest.mark.parametrize("p01_at, n_calls", [
        (lambda p, n: 0.5, 11),
        (lambda p, n: 0.0 if n == 100 and p >= -90.0 else 0.5, 6 + 49)],
        ids=["coarse", "fine"])
    def test_never_below_target_names_power_hi(self, monkeypatch, p01_at, n_calls):
        calls, search = self._patched(monkeypatch, p01_at)
        with pytest.raises(CalibrationError,
                           match=r"p\(0\|1\) never fell below 0.001 up to -80.0 dBm"):
            search()
        assert len(calls) == n_calls

    def test_required_power_is_consistent(self, channel, calibrated):
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


class TestMinPowerScan:
    """min_power_for_frame_error and cc2420_min_power_for_identification
    share one upward scan: one seed per grid power, spawned in grid order.
    Both scan -96 to -80 dBm in 0.5 dB steps here."""

    @staticmethod
    def _patched(monkeypatch, which, error_at, channel, alphabet):
        """Fake one scan's error measurement; return (calls, run_scan)."""
        calls = []
        if which == "frame":
            def fake(lengths, power, cfg, channel, alphabet, n_frames, rng_seed=None):
                calls.append((power, rng_seed.spawn_key))
                return {lengths[0]: (round(error_at(power) * n_frames), n_frames)}

            monkeypatch.setattr(harness, "frame_error_trials", fake)
            return calls, lambda: ws.min_power_for_frame_error(
                720.0, ws.ReceiverConfig(threshold_v=0.3), channel, alphabet,
                rng_seed=5, n_frames=100)

        def fake(frame, power, cfg, n_frames=1000, rng_seed=None, channel=None):
            calls.append((power, rng_seed.spawn_key))
            bad = round(error_at(power) * n_frames)
            return {3: n_frames - bad, 9: bad}  # count 9 lies outside (2, 4)

        monkeypatch.setattr(harness, "count_distribution", fake)
        return calls, lambda: ws.cc2420_min_power_for_identification(
            ws.FrameSpec(12), ws.Cc2420Config(), channel, (2, 4), rng_seed=5,
            power_lo_dbm=-96.0, power_hi_dbm=-80.0, n_frames=100)

    @pytest.mark.parametrize("which", ["frame", "cca"])
    def test_first_grid_power_below_target(self, monkeypatch, channel, alphabet,
                                           which):
        # 0.1 is not below the 0.1 target; -90 dBm is the first power below it
        calls, scan = self._patched(
            monkeypatch, which,
            lambda p: 0.5 if p < -91.0 else 0.1 if p < -90.0 else 0.05,
            channel, alphabet)
        assert scan() == -90.0
        grid = np.arange(-96.0, -80.0 + 1e-9, 0.5)
        seeds = np.random.SeedSequence(5).spawn(grid.size)
        assert calls == [(float(p), s.spawn_key) for p, s in zip(grid[:13], seeds)]

    @pytest.mark.parametrize("which, what", [("frame", "frame error"),
                                             ("cca", "CCA identification error")])
    def test_never_below_target_names_power_hi(self, monkeypatch, channel,
                                               alphabet, which, what):
        calls, scan = self._patched(monkeypatch, which, lambda p: 0.5,
                                    channel, alphabet)
        with pytest.raises(CalibrationError, match=f"{what} .* up to -80.0 dBm"):
            scan()
        assert len(calls) == 33


class TestRemovedOptions:
    """The bisection step cap and the edge-delay threshold policy are gone."""

    @pytest.mark.parametrize("entry, key, value", [
        (lambda **kw: ws.calibrate_threshold(ws.ReceiverConfig(), ws.ChannelConfig(),
                                             **kw), "max_steps", 60),
        (lambda **kw: ws.edge_delay_table([159e3], ws.ReceiverConfig(),
                                          ws.ChannelConfig(), **kw),
         "threshold_policy", "fixed_reference"),
        (lambda **kw: ws.ExperimentConfig(**kw), "edge_threshold_policy",
         "fixed_reference"),
    ], ids=["calibrate_threshold-max_steps", "edge_delay_table-threshold_policy",
            "ExperimentConfig-edge_threshold_policy"])
    def test_removed_keyword_is_refused(self, entry, key, value):
        # even the value the keyword used to default to is refused
        with pytest.raises(TypeError, match=key):
            entry(**{key: value})


class TestSweepLengths:
    @pytest.mark.parametrize("lengths", [[800.0, 800.0], []], ids=["twice", "empty"])
    def test_rejected_before_the_pool(self, monkeypatch, lengths):
        # unchecked, [800, 800] reported a rate of 1.7 with CI (0.0, 1.7)
        def no_trials(*args, **kwargs):
            raise AssertionError("a power was run")

        monkeypatch.setattr(harness, "frame_error_trials", no_trials)
        before = threading.active_count()
        with pytest.raises(ConfigurationError, match="^lengths_us "):
            ws.frame_error_sweep(lengths, [-93.0], ws.ReceiverConfig(threshold_v=0.31),
                                 ws.ChannelConfig(), ws.Alphabet((720.0, 800.0, 1000.0)),
                                 n_frames=20, rng_seed=1, frames_per_trial=10)
        assert threading.active_count() == before


class TestBadInput:
    """Steps and counts that cannot work raise a ConfigurationError naming
    the key before anything is measured."""

    @pytest.mark.parametrize("step", [0.0, float("nan"), -0.5],
                             ids=["zero", "nan", "negative"])
    @pytest.mark.parametrize("entry, key", [
        (lambda step: ws.min_power_for_frame_error(
            720.0, ws.ReceiverConfig(threshold_v=0.3), ws.ChannelConfig(),
            ws.Alphabet((720.0, 800.0)), rng_seed=1, step_db=step), "step_db"),
        (lambda step: ws.cc2420_min_power_for_identification(
            ws.FrameSpec(12), ws.Cc2420Config(), ws.ChannelConfig(), (2, 4),
            rng_seed=1, step_db=step), "step_db"),
        (lambda step: ws.required_power_for_p01(
            ws.ReceiverConfig(threshold_v=0.3), ws.ChannelConfig(), rng_seed=1,
            coarse_step_db=step), "coarse_step_db"),
    ], ids=["min_power_for_frame_error", "cc2420_min_power_for_identification",
            "required_power_for_p01"])
    def test_bad_power_step(self, entry, key, step):
        with pytest.raises(ConfigurationError, match=f"^{key} "):
            entry(step)

    @pytest.mark.parametrize("n", [0, -1, 2.5], ids=["zero", "negative", "fraction"])
    @pytest.mark.parametrize("entry, key", [
        (lambda n: ws.calibrate_threshold(ws.ReceiverConfig(), ws.ChannelConfig(),
                                          rng_seed=1, n_decisions=n), "n_decisions"),
        (lambda n: ws.measure_p10(ws.ReceiverConfig(threshold_v=0.3),
                                  ws.ChannelConfig(), rng_seed=1, n_decisions=n),
         "n_decisions"),
        (lambda n: ws.estimate_p01(ws.ReceiverConfig(threshold_v=0.3),
                                   ws.ChannelConfig(), -90.0, rng_seed=1, n_bits=n),
         "n_bits"),
    ], ids=["calibrate_threshold", "measure_p10", "estimate_p01"])
    def test_bad_count(self, entry, key, n):
        with pytest.raises(ConfigurationError, match=f"^{key} "):
            entry(n)


POWER_SEARCHES = {
    "min_power_for_frame_error": lambda **kw: ws.min_power_for_frame_error(
        720.0, ws.ReceiverConfig(threshold_v=0.3), ws.ChannelConfig(),
        ws.Alphabet((720.0, 800.0)), rng_seed=1, **kw),
    "cc2420_min_power_for_identification": lambda **kw: (
        ws.cc2420_min_power_for_identification(
            ws.FrameSpec(12), ws.Cc2420Config(), ws.ChannelConfig(), (2, 4),
            rng_seed=1, **kw)),
    "required_power_for_p01": lambda **kw: ws.required_power_for_p01(
        ws.ReceiverConfig(threshold_v=0.3), ws.ChannelConfig(), rng_seed=1, **kw),
}


class TestBadSearchInput:
    """The power searches check their grid bounds and bit counts before
    they measure anything: the measurement is faked and must not be called."""

    @staticmethod
    def _count_measurements(monkeypatch):
        calls = []

        def measured(*args, **kwargs):
            calls.append(args)
            raise AssertionError("measured before the input was checked")

        for name in ("frame_error_trials", "count_distribution", "estimate_p01"):
            monkeypatch.setattr(harness, name, measured)
        return calls

    @pytest.mark.parametrize("lo, hi, key", [
        (float("nan"), -80.0, "power_lo_dbm"),
        (-float("inf"), -80.0, "power_lo_dbm"),
        (-96.0, float("nan"), "power_hi_dbm"),
        (-96.0, float("inf"), "power_hi_dbm"),
        (-80.0, -96.0, "power_lo_dbm"),
    ], ids=["lo-nan", "lo-inf", "hi-nan", "hi-inf", "lo-above-hi"])
    @pytest.mark.parametrize("search", list(POWER_SEARCHES))
    def test_bad_power_range(self, monkeypatch, search, lo, hi, key):
        # unchecked, lo > hi measured nothing and raised a CalibrationError
        # ("never fell below"), and NaN raised numpy's ValueError
        calls = self._count_measurements(monkeypatch)
        with pytest.raises(ConfigurationError, match=f"^{key} "):
            POWER_SEARCHES[search](power_lo_dbm=lo, power_hi_dbm=hi)
        assert calls == []

    @pytest.mark.parametrize("n", [0, -1, 2.5], ids=["zero", "negative", "fraction"])
    @pytest.mark.parametrize("key", ["n_bits_coarse", "n_bits_fine"])
    def test_bad_p01_bit_count(self, monkeypatch, key, n):
        # unchecked, n_bits_fine = 0 failed after the whole coarse scan,
        # naming n_bits
        calls = self._count_measurements(monkeypatch)
        with pytest.raises(ConfigurationError, match=f"^{key} "):
            POWER_SEARCHES["required_power_for_p01"](**{key: n})
        assert calls == []


class TestEdgeDelayTable:
    def test_one_threshold_from_the_reference_cof(self, monkeypatch, channel):
        calibrated_at, measured = [], []

        def fake_calibrate(cfg, channel, target_p10=1e-3, rng_seed=None):
            calibrated_at.append((cfg.cof_hz, cfg.threshold_v, target_p10))
            return 0.3

        def fake_measure(cfg, rx_power_dbm, channel, n_trials, rng_seed):
            measured.append((cfg.cof_hz, cfg.threshold_v))
            return ws.EdgeDelayStats(d_up_us=np.array([1.0]),
                                     d_down_us=np.array([2.0]))

        monkeypatch.setattr(harness, "calibrate_threshold", fake_calibrate)
        monkeypatch.setattr(harness, "measure_edge_delays", fake_measure)
        rows = ws.edge_delay_table([15.9e3, 482e3], ws.ReceiverConfig(), channel,
                                   rng_seed=1, reference_cof_hz=1e5,
                                   target_p10=2e-3)
        assert calibrated_at == [(1e5, None, 2e-3)]
        assert measured == [(15.9e3, 0.3), (482e3, 0.3)]
        assert [r.threshold_v for r in rows] == [0.3, 0.3]

    @pytest.mark.parametrize("d_sample_us,separable", [(10.0, True), (20.0, False)])
    def test_separability_uses_the_receivers_d_sample(self, monkeypatch, channel,
                                                      d_sample_us, separable):
        # D_down = 35 us leaves a gap inside the 50 us DIFS at d_sample = 10 us
        # (35 < 40) but not at 20 us (35 >= 30)
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

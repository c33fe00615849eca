import sys
import threading
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

import wakesim as ws
from wakesim import cc2420
from wakesim.cc2420 import POWER_FLOOR_DBM, rssi_dbm
from wakesim.errors import ConfigurationError
from wakesim.seeding import seed_sequence
from wakesim.units import db_to_linear, dbm_to_mw


def _single_frame_trace(rx_power_dbm, duration_us=1000.0, lead_us=200.0,
                        tail_us=300.0, rate=20e6):
    n = int((lead_us + duration_us + tail_us) * rate / 1e6)
    samples = np.zeros(n)
    i0 = int(lead_us * rate / 1e6)
    i1 = int((lead_us + duration_us) * rate / 1e6)
    samples[i0:i1] = dbm_to_mw(rx_power_dbm)
    return ws.EnvelopeTrace(samples=samples, sample_rate_hz=rate)


def _analytic_tick_count(cfg, rx_power_dbm, duration_us, lead_us, trace_us, seed):
    """Independent oracle: trailing-MA crossing times plus tick enumeration.

    On idle noiseless samples the RSSI register reads its floor (the clamp
    applies to the post-filter power), so the ramp runs from the clamp level
    up to the captured signal level.
    """
    base = POWER_FLOOR_DBM
    sig = rx_power_dbm + cfg.capture_fraction_db
    w = cfg.ma_window_us
    frac = (cfg.cca_threshold_dbm - base) / (sig - base)
    t_up = lead_us + w * frac
    t_dn = lead_us + duration_us + w * (1.0 - frac)
    phase = float(np.random.default_rng(seed).uniform(0, cfg.granularity_us))
    ticks = np.arange(phase, trace_us, cfg.granularity_us)
    return int(np.count_nonzero((ticks >= t_up) & (ticks < t_dn)))


def _reference_ticks(n_samples, cfg, sample_rate_hz, tick_phase_us):
    per_us = sample_rate_hz / 1e6
    duration_us = n_samples / per_us
    n_ticks = int(np.floor((duration_us - tick_phase_us) / cfg.granularity_us)) + 1
    if n_ticks <= 0:
        return np.empty(0, dtype=np.int64)
    idx = np.round((tick_phase_us + np.arange(n_ticks) * cfg.granularity_us)
                   * per_us).astype(np.int64)
    return idx[idx < n_samples]


def _reference_tick_rssi(frame, rx_power_dbm, cfg, n_frames, rng_seed, channel,
                         lead_us=200.0, tail_us=300.0):
    """Frame-by-frame reference: the full rssi_dbm trace of each frame, read at its ticks."""
    rate = channel.bandwidth_hz
    schedule = ws.TxSchedule(events=((0.0, frame),))
    base = ws.synthesize_envelope(schedule, rx_power_dbm, internal_rate_hz=rate,
                                  lead_us=lead_us, tail_us=tail_us)
    amp = np.sqrt(base.samples).astype(np.float32)
    n_samples = amp.size
    i0, i1 = np.flatnonzero(amp)[[0, -1]] + [0, 1]
    n_mw = channel.noise_floor_mw
    values = []
    for seed in seed_sequence(rng_seed).spawn(n_frames):
        rng = np.random.default_rng(seed)
        # each frame draws its tick phase, its Exp(1) variates, then the
        # uniforms of its frame span, which are the only ones read
        phase = rng.uniform(0.0, cfg.granularity_us)
        if n_mw > 0:
            # the float32 Rice terms, then the float64 amp (amp + 2 X) + E
            e = rng.standard_exponential(n_samples, dtype=np.float32)
            e *= np.float32(n_mw)
            u = np.zeros(n_samples, dtype=np.float32)
            u[i0:i1] = rng.random(i1 - i0, dtype=np.float32)
            x = np.cos(u * np.float32(2.0 * np.pi)) * np.sqrt(e)
            power = np.maximum((2.0 * x.astype(float) + amp) * amp + e, 0.0)
        else:
            power = (amp * amp).astype(float)
        rssi = rssi_dbm(power, cfg, rate)
        values.append(rssi[_reference_ticks(rssi.size, cfg, rate, phase)])
    return values


def _check_against_reference(frame, rx, chip, n_frames, chan, rng_seed=31, **kwargs):
    """count_distribution against _reference_tick_rssi, at the chip's threshold
    and at a razor threshold equal to one RSSI value read at a tick, which
    flips that tick's decision on any change in the arithmetic, however
    small."""
    values = _reference_tick_rssi(frame, rx, chip, n_frames, rng_seed, chan, **kwargs)
    tick_rssi = np.sort(np.concatenate(values))
    razor = float(tick_rssi[tick_rssi.size // 2])
    for threshold in (chip.cca_threshold_dbm, razor):
        cfg = replace(chip, cca_threshold_dbm=threshold)
        got = ws.count_distribution(frame, rx, cfg, n_frames=n_frames,
                                    rng_seed=rng_seed, channel=chan, **kwargs)
        want = Counter(int(np.count_nonzero(v > threshold)) for v in values)
        assert sum(got.values()) == n_frames
        assert list(got.items()) == list(want.items())


class TestCcaOutputCount:
    def test_noiseless_count_matches_closed_form(self):
        cfg = ws.Cc2420Config()
        trace = _single_frame_trace(-61.56)
        for seed in (0, 1, 2, 3):
            got = ws.cca_output_count(trace, cfg, rng_seed=seed)
            want = _analytic_tick_count(cfg, -61.56, 1000.0, 200.0,
                                        trace.duration_us, seed)
            assert got == want

    def test_below_threshold_never_asserts(self):
        cfg = ws.Cc2420Config()
        trace = _single_frame_trace(-80.0)
        assert ws.cca_output_count(trace, cfg, rng_seed=0) == 0

    def test_assertion_bound_invariant(self):
        cfg = ws.Cc2420Config()
        for rx in (-61.56, -67.0, -73.56):
            trace = _single_frame_trace(rx)
            count = ws.cca_output_count(trace, cfg, rng_seed=5)
            assert count * cfg.granularity_us <= 1000.0 + cfg.ma_window_us \
                + 2 * cfg.granularity_us

    def test_ideal_energy_detector_limit(self):
        # no capture loss and a vanishing MA window recover floor(L/g) +- 1
        cfg = ws.Cc2420Config(capture_fraction_db=0.0, ma_window_us=0.5)
        trace = _single_frame_trace(-61.56)
        for seed in range(4):
            count = ws.cca_output_count(trace, cfg, rng_seed=seed)
            assert abs(count - int(1000.0 // cfg.granularity_us)) <= 1

    def test_matches_whole_trace_reference(self, channel):
        g = ws.Cc2420Config().granularity_us
        phase = float(np.random.default_rng(4).uniform(0, g))
        # the MA window ends on the fifth tick, where the growing head hands over
        cfg = ws.Cc2420Config(ma_window_us=phase + 4 * g)
        trace = ws.add_noise(_single_frame_trace(-76.0), channel, rng_seed=3)
        rssi = rssi_dbm(trace.samples, cfg, trace.sample_rate_hz)
        tick_rssi = rssi[_reference_ticks(rssi.size, cfg, trace.sample_rate_hz, phase)]
        for threshold in np.sort(tick_rssi):
            got = ws.cca_output_count(
                trace, replace(cfg, cca_threshold_dbm=float(threshold)), rng_seed=4)
            assert got == np.count_nonzero(tick_rssi > threshold)

    @pytest.mark.parametrize("seed", range(4))
    def test_trace_shorter_than_window(self, seed):
        # 50 us of constant power, under half the 128 us MA window
        cfg = ws.Cc2420Config()
        trace = ws.EnvelopeTrace(samples=np.full(1000, dbm_to_mw(-60.0)),
                                 sample_rate_hz=20e6)
        phase = float(np.random.default_rng(seed).uniform(0, cfg.granularity_us))
        ticks = np.arange(phase, trace.duration_us, cfg.granularity_us)
        assert ws.cca_output_count(trace, cfg, rng_seed=seed) == ticks.size
        np.testing.assert_allclose(rssi_dbm(trace.samples, cfg, 20e6),
                                   -60.0 + cfg.capture_fraction_db, rtol=1e-12)


class TestCc2420Config:
    @pytest.mark.parametrize("field,value", [
        ("granularity_us", 0.0), ("granularity_us", float("nan")),
        ("granularity_us", float("inf")), ("ma_window_us", -1.0),
        ("ma_window_us", float("nan")), ("ma_window_us", float("inf")),
        ("cca_threshold_dbm", float("nan")), ("cca_threshold_dbm", float("-inf")),
        ("capture_fraction_db", float("nan")), ("capture_fraction_db", float("inf"))])
    def test_bad_field_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            ws.Cc2420Config(**{field: value})

    @pytest.mark.parametrize("power", [float("nan"), float("inf"), float("-inf")],
                             ids=["nan", "inf", "-inf"])
    def test_non_finite_rx_power_rejected(self, channel, power):
        # unchecked, the envelope's check named tx_power_dbm
        with pytest.raises(ConfigurationError, match="^rx_power_dbm "):
            ws.count_distribution(ws.FrameSpec(12), power, ws.Cc2420Config(),
                                  n_frames=10, channel=channel)


class TestCountDistribution:
    @pytest.mark.parametrize("payload,rx,n_frames,channel_kw,chip_kw", [
        (37, -67.56, 1, {}, {}),
        (12, -73.56, 7, {}, {}),
        (37, -61.56, 250, {}, {}),
        (37, -61.56, 20, {"noise_figure_db": None}, {}),
        (12, -70.0, 30, {"bandwidth_hz": 10e6}, {}),
        (12, -61.56, 10, {}, {"ma_window_us": 2000.0})])
    def test_matches_whole_trace_reference(self, payload, rx, n_frames,
                                           channel_kw, chip_kw):
        _check_against_reference(ws.FrameSpec(payload), rx,
                                 ws.Cc2420Config(**chip_kw), n_frames,
                                 ws.ChannelConfig(**channel_kw))

    def test_high_power_modal_count_near_33(self, channel):
        counts = ws.count_distribution(ws.FrameSpec(37), -61.56, ws.Cc2420Config(),
                                       n_frames=400, rng_seed=8, channel=channel)
        assert abs(ws.modal_count(counts) - 33) <= 1

    def test_800us_mass_in_26_27_band(self, channel):
        counts = ws.count_distribution(ws.FrameSpec(12), -61.56, ws.Cc2420Config(),
                                       n_frames=400, rng_seed=9, channel=channel)
        assert 25 <= ws.modal_count(counts) <= 28

    def test_modal_count_decreases_with_power(self, channel):
        modal = []
        for i, rx in enumerate((-61.56, -67.56, -71.56, -73.56)):
            counts = ws.count_distribution(ws.FrameSpec(37), rx, ws.Cc2420Config(),
                                           n_frames=300, rng_seed=10 + i,
                                           channel=channel)
            modal.append(ws.modal_count(counts))
        assert all(a >= b for a, b in zip(modal, modal[1:]))
        assert modal[0] > modal[-1]

    def test_widened_window_separates_lengths_at_m73(self, channel):
        cfg = ws.Cc2420Config()
        c1000 = ws.count_distribution(ws.FrameSpec(37), -73.56, cfg,
                                      n_frames=400, rng_seed=14, channel=channel)
        c800 = ws.count_distribution(ws.FrameSpec(12), -73.56, cfg,
                                     n_frames=400, rng_seed=15, channel=channel)
        in_window = sum(v for c, v in c1000.items() if 29 <= c <= 35)
        assert in_window / sum(c1000.values()) > 0.95
        assert max(c800) < 29

    def test_deterministic_given_seed(self, channel):
        a = ws.count_distribution(ws.FrameSpec(12), -70.0, ws.Cc2420Config(),
                                  n_frames=100, rng_seed=77, channel=channel)
        b = ws.count_distribution(ws.FrameSpec(12), -70.0, ws.Cc2420Config(),
                                  n_frames=100, rng_seed=77, channel=channel)
        assert a == b


class TestCountPipeline:
    """count_distribution hands blocks of frames to worker threads, each
    frame drawing from its own seed: the counts are those of the
    frame-by-frame reference, whatever the thread timing or the split. A
    1000 us frame with 200 + 300 us of idle is 30 000 samples, so a block
    holds 8 frames."""

    FRAME = ws.FrameSpec(37)
    N_SAMPLES = 30_000

    @pytest.mark.parametrize("n_frames", [
        3,      # one block, smaller than a full one
        8,      # one full block
        17])    # two full blocks and one of one frame
    def test_blocks(self, channel, n_frames):
        _check_against_reference(self.FRAME, -73.56, ws.Cc2420Config(), n_frames,
                                 channel)

    @pytest.mark.parametrize("lead_us,tail_us", [(0.0, 300.0), (200.0, 0.0),
                                                 (0.0, 0.0)])
    def test_frame_at_trace_edge(self, channel, lead_us, tail_us):
        # an empty idle slice before or after the frame
        _check_against_reference(self.FRAME, -67.56, ws.Cc2420Config(), 21, channel,
                                 lead_us=lead_us, tail_us=tail_us)

    def test_under_fast_switching(self, channel):
        # the interpreter switches threads every 10 us
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            _check_against_reference(ws.FrameSpec(12), -71.56, ws.Cc2420Config(),
                                     30, channel)
        finally:
            sys.setswitchinterval(interval)

    def _counts(self, channel, n_frames=20):
        # at -76 dBm the counts spread over a dozen values, so that the key
        # order of the Counter shows the order in which blocks were read
        return ws.count_distribution(self.FRAME, -76.0, ws.Cc2420Config(),
                                     n_frames=n_frames, rng_seed=5, channel=channel)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("per_block", [1, 3, 20])
    def test_counts_do_not_depend_on_split(self, channel, monkeypatch, workers,
                                           per_block):
        want = list(self._counts(channel).items())
        monkeypatch.setattr(cc2420, "_COUNT_WORKERS", workers)
        monkeypatch.setattr(cc2420, "_BLOCK_FLOATS", per_block * self.N_SAMPLES)
        assert list(self._counts(channel).items()) == want

    def test_first_block_finishing_last(self, channel, monkeypatch):
        # the block of frame 0 waits until the other four blocks are done
        want = list(self._counts(channel).items())
        real = cc2420._frame_counts
        others_done = threading.Semaphore(0)

        def first_last(*args):
            seeds = args[-1]
            if seeds[0].spawn_key == (0,):
                for _ in range(4):
                    assert others_done.acquire(timeout=60)
                return real(*args)
            counts = real(*args)
            others_done.release()
            return counts

        monkeypatch.setattr(cc2420, "_BLOCK_FLOATS", 4 * self.N_SAMPLES)
        monkeypatch.setattr(cc2420, "_frame_counts", first_last)
        assert list(self._counts(channel).items()) == want

    def test_workers_are_joined(self, channel):
        before = threading.active_count()
        self._counts(channel, n_frames=30)
        assert threading.active_count() == before

    def test_workers_are_joined_on_error(self, channel, monkeypatch):
        # the 3rd block fails: that very error reaches the caller, and the
        # workers are gone
        real = cc2420._frame_counts
        error = RuntimeError("worker failed")
        calls = []

        def failing(*args):
            calls.append(1)
            if len(calls) == 3:
                raise error
            return real(*args)

        monkeypatch.setattr(cc2420, "_frame_counts", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as info:
            self._counts(channel, n_frames=60)
        assert info.value is error
        assert threading.active_count() == before

    def test_peak_memory_is_one_block_per_worker(self, channel):
        # a call holds, per worker, one block of scratch: the float32 Exp(1)
        # draws and span uniforms, the float64 power and cumulative sum;
        # beside them the frames' seeds and less than 1 MB of anything else.
        # More frames add their seeds and futures (under 1 KB a frame), not
        # a float32 trace (120 KB a frame).
        n, span = self.N_SAMPLES, 20_000
        block = cc2420._BLOCK_FLOATS // n * (4 * n + 4 * span + 8 * n + 8 * n)
        self._counts(channel, n_frames=2)
        peaks = {}
        for n_frames in (200, 2000):
            tracemalloc.start()
            try:
                kept = seed_sequence(5).spawn(n_frames)
                seeds = tracemalloc.get_traced_memory()[0]
                del kept
                tracemalloc.reset_peak()
                self._counts(channel, n_frames=n_frames)
                _, peaks[n_frames] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peaks[n_frames] < cc2420._COUNT_WORKERS * block + seeds + (1 << 20)
        assert peaks[2000] - peaks[200] < 1800 * 1024


class TestNoiselessCountOracle:
    """With no noise, every frame's RSSI is the same trace, above the
    threshold on one run of samples [s_up, s_dn). A tick k lands on sample
    round(20 (phase + k g)), so it counts when phase + k g falls in
    [(s_up - 1/2) / 20, (s_dn - 1/2) / 20) us, an interval of T us. With the
    phase uniform on [0, g), a frame counts m = floor(T / g) ticks, or m + 1
    with probability T / g - m. Per frame, the count follows from the phase
    that its own Generator draws first."""

    @pytest.mark.parametrize("n_frames", [2000, 3500, 6000])
    @pytest.mark.parametrize("payload,rx", [(37, -61.56), (12, -73.56)])
    def test_counts_follow_tick_phase(self, noiseless_channel, payload, rx, n_frames):
        cfg, frame, seed = ws.Cc2420Config(), ws.FrameSpec(payload), 44
        rate, g = noiseless_channel.bandwidth_hz, ws.Cc2420Config().granularity_us
        per_us = rate / 1e6
        trace = ws.synthesize_envelope(ws.TxSchedule(events=((0.0, frame),)), rx,
                                       internal_rate_hz=rate, lead_us=200.0,
                                       tail_us=300.0)
        power = np.sqrt(trace.samples).astype(np.float32) ** 2
        above = np.flatnonzero(rssi_dbm(power, cfg, rate) > cfg.cca_threshold_dbm)
        s_up, s_dn = above[0], above[-1] + 1
        assert above.size == s_dn - s_up  # one run
        lo, hi = (s_up - 0.5) / per_us, (s_dn - 0.5) / per_us
        m = int((hi - lo) // g)
        p_more = (hi - lo) / g - m
        phases = np.array([np.random.default_rng(s).uniform(0.0, g)
                           for s in seed_sequence(seed).spawn(n_frames)])
        # the integers k with phase + k g in [lo, hi)
        want = Counter((np.ceil((hi - phases) / g) - np.ceil((lo - phases) / g))
                       .astype(int).tolist())
        got = ws.count_distribution(frame, rx, cfg, n_frames=n_frames, rng_seed=seed,
                                    channel=noiseless_channel)
        assert sorted(got.items()) == sorted(want.items())
        assert set(got) <= {m, m + 1}
        sd = np.sqrt(n_frames * p_more * (1.0 - p_more))
        assert abs(got[m + 1] - n_frames * p_more) < 5.0 * sd + 1.0


class TestNoiseOnlyRssiMoments:
    """rssi_dbm of noise alone against the moments of the clamped log power.

    A captured noise power is c E with E ~ Exp(N); the chip reads
    Y = 10 log10(max(c E, F)) at the floor F = POWER_FLOOR_DBM. Its mean and
    variance come from quad over s = E / N, with the mass 1 - exp(-F/(cN))
    at the floor (about 0.35% at the default noise floor). The moving
    average over a full window of W independent samples keeps the mean and
    has variance var(Y) / W.
    """

    def test_window_means_match_clamped_log_moments(self, channel):
        cfg = ws.Cc2420Config()
        rate = channel.bandwidth_hz
        window = int(round(cfg.ma_window_us * rate / 1e6))
        n_windows = 2000
        zero = ws.EnvelopeTrace(samples=np.zeros(window * n_windows),
                                sample_rate_hz=rate)
        rssi = rssi_dbm(ws.add_noise(zero, channel, rng_seed=41).samples, cfg, rate)
        # the averages over disjoint full windows are independent
        means = rssi[window - 1::window]
        assert means.size == n_windows

        cn = channel.noise_floor_mw * db_to_linear(cfg.capture_fraction_db)
        s0 = 10.0 ** (POWER_FLOOR_DBM / 10.0) / cn
        at_floor = -np.expm1(-s0)
        assert 0.003 < at_floor < 0.004

        def moment(g):
            above, _ = quad(lambda s: g(10.0 * np.log10(cn * s)) * np.exp(-s),
                            s0, np.inf, epsabs=1e-12)
            return g(POWER_FLOOR_DBM) * at_floor + above

        mean = moment(lambda y: y)
        var = moment(lambda y: (y - mean) ** 2)
        var_w = var / window
        k = means.size
        assert abs(means.mean() - mean) < 5.0 * np.sqrt(var_w / k)
        # the window means are close to Gaussian: var(sample var) = 2 var^2/(k-1)
        assert abs(np.var(means, ddof=1) - var_w) < 5.0 * var_w * np.sqrt(2.0 / (k - 1))

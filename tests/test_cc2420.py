from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

import wakesim as ws
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
                         lead_us=200.0, tail_us=300.0, batch_size=200):
    """Whole-batch reference: the full rssi_dbm trace of each frame, read at its ticks."""
    rate = channel.bandwidth_hz
    schedule = ws.TxSchedule(events=((0.0, frame),))
    base = ws.synthesize_envelope(schedule, rx_power_dbm, internal_rate_hz=rate,
                                  lead_us=lead_us, tail_us=tail_us)
    amp = np.sqrt(base.samples).astype(np.float32)
    n_samples = amp.size
    n_mw = channel.noise_floor_mw
    seeds = seed_sequence(rng_seed).spawn(int(np.ceil(n_frames / batch_size)))
    values = []
    done = 0
    for seed in seeds:
        rng = np.random.default_rng(seed)
        b = min(batch_size, n_frames - done)
        if n_mw > 0:
            # the float32 Rice terms, then the float64 amp (amp + 2 X) + E
            e = rng.standard_exponential((b, n_samples), dtype=np.float32)
            e *= np.float32(n_mw)
            u = rng.random((b, n_samples), dtype=np.float32)
            x = np.cos(u * np.float32(2.0 * np.pi)) * np.sqrt(e)
            power = np.maximum((2.0 * x.astype(float) + amp) * amp + e, 0.0)
        else:
            power = np.broadcast_to(amp * amp, (b, n_samples)).copy()
        rssi = rssi_dbm(power, cfg, rate)
        phases = rng.uniform(0.0, cfg.granularity_us, size=b)
        for row, phase in zip(rssi, phases):
            values.append(row[_reference_ticks(row.size, cfg, rate, float(phase))])
        done += b
    return values


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

    def test_zero_batch_size_rejected(self, noiseless_channel):
        with pytest.raises(ConfigurationError, match="batch_size"):
            ws.count_distribution(ws.FrameSpec(12), -61.56, ws.Cc2420Config(),
                                  n_frames=10, channel=noiseless_channel,
                                  batch_size=0)


class TestCountDistribution:
    @pytest.mark.parametrize("payload,rx,n_frames,batch_size,channel_kw,chip_kw", [
        (37, -67.56, 1, 200, {}, {}),
        (12, -73.56, 7, 3, {}, {}),
        (37, -61.56, 250, 64, {}, {}),
        (37, -61.56, 20, 200, {"noise_figure_db": None}, {}),
        (12, -70.0, 30, 200, {"bandwidth_hz": 10e6}, {}),
        (12, -61.56, 10, 4, {}, {"ma_window_us": 2000.0})])
    def test_matches_whole_trace_reference(self, payload, rx, n_frames, batch_size,
                                           channel_kw, chip_kw):
        frame, chan = ws.FrameSpec(payload), ws.ChannelConfig(**channel_kw)
        chip = ws.Cc2420Config(**chip_kw)
        values = _reference_tick_rssi(frame, rx, chip, n_frames, 31, chan,
                                      batch_size=batch_size)
        # a threshold equal to one RSSI value read at a tick flips that tick's
        # decision on any change in the arithmetic, however small
        tick_rssi = np.sort(np.concatenate(values))
        razor = float(tick_rssi[tick_rssi.size // 2])
        for threshold in (chip.cca_threshold_dbm, razor):
            cfg = replace(chip, cca_threshold_dbm=threshold)
            got = ws.count_distribution(frame, rx, cfg, n_frames=n_frames,
                                        rng_seed=31, channel=chan,
                                        batch_size=batch_size)
            want = Counter(int(np.count_nonzero(v > threshold)) for v in values)
            assert sum(got.values()) == n_frames
            assert list(got.items()) == list(want.items())

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

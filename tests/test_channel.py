import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import kstest, ks_2samp, ncx2

import wakesim as ws
from wakesim.channel import _RICE_BLOCK, rice_combine, rice_noise, rice_power
from wakesim.errors import ConfigurationError
from wakesim.units import dbm_to_mw


def _flat_trace(power_dbm, n=1_000_000, rate=20e6):
    return ws.EnvelopeTrace(samples=np.full(n, dbm_to_mw(power_dbm)),
                            sample_rate_hz=rate)


class TestChannelConfig:
    @pytest.mark.parametrize("field", ["bandwidth_hz"])
    def test_nan_rejected(self, field):
        with pytest.raises(ConfigurationError, match=field):
            ws.ChannelConfig(**{field: float("nan")})

    @pytest.mark.parametrize("field,value", [
        ("temperature_k", 0.0), ("temperature_k", -290.0),
        ("temperature_k", float("nan")), ("temperature_k", float("inf")),
        ("noise_figure_db", float("nan")), ("noise_figure_db", float("inf")),
        ("bandwidth_hz", float("inf"))])
    def test_bad_noise_parameters_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            ws.ChannelConfig(**{field: value})


class TestRicePower:
    def test_keeps_float32(self):
        amp = np.full(1000, 1e-5, dtype=np.float32)
        out = rice_power(np.random.default_rng(0), amp, 1e-10)
        assert out.dtype == np.float32

    def test_zero_noise_draws_nothing(self):
        rng = np.random.default_rng(1)
        amp = np.array([0.0, 2.0, 3.0])
        np.testing.assert_array_equal(rice_power(rng, amp, 0.0), amp * amp)
        assert rng.standard_normal() == np.random.default_rng(1).standard_normal()

    def test_add_noise_is_rice_power_of_the_amplitude(self, channel):
        trace = _flat_trace(-95.0, n=1000)
        out = ws.add_noise(trace, channel, rng_seed=2)
        ref = rice_power(np.random.default_rng(2),
                         np.sqrt(trace.samples, dtype=np.float32),
                         channel.noise_floor_mw)
        assert out.samples.dtype == np.float32
        np.testing.assert_array_equal(out.samples, ref)


def _peak_traced_bytes(fn):
    """Peak memory (tracemalloc, which numpy reports to) allocated by fn()."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


class TestRicePowerBlocks:
    """rice_power forms the power block by block from the unblocked draws."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [1, _RICE_BLOCK - 1, _RICE_BLOCK, _RICE_BLOCK + 1,
                                   159_400, 2 ** 22 + 3])
    def test_bytes_equal_the_unblocked_composition(self, channel, n, dtype):
        # a frame in the middle third, idle (amp 0) on either side
        amp = np.zeros(n, dtype=dtype)
        amp[n // 3:2 * n // 3] = np.sqrt(dbm_to_mw(-95.0))
        noise = channel.noise_floor_mw
        got = rice_power(np.random.default_rng(n), amp, noise)
        ref = rice_combine(amp, *rice_noise(np.random.default_rng(n), amp.shape, noise))
        assert got.dtype == ref.dtype == dtype and got.shape == (n,)
        assert got.tobytes() == ref.tobytes()

    def test_keeps_the_shape(self):
        amp = np.full((3, 5), 1e-5, dtype=np.float32)
        got = rice_power(np.random.default_rng(8), amp, 1e-10)
        ref = rice_combine(amp, *rice_noise(np.random.default_rng(8), amp.shape, 1e-10))
        assert got.shape == (3, 5) and got.tobytes() == ref.tobytes()

    def test_output_is_the_only_trace_sized_allocation(self):
        n = 2 ** 22
        amp = np.full(n, 1e-5, dtype=np.float32)
        peak = _peak_traced_bytes(lambda: rice_power(np.random.default_rng(9), amp, 1e-10))
        assert peak < 1.25 * 4 * n

    def test_add_noise_peaks_below_its_output_plus_1_mib(self, channel):
        n = 159_400
        samples = np.zeros(n)
        samples[20_000:120_000] = dbm_to_mw(-90.0)
        trace = ws.EnvelopeTrace(samples=samples, sample_rate_hz=20e6)
        peak = _peak_traced_bytes(lambda: ws.add_noise(trace, channel, rng_seed=10))
        assert peak < 4 * n + 2 ** 20

    def test_add_noise_takes_the_root_per_block(self, channel):
        # beside its float32 output, add_noise holds three float32 blocks
        # (uniforms, power, amplitude) and the float64-to-float32 cast buffer
        # of the root, and no trace-sized root: with the root taken first,
        # the peak was 4 n more (1.47 MB here). sqrt(E) is taken into the
        # power block; as a fourth block it made the peak 2 KB over this
        # bound, and 35 KB more with the cast buffer beside it
        n = 159_400
        trace = ws.EnvelopeTrace(samples=np.full(n, dbm_to_mw(-90.0)),
                                 sample_rate_hz=20e6)
        peak = _peak_traced_bytes(lambda: ws.add_noise(trace, channel, rng_seed=10))
        assert peak < 4 * n + 3 * 4 * _RICE_BLOCK + 2 ** 16

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [_RICE_BLOCK - 1, 2 * _RICE_BLOCK + 5, 159_400])
    def test_add_noise_bytes_across_blocks(self, channel, n, dtype):
        # the root per block gives the bytes of the root of the whole trace
        samples = np.zeros(n, dtype=dtype)
        samples[n // 4:3 * n // 4] = dbm_to_mw(-93.0)
        samples[n // 2:] *= np.linspace(0.5, 2.0, n - n // 2)
        trace = ws.EnvelopeTrace(samples=samples, sample_rate_hz=20e6)
        got = ws.add_noise(trace, channel, rng_seed=n).samples
        amp = np.sqrt(samples, dtype=np.float32)
        ref = rice_combine(amp, *rice_noise(np.random.default_rng(n), amp.shape,
                                            channel.noise_floor_mw))
        assert got.dtype == np.float32 and got.tobytes() == ref.tobytes()


def _two_normal_rice_power(rng, amp, noise_mw):
    """Reference law: |amp + n|^2 from normal real and imaginary parts of n."""
    sigma = amp.dtype.type(np.sqrt(noise_mw / 2.0))
    re = rng.standard_normal(amp.shape, dtype=amp.dtype) * sigma
    im = rng.standard_normal(amp.shape, dtype=amp.dtype) * sigma
    return (amp + re) ** 2 + im ** 2


class TestRiceLaw:
    """The exponential-plus-phase draw against the two-normal law and ncx2."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("snr", [0.0, 1.0, 10.0])
    def test_matches_two_normal_law_ks(self, channel, snr, dtype):
        n, noise = 200_000, channel.noise_floor_mw
        amp = np.full(n, np.sqrt(snr * noise), dtype=dtype)
        got = rice_power(np.random.default_rng(int(snr) + 40), amp, noise)
        ref = _two_normal_rice_power(np.random.default_rng(int(snr) + 50), amp, noise)
        assert got.dtype == ref.dtype == dtype
        assert ks_2samp(got, ref).pvalue > 1e-3
        # 2|a + n|^2 / N is noncentral chi-square, 2 dof, noncentrality 2a^2/N
        assert kstest(2.0 * got / noise, ncx2(2, 2.0 * snr).cdf).pvalue > 1e-3

    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1e3),
           st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_never_negative(self, channel, amp_over_sigma, seed):
        noise = channel.noise_floor_mw
        amp = np.full(10_000, np.sqrt(noise) * amp_over_sigma, dtype=np.float32)
        assert rice_power(np.random.default_rng(seed), amp, noise).min() >= 0.0

    def test_clamp_at_opposite_phase(self, channel):
        # sqrt(E) ~ amp and cos(theta) ~ -1: the float32 sum rounds below 0
        rng = np.random.default_rng(5)
        n = 100_000
        e = (rng.standard_exponential(n) * channel.noise_floor_mw).astype(np.float32)
        amp = (np.sqrt(e.astype(float)) * (1.0 + rng.normal(0.0, 1e-6, n))
               ).astype(np.float32)
        x = -np.sqrt(e) * np.cos(rng.normal(0.0, 1e-3, n).astype(np.float32))
        assert np.count_nonzero(amp * (amp + 2 * x) + e < 0) > 0
        out = rice_combine(amp, e, x)
        assert out.dtype == np.float32 and out.min() >= 0.0

    def test_terms_are_float32_and_combine_in_the_output_dtype(self):
        e, x = rice_noise(np.random.default_rng(6), (3, 4), 1e-10)
        assert e.dtype == x.dtype == np.float32 and e.shape == (3, 4)
        amp = np.float32(1e-5)
        out = rice_combine(amp, e, x, out=np.empty((3, 4)))
        np.testing.assert_array_equal(
            out, np.maximum((2.0 * x.astype(float) + amp) * amp + e, 0.0))


class TestAddNoise:
    def test_noise_only_mean_equals_floor(self, channel):
        trace = ws.EnvelopeTrace(samples=np.zeros(1_000_000), sample_rate_hz=20e6)
        out = ws.add_noise(trace, channel, rng_seed=0)
        assert abs(out.samples.mean() / channel.noise_floor_mw - 1.0) < 0.01

    def test_noise_only_exponential_ccdf(self, channel):
        # analytic false-alarm oracle: P(power > T) = exp(-T / floor)
        n = 1_000_000
        trace = ws.EnvelopeTrace(samples=np.zeros(n), sample_rate_hz=20e6)
        out = ws.add_noise(trace, channel, rng_seed=1)
        floor = channel.noise_floor_mw
        for k in (0.5, 1.0, 3.0, np.log(1000.0)):
            expected = np.exp(-k)
            measured = np.count_nonzero(out.samples > k * floor) / n
            tol = 4.0 * np.sqrt(expected * (1 - expected) / n)
            assert abs(measured - expected) < tol

    def test_disabled_noise_is_identity(self, noiseless_channel):
        trace = _flat_trace(-50.0, n=100)
        out = ws.add_noise(trace, noiseless_channel, rng_seed=2)
        np.testing.assert_array_equal(out.samples, trace.samples)

    def test_rice_mean_power_identity(self, channel):
        # E|s + n|^2 = |s|^2 + E|n|^2, checked at signal == noise floor
        floor = channel.noise_floor_mw
        trace = ws.EnvelopeTrace(samples=np.full(1_000_000, floor),
                                 sample_rate_hz=20e6)
        out = ws.add_noise(trace, channel, rng_seed=3)
        assert abs(out.samples.mean() / (2.0 * floor) - 1.0) < 0.01

    def test_mean_power_additivity_at_high_snr(self, channel):
        p = dbm_to_mw(-80.0)
        trace = ws.EnvelopeTrace(samples=np.full(500_000, p), sample_rate_hz=20e6)
        out = ws.add_noise(trace, channel, rng_seed=4)
        expected = p + channel.noise_floor_mw
        assert abs(out.samples.mean() / expected - 1.0) < 0.01

    def test_rate_mismatch_rejected(self, channel):
        trace = ws.EnvelopeTrace(samples=np.zeros(100), sample_rate_hz=10e6)
        with pytest.raises(ConfigurationError):
            ws.add_noise(trace, channel, rng_seed=0)

    def test_default_floor_value(self, channel):
        # 20 MHz bandwidth with a 1.5 dB noise figure sits near -99.5 dBm
        assert channel.noise_floor_dbm == pytest.approx(-99.46, abs=0.05)

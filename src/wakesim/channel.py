"""Receiver-referred noise.

The wired-attenuator experiment this mirrors has no fading: every power
argument in the package is the level at the receiver input, and the only
stochastic element is thermal noise referred to the band-pass filter
width. Noise is injected at the complex-envelope level, so noise-only power
samples are exponential and signal-plus-noise samples follow the Rice
(noncentral chi-square, 2 dof) power law. Every noisy power in the
package, here, in montecarlo and in cc2420, is drawn one way, in float32:
the noise power E ~ Exp(N) and the phase theta ~ U(0, 2 pi) of the noise
relative to the signal (rice_noise), then amp^2 + E +
2 amp sqrt(E) cos(theta) (rice_combine). One block loop (_rice_blocks)
forms that power from E already drawn: each block draws its theta and is
combined in small reused buffers. Since all the E come before all the
theta, as in rice_noise, its bytes are those of the whole-trace
composition. rice_power and add_noise (which also takes the amplitude's
root per block) run it, with their output as their only trace-sized
allocation, and so do the frame trials of montecarlo, in place over each
trial's Exp(1) draws, in larger blocks (its block argument). The p(0|1) streams of montecarlo
call rice_terms and rice_combine themselves, on two threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError
from .phy import EnvelopeTrace
from .units import dbm_to_mw, thermal_noise_floor_dbm

DEFAULT_BANDWIDTH_HZ = 20e6
# Default receiver noise figure. The LNA in the modeled front end is a GaAs
# part with a sub-1.5 dB noise figure; keeping the cascade NF at 1.5 dB puts
# the 20 MHz floor near -99.5 dBm.
DEFAULT_NOISE_FIGURE_DB = 1.5
# Samples per block of rice_power, the fastest of 2^13..2^16 on wake-up
# attempts: a block's uniforms and power (128 KiB as float32) stay in cache.
_RICE_BLOCK = 1 << 14


@dataclass(frozen=True)
class ChannelConfig:
    """Additive thermal noise in the receiver band.

    noise_figure_db=None disables noise entirely (noise floor -> -inf).
    bandwidth_hz is also the simulation sample rate: every simulated trace
    has one complex-envelope sample per 1/bandwidth_hz, so the kTB noise
    floor and the noise degrees of freedom agree.
    """

    noise_figure_db: Optional[float] = DEFAULT_NOISE_FIGURE_DB
    bandwidth_hz: float = DEFAULT_BANDWIDTH_HZ
    temperature_k: float = 290.0

    def __post_init__(self):
        # the comparisons are written so that NaN fails them
        if not 0 < self.bandwidth_hz < np.inf:
            raise ConfigurationError("bandwidth_hz must be positive and finite")
        if not 0 < self.temperature_k < np.inf:
            raise ConfigurationError("temperature_k must be positive and finite")
        if self.noise_figure_db is not None and not np.isfinite(self.noise_figure_db):
            raise ConfigurationError("noise_figure_db must be finite or None")

    @property
    def noise_floor_dbm(self) -> float:
        if self.noise_figure_db is None:
            return -np.inf
        return thermal_noise_floor_dbm(self.bandwidth_hz, self.noise_figure_db,
                                       self.temperature_k)

    @property
    def noise_floor_mw(self) -> float:
        floor = self.noise_floor_dbm
        return 0.0 if floor == -np.inf else dbm_to_mw(floor)


def add_noise(trace: EnvelopeTrace, cfg: ChannelConfig, rng_seed=None) -> EnvelopeTrace:
    """Add circular complex Gaussian noise to the signal amplitude.

    Each output sample is |s + n|^2 with s = sqrt(signal power) and
    E|n|^2 = noise floor, in float32: the returned trace is float32. The
    draws and the bytes are those of rice_power on the float32 root of the
    trace, but the root is taken block by block, so the output is the only
    trace-sized allocation. Requires one trace sample per 1/bandwidth so
    the noise process has physically correct degrees of freedom.
    """
    if cfg.noise_figure_db is None:
        return trace
    if trace.sample_rate_hz != cfg.bandwidth_hz:
        raise ConfigurationError(
            f"trace rate {trace.sample_rate_hz} Hz must equal the noise bandwidth "
            f"{cfg.bandwidth_hz} Hz")
    rng = np.random.default_rng(rng_seed)
    power = trace.samples.reshape(-1)
    out = np.empty(power.size, dtype=np.float32)
    rng.standard_exponential(out=out, dtype=np.float32)
    _rice_blocks(rng, power, out, cfg.noise_floor_mw, out, root=True)
    return EnvelopeTrace(samples=out.reshape(trace.samples.shape),
                         sample_rate_hz=trace.sample_rate_hz)


def rice_power(rng, amp: np.ndarray, noise_mw: float) -> np.ndarray:
    """|amp + n|^2 for circular complex Gaussian n of mean power noise_mw.

    The same draws and float32 arithmetic as rice_combine(amp,
    *rice_noise(rng, amp.shape, noise_mw)), formed block by block: all the
    Exp(1) variates are drawn first, in one call, into the output (into one
    float32 buffer for a float64 amp); then each block of _RICE_BLOCK
    samples draws its uniforms and is combined through small reused
    buffers (_rice_blocks). The output is the only trace-sized allocation
    for a float32 amp. The result is float32 for a float32 amp and float64
    for a float64 one. noise_mw = 0 draws nothing.
    """
    if noise_mw == 0.0:
        return amp * amp
    flat = amp.reshape(-1)
    n = flat.size
    dtype = np.result_type(flat, np.float32)
    out = np.empty(n, dtype=dtype)
    e = out if dtype == np.float32 else np.empty(n, dtype=np.float32)
    rng.standard_exponential(out=e, dtype=np.float32)
    _rice_blocks(rng, flat, e, noise_mw, out)
    return out.reshape(amp.shape)


def _rice_blocks(rng, amp, e: np.ndarray, noise_mw: float, out: np.ndarray,
                 root: bool = False, block: int = _RICE_BLOCK):
    """out = |amp + n|^2 from the Exp(1) draws in e, block by block.

    Each block of `block` samples (2^14 unless the caller asks for more)
    draws its uniforms and is combined through small reused buffers. The
    uniforms are drawn in order whatever the block size, so it changes no
    byte. out may be e itself: then each block is
    combined in a buffer and copied, else straight into out, and e is left
    holding E = noise_mw e (rice_terms). sqrt(E) is taken into the block's
    float32 output before rice_combine overwrites it, or into a buffer of
    its own for a float64 output. amp is a scalar or an array shaped
    like e; with root, amp holds powers and each block takes their float32
    square root (add_noise). This is the loop of rice_power and add_noise,
    also run with a scalar amplitude by frame_error_trials, on a trial's
    Exp(1) draws.
    """
    n = e.size
    u_buf = np.empty(min(n, block), dtype=np.float32)
    s_buf = None if out.dtype == np.float32 else np.empty_like(u_buf)
    in_place = np.may_share_memory(out, e)
    p_buf = np.empty_like(u_buf, dtype=out.dtype) if in_place else None
    a_buf = np.empty_like(u_buf) if root else None
    per_sample = np.ndim(amp) > 0
    for r0 in range(0, n, block):
        r1 = min(r0 + block, n)
        u = rng.random(out=u_buf[:r1 - r0], dtype=np.float32)
        p = p_buf[:r1 - r0] if in_place else out[r0:r1]
        a = amp[r0:r1] if per_sample else amp
        if root:
            a = np.sqrt(a, dtype=np.float32, out=a_buf[:r1 - r0])
        s = p if s_buf is None else s_buf[:r1 - r0]
        rice_combine(a, *rice_terms(e[r0:r1], u, noise_mw, s), out=p)
        if in_place:
            out[r0:r1] = p


def rice_noise(rng, shape, noise_mw: float):
    """The noise terms (E, X) of the Rice power, float32, for rice_combine.

    With n = sqrt(E) e^(i theta), |a + n|^2 = a^2 + E + 2 a sqrt(E) cos(theta)
    (Rice, BSTJ 1944): E ~ Exp(noise_mw) and theta ~ U(0, 2 pi) are
    independent, so one exponential and then one uniform draw per sample
    replace the two normals of the real and imaginary parts.
    """
    e = rng.standard_exponential(shape, dtype=np.float32)
    u = rng.random(shape, dtype=np.float32)
    return rice_terms(e, u, noise_mw)


def rice_terms(e: np.ndarray, u: np.ndarray, noise_mw: float, root=None):
    """In place, float32: e -> E = noise_mw e, u -> X = sqrt(E) cos(2 pi u).

    e holds Exp(1) and u U(0, 1) draws; returns (E, X). sqrt(E) is taken
    into root, float32 scratch shaped like e that the caller owns, or into
    a new array if root is None.
    """
    e *= np.float32(noise_mw)
    u *= np.float32(2.0 * np.pi)
    np.cos(u, out=u)
    u *= np.sqrt(e, out=root)
    return e, u


def rice_combine(amp, e: np.ndarray, x: np.ndarray, out=None) -> np.ndarray:
    """amp^2 + E + 2 amp X from rice_noise's terms, clamped at 0.

    Formed as amp (amp + 2 X) + E, into out if given, else into a new array
    shaped like x in the common dtype of the inputs. The clamp catches the rounding that can leave the
    sum a little under 0 where sqrt(E) ~ amp and cos(theta) ~ -1.
    """
    if out is None:
        out = np.empty_like(x, dtype=np.result_type(amp, x))
    np.multiply(x, 2, out=out)
    out += amp
    out *= amp
    out += e
    return np.maximum(out, 0, out=out)

"""Wake-up receiver chain: LNA, envelope detector, RC low-pass, bit slicer.

The chain is LNA gain -> detector -> (slow post-detector noise) -> single-pole
RC low-pass -> threshold sampling every d_sample microseconds. The low-pass is
the exact matched-pole discretization y[n] = y[n-1] + alpha * (x[n] - y[n-1])
with alpha = 1 - exp(-dt/tau), tau = 1/(2*pi*cof).

Two detector laws are available. The default is a log detector (output
proportional to input power in dB, clamped at its low-end floor), which
matches the RF power-detector part the receiver is built around. A linear
square-law detector is kept for analytic cross-checks.

The post-detector noise term models what the RF noise budget cannot: video
amplifier and comparator-referred fluctuations that are slower than every
selectable cut-off frequency and therefore do not average away in the LPF.
Its defaults are calibrated against the measured relative detection gains of
the low-pass settings; set video_noise_sigma_v=0 for the idealized chain.

ReceiverStream is the only implementation of the chain from input power to
voltages. It reads one whole trace and detects in the trace's dtype: one
push for receive and filtered_voltage (float32 from channel.add_noise,
float64 when noiseless). The detector runs in place on the stream's own
LNA product, or on an array its caller hands over. One method
(ReceiverStream._sums) turns a whole trace into the sums of its decision
blocks: push calls it, the bit kernels in montecarlo call it on their
workers, on float32 pieces of whole blocks, and run the decision-rate
filter once, and frame_error_trials calls it on the one power path that a
trial's frame lengths share, then gets the bits of receive from the
stream's other steps (its detector, its block sums and its decision-rate
filter) run on the noise power kept where a length reads it
(montecarlo._NoiseStore).
Only the comb is ever read, so nothing after the detector runs at the
internal rate, and at COF 0 only the comb samples are detected. The LPF
output is formed only at the decisions, from the detector samples between
them (block-state decimation, in float64), and the video noise is drawn
only there: the LPF is linear, so its response to the AR(1) noise, read on
the comb, is an exact 2-state Gauss-Markov process (_comb_noise), added
at 2 normals per reading. The readings of a shorter trace are a prefix of
those of a longer one on the same comb and seed.
_comb_offset is the one rule that places the decision comb: receive and
sample_and_threshold read the same samples. filtered_voltage reads the
stream at every sample (a comb of gap 1), so edge delays can locate
threshold crossings to one internal-rate sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import lru_cache
from typing import Optional

import numpy as np
from scipy.signal import lfilter

from .errors import ConfigurationError
from .phy import EnvelopeTrace
from .units import db_to_linear, dbm_to_mw

DEFAULT_LNA_GAIN_DB = 11.0
DEFAULT_D_SAMPLE_US = 10.0
DEFAULT_COF_HZ = 159e3

# Calibrated chain constants (see module docstring): the slow-noise sigma is
# 1.5 dB expressed through the 0.02 V/dB detector slope, and the detector's
# low-end clamp sits a few dB under the post-LNA thermal level.
DEFAULT_VIDEO_NOISE_SIGMA_V = 0.030
DEFAULT_VIDEO_NOISE_TAU_US = 30.0
DEFAULT_LOG_FLOOR_DBM = -92.0

DETECTOR_MODELS = ("square_law_linear", "log_detector")


@dataclass(frozen=True)
class ReceiverConfig:
    """Full parameterization of the wake-up receiver."""

    lna_gain_db: float = DEFAULT_LNA_GAIN_DB
    detector_model: str = "log_detector"
    log_slope_v_per_db: float = 0.02
    log_intercept_v: float = 2.0          # output at 0 dBm detector input
    log_floor_dbm: float = DEFAULT_LOG_FLOOR_DBM  # input-referred low-end clamp
    square_law_k: float = 1.0             # volts per mW
    cof_hz: float = DEFAULT_COF_HZ        # 0 bypasses the LPF
    threshold_v: Optional[float] = None
    d_sample_us: float = DEFAULT_D_SAMPLE_US
    video_noise_sigma_v: float = DEFAULT_VIDEO_NOISE_SIGMA_V
    video_noise_tau_us: float = DEFAULT_VIDEO_NOISE_TAU_US

    def __post_init__(self):
        # every field but detector_model is a float (threshold_v may be None)
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name != "detector_model" and value is not None \
                    and not math.isfinite(value):
                raise ConfigurationError(f"{f.name} must be finite")
        if self.detector_model not in DETECTOR_MODELS:
            raise ConfigurationError(f"unknown detector_model {self.detector_model!r}")
        if not self.d_sample_us > 0:
            raise ConfigurationError("d_sample_us must be positive")
        if not self.cof_hz >= 0:
            raise ConfigurationError("cof_hz must be >= 0")
        if not self.video_noise_sigma_v >= 0:
            raise ConfigurationError("video_noise_sigma_v must be >= 0")
        if not self.video_noise_tau_us > 0:
            raise ConfigurationError("video_noise_tau_us must be positive")

    def with_threshold(self, threshold_v: float) -> "ReceiverConfig":
        return replace(self, threshold_v=threshold_v)

    def detector_voltage(self, power_mw):
        """Detector output for a given input power (post-LNA), vectorized.

        float32 input is computed in float32, anything else in float64.
        """
        p = np.asarray(power_mw)
        # one new array (also for 0-d input), then in place
        v = p.astype(np.float32 if p.dtype == np.float32 else float)
        return self._detect(v)[()]

    def _detect(self, v: np.ndarray) -> np.ndarray:
        """The detector law of detector_voltage, in place on v, which it returns.

        v is a float32 or float64 array of post-LNA power that the caller
        owns.
        """
        if self.detector_model == "square_law_linear":
            v *= self.square_law_k
            return v
        np.maximum(v, dbm_to_mw(self.log_floor_dbm), out=v)
        np.log10(v, out=v)
        v *= 10.0 * self.log_slope_v_per_db
        v += self.log_intercept_v
        return v


@dataclass
class VoltageTrace:
    """Detector-side voltage samples at the internal simulation rate."""

    samples: np.ndarray
    sample_rate_hz: float


@dataclass
class BitStream:
    """Threshold decisions taken every d_sample microseconds."""

    bits: np.ndarray          # uint8 over {0, 1}
    d_sample_us: float
    phase_offset_us: float = 0.0

    def __len__(self):
        return self.bits.size


def detector_response(trace: EnvelopeTrace, cfg: ReceiverConfig) -> VoltageTrace:
    """Map input power to detector output voltage, sample by sample."""
    return VoltageTrace(samples=cfg.detector_voltage(trace.samples),
                        sample_rate_hz=trace.sample_rate_hz)


def lpf_alpha(cof_hz: float, sample_rate_hz: float) -> float:
    """Matched-pole coefficient for the discrete single-pole RC filter."""
    if cof_hz > sample_rate_hz / 2.0:
        raise ConfigurationError(
            f"cof_hz {cof_hz:g} exceeds half the sample rate {sample_rate_hz:g}")
    return 1.0 - np.exp(-2.0 * np.pi * cof_hz / sample_rate_hz)


def rc_lpf_array(x: np.ndarray, alpha: float, zi: float = 0.0):
    """Run the single-pole IIR over an array; returns (y, last_output).

    Feed last_output back as zi to continue seamlessly across chunks. The
    output is float64 whatever the input dtype. The receiver chain does not
    call it (ReceiverStream forms the LPF output only at the decisions): it
    is the full-rate reference that the stream's LPF is tested against.
    """
    y, _ = lfilter([alpha], [1.0, -(1.0 - alpha)], x,
                   zi=np.array([(1.0 - alpha) * zi]))
    return y, float(y[-1])


def video_noise_ar1(n: int, sigma_v: float, tau_us: float, sample_rate_hz: float,
                    rng, zi: Optional[float] = None, dtype=float):
    """Slow AR(1) voltage noise at the full rate; returns (samples, final_state).

    zi=None starts from a stationary draw; otherwise continues from zi. The
    normals are drawn in float64 and cast to dtype, and the filter state is
    held in dtype. The receiver chain does not call it: it is the full-rate
    reference that the comb noise of _comb_noise is tested against.
    """
    if sigma_v == 0.0 or n == 0:
        return np.zeros(n, dtype=dtype), 0.0 if zi is None else zi
    a = np.exp(-1e6 / (tau_us * sample_rate_hz))
    c = np.sqrt(1.0 - a * a)
    w = rng.standard_normal(n).astype(dtype, copy=False)
    z0 = (1.0 - c) * sigma_v * w[0] if zi is None else a * zi
    y, _ = lfilter([c * sigma_v], [1.0, -a], w, zi=np.array([z0], dtype=dtype))
    return y.astype(dtype, copy=False), float(y[-1])


@lru_cache(maxsize=1024)
def _comb_step(a: float, alpha: float, scale: float, gap: int):
    """Exact gap-sample step of the (video noise, LPF response) state.

    Per internal-rate sample the state moves as s[n] = A s[n-1] + b w[n] with
    A = [[a, 0], [alpha a, 1 - alpha]], b = scale [1, alpha], w ~ N(0, 1).
    Over gap samples that is s -> A^gap s + L z with z ~ N(0, I_2) and
    L L^T = Q_gap = sum_{k<gap} A^k b b^T A^k^T, both built by repeated
    doubling in float64. Returns (p, r, q, l11, l21, l22) for
    A^gap = [[p, 0], [r, q]] and the lower-triangular L, for gap >= 1 (the
    comb never reads one sample twice). At alpha = 1 (LPF bypassed) Q_gap
    has rank 1 and l22 is 0.
    """
    step_a = np.array([[a, 0.0], [alpha * a, 1.0 - alpha]])
    b = scale * np.array([1.0, alpha])
    step_q = np.outer(b, b)
    power, cov = np.eye(2), np.zeros((2, 2))
    while gap:
        if gap & 1:
            power, cov = step_a @ power, step_a @ cov @ step_a.T + step_q
        step_a, step_q = step_a @ step_a, step_a @ step_q @ step_a.T + step_q
        gap >>= 1
    l11 = np.sqrt(cov[0, 0])
    l21 = cov[1, 0] / l11 if l11 > 0.0 else 0.0
    l22 = np.sqrt(max(cov[1, 1] - l21 * l21, 0.0))
    return power[0, 0], power[1, 0], power[1, 1], l11, l21, l22


def _comb_noise(cfg: ReceiverConfig, sample_rate_hz: float, rng, offset: int,
                n: int) -> np.ndarray:
    """Low-passed slow video noise at the n decisions offset + k spb.

    The joint state (AR(1) video noise x, its RC response y) is a 2-state
    Gauss-Markov process, so y read on the comb has the same joint
    distribution as the full-rate AR(1) noise low-passed by rc_lpf_array
    and read there (exact discretisation, Van Loan, IEEE TAC 1978). That is
    2 normals per decision instead of one per sample. Before sample 0, x is
    stationary and y is 0, so the first reading follows offset + 1 samples
    from sample -1 and every later one spb samples. x is drawn first and
    then the normals of the readings in order, so the noise of n readings
    is a prefix of that of more, with the same rng state.
    """
    if n == 0:
        return np.empty(0)
    a = float(np.exp(-1e6 / (cfg.video_noise_tau_us * sample_rate_hz)))
    alpha = lpf_alpha(cfg.cof_hz, sample_rate_hz) if cfg.cof_hz > 0 else 1.0
    sigma = cfg.video_noise_sigma_v
    params = (a, float(alpha), sigma * float(np.sqrt(1.0 - a * a)))
    x, y = sigma * float(rng.standard_normal()), 0.0
    z = rng.standard_normal((n, 2))
    out = np.empty(n)
    # the first reading, then the rest at gap spb: lfilter itself carries
    # its state as p x (and q y), so the split changes no value
    for gap, zs, ys in ((offset + 1, z[:1], out[:1]),
                        (_samples_per_bit(cfg, sample_rate_hz), z[1:], out[1:])):
        if not zs.size:
            break
        p, r, q, l11, l21, l22 = _comb_step(*params, gap)
        xs, _ = lfilter([1.0], [1.0, -p], l11 * zs[:, 0], zi=[p * x])
        ys[:] = r * np.r_[x, xs[:-1]] + l21 * zs[:, 0] + l22 * zs[:, 1]
        if q != 0.0:
            # at COF 0 (alpha = 1) q is 0: y keeps no state and the filter
            # would return its input unchanged
            ys[:], _ = lfilter([1.0], [1.0, -q], ys, zi=[q * y])
        x, y = float(xs[-1]), float(ys[-1])
    return out


def _samples_per_bit(cfg: ReceiverConfig, sample_rate_hz: float) -> int:
    spb = cfg.d_sample_us * sample_rate_hz / 1e6
    if abs(spb - round(spb)) > 1e-9 or round(spb) < 1:
        raise ConfigurationError(
            "d_sample_us must be an integer number of samples at the internal "
            "rate, at least one")
    return int(round(spb))


class ReceiverStream:
    """Receiver chain over one whole trace of input power (mW, pre-LNA).

    The trace is detected in its own dtype and read on the decision comb
    offset + k spb (comb_offset); the low-passed video noise, drawn from
    rng on the same comb (_comb_noise), is added there. So a stream reads
    one trace: a second push would draw other noise from rng. With the LPF
    on, its output is formed only at the decisions (block-state IIR
    decimation, Crochiere and Rabiner 1983).
    With a = 1 - alpha, the output at decision k is

        y_k = a^spb y_(k-1) + w . block_k,   w_j = alpha a^(spb-1-j),

    where block_k holds the spb detector samples that end at decision k:
    one row-wise product (_block_sums) and a one-pole filter at the
    decision rate (_filter), in float64. The comb is extended back to
    first = comb_offset % spb, with zeros before sample 0 (the filter
    starts from 0 V), so every block has spb samples; the skip =
    comb_offset // spb decisions before comb_offset are dropped. At COF 0
    the LNA and the detector, which act sample by sample, see only the
    comb samples (first = comb_offset, skip = 0), and the decisions keep
    the trace's dtype.
    """

    def __init__(self, cfg: ReceiverConfig, sample_rate_hz: float, rng,
                 comb_offset: int = 0):
        self.cfg = cfg
        self.rate = sample_rate_hz
        self.rng = rng
        self.offset = comb_offset
        self.spb = spb = _samples_per_bit(cfg, sample_rate_hz)
        self.lna = float(db_to_linear(cfg.lna_gain_db))
        self.weights = None
        self.first, self.skip = comb_offset, 0
        if cfg.cof_hz > 0:
            alpha = lpf_alpha(cfg.cof_hz, sample_rate_hz)
            a = 1.0 - alpha
            self.weights = alpha * a ** np.arange(spb - 1, -1, -1.0)
            self.pole = a ** spb
            self.first, self.skip = comb_offset % spb, comb_offset // spb

    def _block_sums(self, rows: np.ndarray, out=None) -> np.ndarray:
        """w . block for each row of rows, a block of spb detector samples.

        np.einsum sums a row the same way wherever it sits, so how the
        blocks are grouped into calls changes no sum (a BLAS matrix-vector
        product does not); the bit kernels and frame_error_trials rely on
        that.
        """
        return np.einsum("ij,j->i", rows, self.weights, out=out)

    def _head(self, v: np.ndarray) -> np.ndarray:
        """Block 0 as one row: zeros before sample 0, then v[:first + 1]."""
        return np.concatenate((np.zeros(self.spb - 1 - self.first),
                               v[:self.first + 1]))[None]

    def _filter(self, u: np.ndarray) -> np.ndarray:
        """y_k = a^spb y_(k-1) + u_k at the decision rate, from y_(-1) = 0."""
        y, _ = lfilter([1.0], [1.0, -self.pole], u, zi=[0.0])
        return y

    def _detect(self, power_mw: np.ndarray, out=None) -> np.ndarray:
        """LNA, then the detector in place on the product.

        The product is new unless out is given; out may be power_mw itself.
        """
        v = np.multiply(power_mw, self.lna, out=out)
        if v.dtype != np.float32:
            v = v.astype(float, copy=False)
        return self.cfg._detect(v)

    def _sums(self, power_mw: np.ndarray, out=None) -> np.ndarray:
        """The block sums of a whole trace, decision 0 (block 0) first.

        With the LPF on, the trace is detected (in place when out is
        power_mw) and block k, the spb samples that end at first + k spb,
        summed for every such sample in it. At COF 0 a block is its
        decision's sample: only the comb samples are detected, into a new
        array.
        """
        spb, first = self.spb, self.first
        if self.weights is None:
            # the LNA and the detector act sample by sample: take the comb first
            return self._detect(power_mw[first::spb])
        v = self._detect(power_mw, out=out)
        u = np.empty(len(range(first, v.size, spb)))
        if u.size:
            self._block_sums(self._head(v), out=u[:1])
            rows = v[first + 1:first + 1 + (u.size - 1) * spb].reshape(-1, spb)
            self._block_sums(rows, out=u[1:])
        return u

    def push(self, power_mw: np.ndarray) -> np.ndarray:
        """The decision voltages of a whole trace, from comb_offset on."""
        out = self._sums(power_mw)
        if self.weights is not None:
            out = self._filter(out)[self.skip:]
        if self.cfg.video_noise_sigma_v > 0:
            out += _comb_noise(self.cfg, self.rate, self.rng, self.offset,
                               out.size).astype(out.dtype, copy=False)
        return out


def _comb_offset(cfg: ReceiverConfig, sample_rate_hz: float,
                 phase_offset_us: float) -> int:
    """The one phase-to-sample rule: decisions fall on offset + k * spb.

    offset = round(phase_offset_us * spb / d_sample_us) with spb samples
    per d_sample. Also checks the threshold and the phase.
    """
    if cfg.threshold_v is None:
        raise ConfigurationError("threshold_v is not set; calibrate it first")
    if not (0.0 <= phase_offset_us < cfg.d_sample_us):
        raise ConfigurationError("phase_offset_us must lie in [0, d_sample_us)")
    spb = _samples_per_bit(cfg, sample_rate_hz)
    return int(round(phase_offset_us * spb / cfg.d_sample_us))


def sample_and_threshold(v: VoltageTrace, cfg: ReceiverConfig,
                         phase_offset_us: float = 0.0) -> BitStream:
    """Compare v on the decision comb of receive against the threshold."""
    rate = v.sample_rate_hz
    offset = _comb_offset(cfg, rate, phase_offset_us)
    bits = v.samples[offset::_samples_per_bit(cfg, rate)] > cfg.threshold_v
    return BitStream(bits=bits.astype(np.uint8), d_sample_us=cfg.d_sample_us,
                     phase_offset_us=phase_offset_us)


def filtered_voltage(trace: EnvelopeTrace, cfg: ReceiverConfig,
                     rng_seed=0) -> VoltageTrace:
    """Chain output before bit sampling, at every internal-rate sample.

    One push through ReceiverStream with d_sample set to one sample period,
    so every sample is a decision and threshold crossings can be located to
    one sample. The video noise is the comb noise at gap 1.
    """
    rate = trace.sample_rate_hz
    stream = ReceiverStream(replace(cfg, d_sample_us=1e6 / rate), rate,
                            np.random.default_rng(rng_seed))
    return VoltageTrace(samples=stream.push(trace.samples), sample_rate_hz=rate)


def receive(trace: EnvelopeTrace, cfg: ReceiverConfig,
            phase_offset_us: float = 0.0, rng_seed=0) -> BitStream:
    """Full receiver: deterministic given (trace, cfg, phase, rng_seed).

    The whole trace is one push through ReceiverStream, read on the comb
    of _comb_offset: ceil((N - offset) / spb) bits for an N-sample trace,
    which is ceil(duration / d_sample) at phase 0.
    """
    rate = trace.sample_rate_hz
    stream = ReceiverStream(cfg, rate, np.random.default_rng(rng_seed),
                            comb_offset=_comb_offset(cfg, rate, phase_offset_us))
    bits = (stream.push(trace.samples) > cfg.threshold_v).astype(np.uint8)
    return BitStream(bits=bits, d_sample_us=cfg.d_sample_us,
                     phase_offset_us=phase_offset_us)

"""Monte Carlo kernels for bit-level and frame-level statistics.

The bit kernels (noise_decision_voltages, signal_decision_voltages) run
the steps of receiver.ReceiverStream, the receiver chain that receive also
runs, on float32 pieces of input power, so that runs of 1e6+ bit decisions
(2e8+ envelope samples at 20 Msps) fit in memory and finish in seconds.
frame_error_trials runs the receiver chain once per trial, not once per
frame length (_TrialDecisions). One float32 path of its longest trace
holds the in-frame power, formed in place over the Exp(1) draws by the
block loop of add_noise (channel._rice_blocks, in blocks of
TRIAL_RICE_BLOCK); the noise power E is kept beforehand only where a
length reads it (_NoiseStore), 14% of the bench's trace. Both are
detected in place, the path by one whole-path numpy call, which releases
the GIL for long, and each length reads from them the bits that receive
would give on its whole trace. A trial holds the path and little else,
so three powers of harness.frame_error_sweep, which runs them on threads,
fit in memory side by side. Trials are seeded via SeedSequence spawning,
so results are deterministic regardless of how work is split.

The bit kernels cut the stream into pieces of whole decision blocks
(_settled_decisions), and every piece draws from its own child of the
kernel's SeedSequence, the comb noise from one more (L'Ecuyer et al.,
"Random numbers for parallel computers", 2017). The _BIT_WORKERS threads of
a ThreadPoolExecutor each draw a piece's power, detect it and sum its
decision blocks (ReceiverStream._detect and _block_sums), while the calling
thread draws the comb noise; the caller reads the sums in piece order and
runs the decision-rate filter once over them. So the decisions do not
depend on thread timing, the number of workers or the number of CPUs. The
workers are joined before the kernel returns, and their errors are raised
in the caller; there is no option. frame_error_trials runs on the thread
that calls it.

Only decisions leave the chain, so nothing after the detector runs at the
internal rate: the stream forms the LPF output at the decisions only and
adds the low-passed video noise on the decision comb itself
(the comb noise of receiver, 2 normals per decision).

At COF 0 (LPF bypassed) each decision reads one input sample, so the bit
kernels run the stream at the decision rate, rate / spb, and draw one power
sample per decision. This is exact, not an approximation: the in-frame
power is constant and the noise samples are iid, and at alpha = 1 the comb
video noise at rate / spb has the video-noise pole a^spb (Van Loan, IEEE
TAC 1978). frame_error_trials still draws its noise at the internal
rate; at COF 0 it detects only the comb samples.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .channel import _rice_blocks
from .codec import Alphabet
from .errors import ConfigurationError, _check_count
from .framing import _run_bounds
from .phy import FrameSpec, _frame_spans, build_tx_schedule, payload_for_duration
from .receiver import (BitStream, ReceiverConfig, ReceiverStream, _comb_offset,
                       _CombVideoNoise, _samples_per_bit)
from .seeding import seed_sequence
from .units import dbm_to_mw

# the samples of one piece of the bit kernels' stream: 1 MB of float32, so
# that it is still in cache when its worker detects it
PIECE_SAMPLES = 1 << 18
# the threads of the bit kernels, each drawing and detecting whole pieces
_BIT_WORKERS = 2
# the Rice block of frame_error_trials: 256 KB of float32 per buffer, larger
# than the 2^14 of add_noise, so that a trial makes fewer, larger numpy calls
TRIAL_RICE_BLOCK = 1 << 16


def _piece_sums(stream: ReceiverStream, amp, noise_mw: float, seed,
                n_samples: int) -> np.ndarray:
    """The block sums of one piece of n_samples input power, drawn from seed.

    The power is Exp(noise_mw) noise, or with a carrier of amplitude amp the
    Rice power, formed in place over the Exp(1) draws (channel._rice_blocks);
    a noiseless channel draws nothing. The piece is detected in place and
    summed per block of spb samples; at COF 0 a block is one sample, and
    the detected samples are returned.
    """
    power = np.empty(n_samples, dtype=np.float32)
    if noise_mw == 0.0:
        power[:] = 0.0 if amp is None else amp * amp
    else:
        rng = np.random.default_rng(seed)
        rng.standard_exponential(out=power, dtype=np.float32)
        if amp is None:
            power *= np.float32(noise_mw)
        else:
            _rice_blocks(rng, amp, power, noise_mw, power)
    v = stream._detect(power, out=power)
    if stream.weights is None:
        return v
    return stream._block_sums(v.reshape(-1, stream.spb))


def _settled_decisions(cfg: ReceiverConfig, rate: float, n_decisions: int,
                       rng_seed, settle_us: float, noise_mw: float,
                       amp=None) -> np.ndarray:
    """n_decisions decision voltages after settle_us of input power.

    The input power at rate (the channel's bandwidth) is noise of mean
    noise_mw, with a carrier of amplitude amp (sqrt(mW), float32) in it
    unless amp is None. At COF 0 the stream runs at the decision rate, one
    sample per decision (module docstring). Decision k reads the block of
    samples k spb to (k + 1) spb - 1 (comb offset spb - 1), so that no block
    begins before sample 0, and each piece holds max(1, PIECE_SAMPLES //
    spb) whole blocks; the seeds, the workers and the order in which the
    sums are read are those of the module docstring.
    """
    spb = _samples_per_bit(cfg, rate)
    if cfg.cof_hz == 0:
        rate, spb = rate / spb, 1
    n_blocks = n_decisions + int(np.ceil(settle_us / cfg.d_sample_us))
    per_piece = max(1, PIECE_SAMPLES // spb)
    sizes = [min(per_piece, n_blocks - b) * spb for b in range(0, n_blocks, per_piece)]
    noise_seed, *seeds = seed_sequence(rng_seed).spawn(len(sizes) + 1)
    stream = ReceiverStream(cfg, rate, np.random.default_rng(noise_seed),
                            comb_offset=spb - 1)
    with ThreadPoolExecutor(max_workers=_BIT_WORKERS) as pool:
        sums = pool.map(partial(_piece_sums, stream, amp, noise_mw), seeds, sizes)
        comb = None if stream.noise is None else stream.noise.take(n_blocks)
        dec = np.concatenate(list(sums))
    if stream.weights is not None:
        dec = stream._filter(dec)
    if comb is not None:
        dec += comb.astype(dec.dtype, copy=False)
    return dec[n_blocks - n_decisions:]


def noise_decision_voltages(cfg: ReceiverConfig, channel, n_decisions: int,
                            rng_seed=None, settle_us: float = 500.0) -> np.ndarray:
    """Decision voltages with no signal present (noise-only operation)."""
    _check_stream_input("n_decisions", n_decisions, settle_us)
    return _settled_decisions(cfg, channel.bandwidth_hz, n_decisions, rng_seed,
                              settle_us, channel.noise_floor_mw)


def signal_decision_voltages(cfg: ReceiverConfig, channel, rx_power_dbm: float,
                             n_bits: int, rng_seed=None,
                             settle_us: float = 500.0) -> np.ndarray:
    """Decision voltages with the signal continuously on at rx_power_dbm.

    Per-bit miss statistics inside a frame are stationary once the LPF has
    settled, so a continuous-on stream measures in-frame p(0|1) directly.
    rx_power_dbm is the level at the receiver input; the channel supplies
    only the noise floor here.
    """
    _check_rx_power(rx_power_dbm)
    _check_stream_input("n_bits", n_bits, settle_us)
    amp0 = np.float32(np.sqrt(dbm_to_mw(rx_power_dbm)))
    return _settled_decisions(cfg, channel.bandwidth_hz, n_bits, rng_seed,
                              settle_us, channel.noise_floor_mw, amp0)


def _check_rx_power(rx_power_dbm):
    """Reject a NaN or infinite received power before anything is drawn."""
    if not np.isfinite(rx_power_dbm):
        raise ConfigurationError(f"rx_power_dbm must be finite, got {rx_power_dbm}")


def _check_stream_input(key: str, n, settle_us):
    """The checks of the bit kernels: the count n, named key, and settle_us."""
    _check_count(key, n)
    if not 0 <= settle_us < np.inf:
        raise ConfigurationError(f"settle_us must be finite and >= 0, got {settle_us}")


def _check_trial_input(lengths_us, rx_power_dbm, n_frames, frames_per_trial):
    """The checks of frame_error_trials, also run by frame_error_sweep.

    Returns the lengths as floats: at least one, each once, since the
    errors are counted per length.
    """
    lengths = [float(x) for x in lengths_us]
    if not lengths or len(set(lengths)) < len(lengths):
        raise ConfigurationError(
            f"lengths_us must hold one or more distinct lengths, got {lengths}")
    _check_rx_power(rx_power_dbm)
    _check_count("n_frames", n_frames)
    _check_count("frames_per_trial", frames_per_trial)
    return lengths


def _score_trial(bits, length_us, starts_us, difs_us, margin_us, min_run_bits):
    """Number of detection errors among the frames of one trial's bits.

    Each surviving run goes to the frame whose window centre lies nearest
    its midpoint (the earlier frame on a tie) and counts there when it lies
    within half a window (length plus DIFS) of that centre. A frame is
    correct when exactly one run counts there and that run's duration
    estimate is within margin_us of the frame's length.
    """
    first, n_bits = _run_bounds(bits.bits, min_run_bits)
    centers = starts_us + length_us / 2.0
    half_window = (length_us + difs_us) / 2.0
    d_sample_us = bits.d_sample_us
    mid = bits.phase_offset_us + (first + (n_bits - 1) / 2.0) * d_sample_us
    # the nearest of the centres around each midpoint, the earlier on a tie
    j = np.searchsorted(centers, mid)
    lo, hi = np.maximum(j - 1, 0), np.minimum(j, centers.size - 1)
    k = np.where(np.abs(centers[lo] - mid) <= np.abs(centers[hi] - mid), lo, hi)
    inside = np.abs(mid - centers[k]) <= half_window
    good = np.abs(n_bits * d_sample_us - length_us) <= margin_us
    hits = np.bincount(k[inside], minlength=centers.size)
    good_hits = np.bincount(k[inside & good], minlength=centers.size)
    return int(centers.size - np.count_nonzero((hits == 1) & (good_hits == 1)))


def _merged(spans) -> np.ndarray:
    """The union of half-open sample spans (i0, i1), as the sorted disjoint
    rows of an (m, 2) array; spans that touch are joined."""
    spans = np.asarray(spans, dtype=np.int64).reshape(-1, 2)
    spans = spans[spans[:, 0] < spans[:, 1]]
    if not spans.size:
        return spans
    spans = spans[np.argsort(spans[:, 0], kind="stable")]
    ends = np.maximum.accumulate(spans[:, 1])
    # a span starts a new piece of the union where it starts after the end
    # of every span before it
    first = np.flatnonzero(np.r_[True, spans[1:, 0] > ends[:-1]])
    last = np.r_[first[1:], spans.shape[0]] - 1
    return np.stack((spans[first, 0], ends[last]), axis=1)


def _gaps(n_samples: int, frames: np.ndarray):
    """The idle spans of a trace, before, between and after its disjoint
    sorted frames (an (m, 2) array), as [i0, i1] lists."""
    return np.r_[0, frames.reshape(-1), n_samples].reshape(-1, 2).tolist()


def _conflicts(framed: np.ndarray, n_samples: int, frames) -> np.ndarray:
    """The bounds of a length's conflicts, sorted and distinct.

    framed holds the bounds of the union of every length's frames
    (_merged); the length's trace has n_samples and its disjoint frames,
    the rows (i0, i1) of an (m, 2) array (phy._frame_spans). Its conflicts
    are the samples below n_samples that another length's frame covers and
    none of its own does: the union clipped at n_samples, less its own
    frames. A sample lies in them after an odd number of their bounds, the
    bounds that occur an odd number of times among those of the clipped
    union and of its frames.
    """
    bounds = np.concatenate((np.minimum(framed, n_samples),
                             np.asarray(frames, dtype=np.int64).reshape(-1)))
    both, count = np.unique(bounds, return_counts=True)
    return both[count % 2 == 1]


class _NoiseStore:
    """The noise power E of one trial, kept only where a length reads it.

    spans holds (n_samples, frames) per length. A length reads E in the
    gaps of the union of every length's frames (framed), where the shared
    path of _TrialDecisions holds E too, and on its conflicts (_conflicts),
    where the shared path holds the in-frame power. Both are fixed by the
    spans, so before the in-frame power is formed over the trial's Exp(1)
    draws e, the store copies E = float32(noise_mw) e (the product of
    rice_terms) there: in the bench's 100-frame trial 14% of the longest
    trace. e None is a noiseless channel: E = 0.

    values holds the union of every length's conflicts first, span by span
    (conflicts, the (i0, i1) of each, and offsets, where each begins in
    values; n_conflict samples in all), then the union's gaps (gaps).
    """

    def __init__(self, spans, e=None, noise_mw: float = 0.0):
        spans = list(spans)
        framed = _merged(np.concatenate(
            [np.asarray(frames, dtype=np.int64).reshape(-1, 2) for _, frames in spans]))
        self.framed = framed.reshape(-1)
        self.gaps = _gaps(max(n for n, _ in spans), framed)
        pairs = np.concatenate([_conflicts(self.framed, *s) for s in spans])
        self.conflicts = _merged(pairs)
        sizes = self.conflicts[:, 1] - self.conflicts[:, 0]
        self.offsets = np.cumsum(sizes) - sizes
        self.n_conflict = int(sizes.sum())
        pieces = self.conflicts.tolist() + self.gaps
        self.values = np.zeros(sum(i1 - i0 for i0, i1 in pieces), dtype=np.float32)
        if e is not None:
            np.concatenate([e[i0:i1] for i0, i1 in pieces], out=self.values)
            self.values *= np.float32(noise_mw)

    def fill_gaps(self, path: np.ndarray):
        """Write E into the union's gaps of path."""
        o = self.n_conflict
        for g0, g1 in self.gaps:
            path[g0:g1] = self.values[o:o + g1 - g0]
            o += g1 - g0

    def at(self, samples: np.ndarray) -> np.ndarray:
        """The values at samples, sorted sample indices on the conflicts."""
        c0 = self.conflicts[:, 0]
        # each sample lies in the last conflict that starts at or before it
        counts = np.diff(np.searchsorted(samples, c0), prepend=0,
                         append=samples.size)
        shift = np.repeat(np.concatenate(([0], self.offsets - c0)), counts)
        return self.values[samples + shift]


class _TrialDecisions:
    """The receiver chain of one trial, run once for all its frame lengths.

    Each length's trace is the in-frame power inside its frames and the
    noise power E in its gaps, and every length is read on the comb of
    offset. The LNA and the detector act sample by sample, and the LPF is
    linear and read only at the decisions (ReceiverStream), so the chain
    runs on one shared path and on the store of E (_NoiseStore), not on
    each trace.

    path holds the in-frame power over the longest trace; E goes into it
    wherever no length has a frame (_NoiseStore.fill_gaps), which makes it
    the shared path: every length's trace but on that length's conflicts
    (_conflicts). It is detected in place and summed once per decision
    block (ReceiverStream._block_sums). The store's conflicts are detected
    in one call, in place, and only the blocks that lie wholly inside them
    are summed, gathered into one call. A decision takes the noise sum when
    its sample lies in a conflict and the shared sum otherwise; only a
    block that a conflict bound cuts is formed and summed on its own
    (_rows): noise samples on the conflicts, the shared path elsewhere,
    zeros before sample 0. The decision-rate filter (ReceiverStream._filter)
    then gives the decisions of receive on the length's whole trace. At
    COF 0 a decision reads one sample: only the comb samples are detected,
    and the same rule picks them, without rows or filter. One length alone
    has no conflicts and reads no noise sum.
    """

    def __init__(self, cfg: ReceiverConfig, rate: float, offset: int,
                 path: np.ndarray, store: _NoiseStore):
        self.stream = stream = ReceiverStream(cfg, rate, None, comb_offset=offset)
        self.threshold_v = cfg.threshold_v
        spb = stream.spb
        if stream.weights is None:
            # decision k reads sample offset + k spb, and only that one
            self.first, self.skip = offset, 0
        else:
            # as in the stream, the comb is extended back to sample offset % spb:
            # decision k sums the block of spb samples that ends at first + k spb
            self.first, self.skip = offset % spb, offset // spb
        self.path, self.store = path, store
        store.fill_gaps(path)
        n_dec = len(range(self.first, path.size, spb))
        # NaN where no block of the noise lies wholly inside the conflicts:
        # bits raises if it reads one; at COF 0 the sums are detector
        # samples, in the path's dtype
        dtype = float if stream.weights is not None else path.dtype
        self.sums = np.full((2, n_dec), np.nan, dtype=dtype)
        self._sum_path(self.sums[0])
        if store.n_conflict:
            self._sum_noise(self.sums[1])

    def _head(self, x: np.ndarray) -> np.ndarray:
        """Block 0 as one row: zeros before sample 0, then x[:first + 1]."""
        spb, first = self.stream.spb, self.first
        return np.concatenate((np.zeros(spb - 1 - first), x[:first + 1]))[None]

    def _sum_path(self, out: np.ndarray):
        """Detect the shared path in place; the sums of its blocks into out.

        At COF 0 a block is its decision's sample, and only those are
        detected.
        """
        stream, first, path = self.stream, self.first, self.path
        spb = stream.spb
        if stream.weights is None:
            out[:] = stream._detect(path[first::spb])
            return
        stream._detect(path, out=path)
        if out.size:
            stream._block_sums(self._head(path), out=out[:1])
            rows = path[first + 1:first + 1 + (out.size - 1) * spb].reshape(-1, spb)
            stream._block_sums(rows, out=out[1:])

    def _sum_noise(self, out: np.ndarray):
        """The sums of the noise blocks wholly inside the conflicts into out.

        The store's conflicts are detected in place by one call (at COF 0
        only the comb samples, gathered), and the blocks are gathered into
        one call of _block_sums.
        """
        stream, first, store = self.stream, self.first, self.store
        spb = stream.spb
        c0, c1 = store.conflicts.T
        # a block is the width samples up to its decision's sample
        width = 1 if stream.weights is None else spb
        # per conflict, the blocks from the first that starts at or after c0
        # to the last that ends before c1, and where each starts in values
        k0 = np.maximum(-((first + 1 - width - c0) // spb), 0)
        counts = np.maximum(-((first - c1) // spb) - k0, 0)
        starts = np.cumsum(counts) - counts
        ks = np.arange(counts.sum()) + np.repeat(k0 - starts, counts)
        pos = ks * spb + first + 1 - width + np.repeat(store.offsets - c0, counts)
        values = store.values[:store.n_conflict]
        if stream.weights is None:
            out[ks] = stream._detect(values[pos])
            return
        stream._detect(values, out=values)
        if c0[0] == 0 and first + 1 < spb and c1[0] > first:
            # block 0, which begins with zeros, lies inside the first conflict
            stream._block_sums(self._head(values), out=out[:1])
        if ks.size:
            out[ks] = stream._block_sums(sliding_window_view(values, spb)[pos])

    def _blocks(self, bounds: np.ndarray, n_dec: int):
        """Which of n_dec decisions lie inside, and which blocks bounds cut.

        bounds are sorted sample indices; a sample lies inside after an
        odd number of them. Returns, per decision, whether its sample (the
        last of its block) lies inside, whether a bound falls in its block
        after the block's first sample, and the block of each bound.
        """
        spb, first = self.stream.spb, self.first
        # the first decision at or after each bound
        kb = np.clip(-((first - bounds) // spb), 0, n_dec)
        inside = np.repeat(np.arange(bounds.size + 1) % 2 == 1,
                           np.diff(kb, prepend=0, append=n_dec))
        cut = np.zeros(n_dec + 1, dtype=bool)
        if self.stream.weights is not None:
            lo = first + 1 - spb + spb * kb
            cut[kb[np.maximum(lo, 0) < bounds]] = True
        return inside, cut[:n_dec], kb

    def bits(self, n_samples: int, frames, noise, length_us=None) -> np.ndarray:
        """The bits of the trace of n_samples with the frames (i0, i1).

        Unless None, noise holds the comb noise (_CombVideoNoise.take) of a
        trace at least as long: its prefix is added to the decisions.
        Raises RuntimeError, naming length_us (the trace's frame length),
        if a decision reads a noise sum that was not formed, which only a
        store that lacks samples of the conflicts leaves.
        """
        stream = self.stream
        n_dec = len(range(self.first, n_samples, stream.spb))
        conflicts = _conflicts(self.store.framed, n_samples, frames)
        inside, cut, kb = self._blocks(conflicts, n_dec)
        shared, idle = (sums[:n_dec] for sums in self.sums)
        v = np.where(inside, idle, shared)
        ks = np.flatnonzero(cut)
        if ks.size:
            v[ks] = stream._block_sums(self._rows(ks, kb, conflicts))
        unread = np.flatnonzero(np.isnan(v))
        if unread.size:
            raise RuntimeError(
                f"frame length {length_us} us ({n_samples} samples): decisions "
                f"{unread[:5].tolist()} read noise sums that the store did "
                f"not form")
        if stream.weights is not None:
            v = stream._filter(v)[self.skip:]
        if noise is not None:
            v += noise[:v.size].astype(v.dtype, copy=False)
        return (v > self.threshold_v).astype(np.uint8)

    def _rows(self, ks, kb, bounds) -> np.ndarray:
        """The detector samples of the blocks ks.

        Each sample comes from the store inside bounds (a length's
        conflicts) and from the shared path outside them; block 0 begins
        with zeros. kb holds the block of each bound (_blocks).
        """
        spb, shared, store = self.stream.spb, self.path, self.store
        rows = np.empty((ks.size, spb), dtype=shared.dtype)
        lo = self.first + 1 - spb + spb * ks
        head = int(lo[0] < 0)
        if head:
            n0 = self.first + 1
            inside = np.searchsorted(bounds, np.arange(n0), side="right") % 2 == 1
            rows[0, :spb - n0] = 0.0
            row = rows[0, spb - n0:]
            row[:] = shared[:n0]
            row[inside] = store.at(np.flatnonzero(inside))
        lo, ks = lo[head:], ks[head:]
        if ks.size:
            # inside or not, per sample: the state before the row, then a
            # toggle at each bound in it (the bounds are distinct)
            toggles = np.zeros((ks.size, spb), dtype=bool)
            j = np.searchsorted(ks, kb)
            own = (j < ks.size) & (ks[np.minimum(j, ks.size - 1)] == kb)
            toggles[j[own], bounds[own] - lo[j[own]]] = True
            inside = np.logical_xor.accumulate(toggles, axis=1, out=toggles)
            inside ^= (np.searchsorted(bounds, lo) % 2 == 1)[:, None]
            body = rows[head:]
            body[:] = sliding_window_view(shared, spb)[lo]
            body[inside] = store.at((lo[:, None] + np.arange(spb))[inside])
        return rows


def frame_error_trials(lengths_us, rx_power_dbm, cfg: ReceiverConfig,
                       channel, alphabet: Alphabet, n_frames: int,
                       rng_seed=None, frames_per_trial: int = 100, cw: int = 1,
                       lead_us: float = 200.0, tail_us: float = 300.0,
                       min_run_bits: int = 3):
    """Per-frame detection errors for every length at one received power.

    Frames are transmitted in DIFS-plus-backoff schedules of frames_per_trial
    each; every trial gets its own sampling-comb phase drawn uniformly in
    [0, d_sample), which models the unsynchronized transmitter and receiver.
    A frame counts as correct when exactly one surviving run falls in its
    timing window and that run's duration estimate matches the transmitted
    symbol. Merged, split, erased, and spurious-run outcomes are all errors.

    All lengths in a trial share one noise sample path, one slow-noise path,
    and one comb phase (common random numbers), so measured error-rate
    differences between lengths reflect frame length rather than Monte Carlo
    scatter. The shared work is done once per trial, over its longest
    trace: the noise power E, kept only where a length reads it
    (_NoiseStore), and the in-frame Rice power (between frames the
    amplitude is 0 and the power is E), formed over the Exp(1) draws in
    place, block by block, by channel._rice_blocks, with the bytes of
    rice_combine(amp, *rice_noise(...)); their detection and block sums
    (_TrialDecisions); and the comb-noise path drawn from the trial's
    video-noise seed. Each length's trace is the in-frame power within its
    frames and E between them, and it gets the bits of receive on that
    trace with the same seed. A trial holds one float32 array of its
    longest trace, so that harness.frame_error_sweep can run three powers
    at once.

    Returns {length_us: (n_errors, n_frames)}.
    """
    lengths = _check_trial_input(lengths_us, rx_power_dbm, n_frames,
                                 frames_per_trial)
    rate = channel.bandwidth_hz
    payloads = {length: payload_for_duration(length) for length in lengths}
    noise_mw = channel.noise_floor_mw
    amp0 = np.float32(np.sqrt(dbm_to_mw(rx_power_dbm)))
    n_trials = int(np.ceil(n_frames / frames_per_trial))
    seeds = seed_sequence(rng_seed).spawn(n_trials)
    errors = {length: 0 for length in lengths}
    total = 0
    for seed in seeds:
        b = min(frames_per_trial, n_frames - total)
        s_sched, s_run, s_video = seed.spawn(3)
        rng = np.random.default_rng(s_run)
        schedules = {
            length: build_tx_schedule([FrameSpec(payloads[length])] * b, cw=cw,
                                      rng_seed=s_sched)
            for length in lengths
        }
        spans = {length: _frame_spans(s, rate, lead_us, tail_us)
                 for length, s in schedules.items()}
        n_max = max(n for n, _ in spans.values())
        # one power path for every length (common random numbers): E where
        # a length reads it is kept aside, then the in-frame power is
        # formed over the Exp(1) draws in place
        if noise_mw > 0:
            path = rng.standard_exponential(n_max, dtype=np.float32)
            store = _NoiseStore(spans.values(), path, noise_mw)
            _rice_blocks(rng, amp0, path, noise_mw, path, block=TRIAL_RICE_BLOCK)
        else:
            path = np.full(n_max, amp0 * amp0)
            store = _NoiseStore(spans.values())
        phase_us = float(rng.uniform(0.0, cfg.d_sample_us))
        offset = _comb_offset(cfg, rate, phase_us)
        noise = None
        if cfg.video_noise_sigma_v > 0:
            # at the decisions offset + k spb of the longest trace
            n_dec = len(range(offset, n_max, _samples_per_bit(cfg, rate)))
            noise = _CombVideoNoise(cfg, rate, np.random.default_rng(s_video),
                                    offset).take(n_dec)
        chain = _TrialDecisions(cfg, rate, offset, path, store)
        for length in lengths:
            schedule = schedules[length]
            bits = chain.bits(*spans[length], noise, length_us=length)
            starts_us = lead_us + np.array([t for t, _ in schedule.events])
            errors[length] += _score_trial(
                BitStream(bits, cfg.d_sample_us, phase_us), length, starts_us,
                schedule.difs_us, alphabet.margin_us, min_run_bits)
        total += b
        # free this trial's path and store before the next trial draws its own
        del path, store, chain
    return {length: (errors[length], total) for length in lengths}

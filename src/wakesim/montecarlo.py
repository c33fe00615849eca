"""Chunked Monte Carlo kernels for bit-level and frame-level statistics.

The bit kernels (noise_decision_voltages, signal_decision_voltages) drive
receiver.ReceiverStream, the receiver chain that receive also runs, with
float32 chunks of input power, so that runs of 1e6+ bit decisions (2e8+
envelope samples at 20 Msps) fit in memory and finish in seconds.
frame_error_trials runs the receiver chain once per trial, not once per
frame length. It forms the float32 Rice draw of channel by the block loop
of add_noise (channel._rice_blocks, in blocks of TRIAL_RICE_BLOCK) into
the noise power and the in-frame power, which takes the noise power
wherever no length has a frame. It detects each of these two paths once,
in place, and sums each once per decision block (_TrialDecisions, with
the block sums and the decision-rate filter of ReceiverStream); the noise
power only over the gaps that another length's frame overlaps. Each
length takes the in-frame path's sums, the noise sums inside such gaps,
forms only the blocks that such a gap's edge cuts, filters at the
decision rate and adds a prefix of one comb-noise array
(receiver._CombVideoNoise.take): the bits that receive would give on its
whole trace with the trial's video-noise seed. A trial holds two float32
arrays of its longest trace and little else, so two powers of
harness.frame_error_sweep, which runs them on two threads, fit in memory
side by side; its numpy calls run over whole paths, so they release the
GIL for long. Trials are seeded via SeedSequence spawning, so results are
deterministic regardless of how work is split.

The bit kernels run as a two-stage pipeline (_settled_decisions). The
calling thread makes every draw, in the order of one stream pushed chunk
by chunk, and fills the input power in pieces of PIECE_SAMPLES; the one
worker of a ThreadPoolExecutor runs the LNA, the detector and the LPF on
each piece (ReceiverStream._voltages, which draws nothing) while the
caller draws the next. For the p(0|1) streams the caller forms only the
Rice terms E and X (channel.rice_terms) and the worker combines them into
the power (channel.rice_combine) before the chain, so the caller, which
the draws keep busy, does less. Only the caller touches the Generator,
every step is elementwise and the chain is chunk-invariant, so the
decisions do not depend on thread timing or the number of CPUs. The
worker is joined before the kernel returns, and its errors are raised in
the caller; there is no option. frame_error_trials runs on the thread
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
rate; at COF 0 it detects only the comb samples of its two paths.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .channel import _rice_blocks, rice_combine, rice_terms
from .codec import Alphabet
from .errors import ConfigurationError
from .framing import _run_bounds
from .phy import FrameSpec, _frame_spans, build_tx_schedule, payload_for_duration
from .receiver import (BitStream, ReceiverConfig, ReceiverStream, _comb_offset,
                       _CombVideoNoise, _samples_per_bit)
from .seeding import seed_sequence
from .units import dbm_to_mw

CHUNK_SAMPLES = 1 << 22
# the piece of a chunk that the bit kernels hand to their worker thread:
# 1 MB of float32, so that it is still in cache when the chain reads it
PIECE_SAMPLES = 1 << 18
# piece buffers shared by the two threads: one being drawn into, the
# others queued for or read by the chain
_PIECE_BUFFERS = 3
# the Rice block of frame_error_trials: 256 KB of float32 per buffer, larger
# than the 2^14 of add_noise, so that a trial makes fewer, larger numpy calls
TRIAL_RICE_BLOCK = 1 << 16
# gaps of a trial closer than this are detected as one span of its noise
# power: the calls per span cost more than the samples between, and one
# long call releases the GIL for long
_NOISE_JOIN = 1 << 15


def _stream_rate(cfg: ReceiverConfig, rate: float) -> float:
    """Sample rate of the bit kernels' stream: the decision rate at COF 0.

    With the LPF bypassed each decision reads one input sample, so only
    those samples are drawn (module docstring).
    """
    return rate / _samples_per_bit(cfg, rate) if cfg.cof_hz == 0 else rate


def _input_power(rng, out: np.ndarray, noise_mw: float, amp):
    """One piece of input power (mW, float32) into out, other than Rice power.

    Noise alone (amp None): Exp(noise_mw) drawn here. noise_mw = 0: amp^2,
    or 0 with amp None, and nothing is drawn.
    """
    if noise_mw == 0.0:
        out[:] = 0.0 if amp is None else amp * amp
    else:
        rng.standard_exponential(out=out, dtype=np.float32)
        out *= np.float32(noise_mw)


def _rice_voltages(stream: ReceiverStream, amp, e: np.ndarray,
                   x: np.ndarray) -> np.ndarray:
    """The chain's voltages of one piece of Rice power, formed in x.

    e and x hold the piece's terms E and X (rice_terms); the power
    amp^2 + E + 2 amp X overwrites x before the chain reads it.
    """
    return stream._voltages(rice_combine(amp, e, x, out=x))


def _settled_decisions(cfg: ReceiverConfig, rate: float, n_decisions: int, rng,
                       settle_us: float, noise_mw: float,
                       amp=None) -> np.ndarray:
    """n_decisions decision voltages after settle_us of input power.

    rate is the stream's rate (_stream_rate): at COF 0 one sample per
    decision. The input power is noise of mean noise_mw, with a carrier of
    amplitude amp (sqrt(mW), float32) in it unless amp is None.

    Two stages run side by side. The calling thread makes every draw, in
    one fixed order: per chunk of CHUNK_SAMPLES samples, the input power,
    for the Rice power all its Exp(1) variates before all its uniforms,
    then the comb video noise of the decisions that fall in the chunk.
    It fills the power in pieces of PIECE_SAMPLES and hands each piece to
    the one worker thread of a ThreadPoolExecutor, which runs the LNA, the
    detector and the LPF on it (ReceiverStream._voltages), while the caller
    draws the next piece. For the Rice power the caller draws a piece's
    uniforms into the piece buffer and forms the terms E and X there and in
    the chunk's Exp(1) array (rice_terms, sqrt(E) in one scratch buffer);
    the worker combines them into the power in place (_rice_voltages), so
    every piece buffer is the only copy of its piece. The chain is
    chunk-invariant (ReceiverStream), every step elementwise, and only the
    caller touches rng, so the decisions are those of one stream pushed
    chunk by chunk, whatever the thread timing or the number of CPUs.
    Before a piece buffer is reused, and before the next chunk's Exp(1)
    variates are drawn over the slice of the chunk array that a piece in
    flight reads, the caller waits for that piece's result; result() also
    raises here any error of the worker, and leaving the with block joins
    the worker.
    """
    spb = _samples_per_bit(cfg, rate)
    settle = int(np.ceil(settle_us / cfg.d_sample_us))
    n_samples = (n_decisions + settle - 1) * spb + 1
    stream = ReceiverStream(cfg, rate, rng)
    # the comb noise, drawn here: the worker runs only the chain
    noise, comb = stream.noise, []
    rice = amp is not None and noise_mw > 0
    if rice:
        # the Exp(1) draws of one chunk, which become E; sqrt(E) of one piece
        e = np.empty(min(CHUNK_SAMPLES, n_samples), dtype=np.float32)
        root = np.empty(min(PIECE_SAMPLES, n_samples), dtype=np.float32)
    # the voltages of each piece; (future, buffer, offset in its chunk) of
    # the pieces in flight, oldest first; the piece buffers free for reuse
    parts, pending, free = [], deque(), []

    def retire():
        future, buf, _ = pending.popleft()
        parts.append(future.result())
        free.append(buf)

    with ThreadPoolExecutor(max_workers=1) as chain:
        for c0 in range(0, n_samples, CHUNK_SAMPLES):
            c1 = min(c0 + CHUNK_SAMPLES, n_samples)
            if rice:
                # slice by slice: the last chunk's pieces in flight read e
                for s0 in range(0, c1 - c0, PIECE_SAMPLES):
                    s1 = min(s0 + PIECE_SAMPLES, c1 - c0)
                    while pending and pending[0][2] < s1:
                        retire()
                    rng.standard_exponential(out=e[s0:s1], dtype=np.float32)
            for p0 in range(c0, c1, PIECE_SAMPLES):
                m = min(PIECE_SAMPLES, c1 - p0)
                if not free and len(pending) == _PIECE_BUFFERS:
                    retire()
                buf = free.pop() if free else np.empty(PIECE_SAMPLES, dtype=np.float32)
                x = buf[:m]
                if rice:
                    ep = e[p0 - c0:p0 - c0 + m]
                    rng.random(out=x, dtype=np.float32)
                    rice_terms(ep, x, noise_mw, root[:m])
                    future = chain.submit(_rice_voltages, stream, amp, ep, x)
                else:
                    _input_power(rng, x, noise_mw, amp)
                    future = chain.submit(stream._voltages, x)
                pending.append((future, buf, p0 - c0))
            if noise is not None:
                # the decisions k spb that fall in [c0, c1)
                k0, k1 = -(-c0 // spb), -(-c1 // spb)
                comb.append(noise.take(k1 - k0))
        while pending:
            retire()
    dec = np.concatenate(parts)
    if comb:
        dec += np.concatenate(comb).astype(dec.dtype, copy=False)
    return dec[settle:settle + n_decisions]


def noise_decision_voltages(cfg: ReceiverConfig, channel, n_decisions: int,
                            rng_seed=None, settle_us: float = 500.0) -> np.ndarray:
    """Decision voltages with no signal present (noise-only operation)."""
    _check_stream_input("n_decisions", n_decisions, settle_us)
    return _settled_decisions(cfg, _stream_rate(cfg, channel.bandwidth_hz),
                              n_decisions, np.random.default_rng(rng_seed),
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
    return _settled_decisions(cfg, _stream_rate(cfg, channel.bandwidth_hz),
                              n_bits, np.random.default_rng(rng_seed),
                              settle_us, channel.noise_floor_mw, amp0)


def _check_rx_power(rx_power_dbm):
    """Reject a NaN or infinite received power before anything is drawn."""
    if not np.isfinite(rx_power_dbm):
        raise ConfigurationError(f"rx_power_dbm must be finite, got {rx_power_dbm}")


def _check_count(key: str, value):
    """Reject a count that is not an integer >= 1 before anything is drawn."""
    if not isinstance(value, (int, np.integer)) or value < 1:
        raise ConfigurationError(f"{key} must be an integer >= 1, got {value!r}")


def _check_stream_input(key: str, n, settle_us):
    """The checks of the bit kernels: the count n, named key, and settle_us."""
    _check_count(key, n)
    if not 0 <= settle_us < np.inf:
        raise ConfigurationError(f"settle_us must be finite and >= 0, got {settle_us}")


def _check_trial_input(rx_power_dbm, n_frames, frames_per_trial):
    """The checks of frame_error_trials, also run by frame_error_sweep."""
    _check_rx_power(rx_power_dbm)
    if not n_frames >= 1:
        raise ConfigurationError("n_frames must be >= 1")
    if not frames_per_trial >= 1:
        raise ConfigurationError("frames_per_trial must be >= 1")


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


def _merged(spans, join: int = 0):
    """The union of half-open sample spans (i0, i1), as sorted disjoint lists.

    Spans fewer than join samples apart become one, with the samples
    between them.
    """
    out = []
    for i0, i1 in sorted(spans):
        if i0 >= i1:
            continue
        if out and i0 <= out[-1][1] + join:
            out[-1][1] = max(out[-1][1], i1)
        else:
            out.append([i0, i1])
    return out


def _gaps(n_samples: int, frames):
    """The idle spans of a trace: before, between and after its frames."""
    return list(zip([0] + [i1 for _, i1 in frames],
                    [i0 for i0, _ in frames] + [n_samples]))


class _TrialDecisions:
    """The receiver chain of one trial, run once for all its frame lengths.

    Each length's trace is in_frame (the in-frame power) inside its frames
    and idle (the noise power E) in its gaps, and every length is read on
    the comb of offset. The LNA and the detector act sample by sample, and
    the LPF is linear and read only at the decisions (ReceiverStream), so
    the chain runs on shared power paths, not on each trace.

    With the LPF on, in_frame becomes the shared path: E is copied into it
    wherever no length has a frame, so it is every length's trace except
    on that length's conflicts, the samples of its gaps that lie in another
    length's frame. The path is detected once, in place, and summed once
    per decision block (ReceiverStream._block_sums), and so is idle, but
    only over the gaps that hold conflicts (those closer than _NOISE_JOIN
    as one span). A length's decision whose block holds none of its
    conflicts takes the shared sum, one whose block lies wholly inside one
    of its gaps the noise sum, and only a block that holds conflicts and
    is cut by one of its frame edges is formed and summed on its own:
    noise samples on the conflicts, the shared path elsewhere, zeros
    before sample 0. The decision-rate filter
    (ReceiverStream._filter) then gives the decisions of one stream pushed
    the length's whole trace, which are those of receive on it. One length
    alone has no conflicts, so its trace is the shared path and idle is
    not detected at all.

    At COF 0 a decision reads one sample: only the comb samples of in_frame
    and idle are detected, and each length picks one or the other.
    spans holds (n_samples, frames) per length.
    """

    def __init__(self, cfg: ReceiverConfig, rate: float, offset: int,
                 in_frame: np.ndarray, idle: np.ndarray, spans):
        self.stream = stream = ReceiverStream(cfg, rate, None, comb_offset=offset)
        self.threshold_v = cfg.threshold_v
        spb = stream.spb
        if stream.weights is None:
            # decision k reads sample offset + k spb, and only that one
            self.first, self.skip = offset, 0
            self.sums = [stream._detect(p[offset::spb]) for p in (in_frame, idle)]
            return
        # as in the stream, the comb is extended back to sample offset % spb:
        # decision k sums the block of spb samples that ends at first + k spb
        self.first, self.skip = offset % spb, offset // spb
        self.paths = (in_frame, idle)
        spans = list(spans)
        n_max = in_frame.size
        framed = _merged(f for _, frames in spans for f in frames)
        self.framed = np.array(framed, dtype=np.int64).reshape(-1)
        for g0, g1 in _gaps(n_max, framed):
            in_frame[g0:g1] = idle[g0:g1]
        # the gaps that some other length's frame overlaps
        starts, ends = self.framed[0::2], self.framed[1::2]
        noisy = []
        for n, frames in spans:
            gaps = np.array(_gaps(n, frames))
            # the first frame of any length that ends after each gap starts
            j = np.searchsorted(ends, gaps[:, 0], side="right")
            hit = j < starts.size
            hit[hit] = starts[j[hit]] < gaps[hit, 1]
            noisy += gaps[hit].tolist()
        n_dec = len(range(self.first, n_max, spb))
        # NaN where no span holds the whole block: a read there would show
        self.sums = [np.full(n_dec, np.nan), np.full(n_dec, np.nan)]
        self._detect_and_sum(in_frame, [(0, n_max)], self.sums[0])
        self._detect_and_sum(idle, _merged(noisy, _NOISE_JOIN), self.sums[1])

    def _detect_and_sum(self, power: np.ndarray, spans, out: np.ndarray):
        """Detect power in place over each span; the sums of its blocks into out.

        Only the blocks that lie wholly inside a span are summed, each
        into its decision's place in out; block 0 begins with zeros.
        """
        stream, first = self.stream, self.first
        spb = stream.spb
        for g0, g1 in spans:
            stream._detect(power[g0:g1], out=power[g0:g1])
            # the blocks from the first that starts at or after g0 up to the
            # last that ends before g1
            k0 = 0 if g0 == 0 else 1 - (first + 1 - g0) // spb
            k1 = len(range(first, g1, spb))
            if k0 == 0 and k1 > 0:
                head = np.concatenate((np.zeros(spb - 1 - first), power[:first + 1]))
                stream._block_sums(head[None], out=out[:1])
                k0 = 1
            if k1 > k0:
                s0 = first + 1 + (k0 - 1) * spb
                rows = power[s0:s0 + (k1 - k0) * spb].reshape(-1, spb)
                stream._block_sums(rows, out=out[k0:k1])

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

    def bits(self, n_samples: int, frames, noise) -> np.ndarray:
        """The bits of the trace of n_samples with the frames (i0, i1).

        Unless None, noise holds the comb noise (_CombVideoNoise.take) of a
        trace at least as long: its prefix is added to the decisions.
        """
        stream = self.stream
        n_dec = len(range(self.first, n_samples, stream.spb))
        bounds = np.array(frames, dtype=np.int64).reshape(-1)
        path_sums, idle_sums = self.sums[0][:n_dec], self.sums[1][:n_dec]
        if stream.weights is None:
            in_frame, _, _ = self._blocks(bounds, n_dec)
            v = np.where(in_frame, path_sums, idle_sums)
        else:
            # the conflicts lie inside an odd number of this length's frames
            # and the frames of all lengths
            both, count = np.unique(np.concatenate((self.framed, bounds)),
                                    return_counts=True)
            conflicts = both[count % 2 == 1]
            inside, cut, kb = self._blocks(conflicts, n_dec)
            v = path_sums.copy()
            mixed = inside | cut
            if mixed.any():
                in_frame, edge, _ = self._blocks(bounds, n_dec)
                gap = mixed & ~in_frame & ~edge
                v[gap] = idle_sums[gap]
                ks = np.flatnonzero(mixed & (in_frame | edge))
                if ks.size:
                    v[ks] = stream._block_sums(self._rows(ks, kb, conflicts))
            v = stream._filter(v)[self.skip:]
        if noise is not None:
            v += noise[:v.size].astype(v.dtype, copy=False)
        return (v > self.threshold_v).astype(np.uint8)

    def _rows(self, ks, kb, bounds) -> np.ndarray:
        """The detector samples of the blocks ks.

        Each sample comes from idle inside bounds (a length's conflicts)
        and from the shared path outside them; block 0 begins with zeros.
        kb holds the block of each bound (_blocks).
        """
        spb, (shared, idle) = self.stream.spb, self.paths
        rows = np.empty((ks.size, spb), dtype=shared.dtype)
        lo = self.first + 1 - spb + spb * ks
        head = int(lo[0] < 0)
        if head:
            n0 = self.first + 1
            inside = np.searchsorted(bounds, np.arange(n0), side="right") % 2 == 1
            rows[0, :spb - n0] = 0.0
            rows[0, spb - n0:] = np.where(inside, idle[:n0], shared[:n0])
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
            np.copyto(body, sliding_window_view(idle, spb)[lo], where=inside)
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
    trace: the noise power E and the in-frame Rice power (between frames
    the amplitude is 0 and the power is E), formed from the Exp(1) draws
    block by block by channel._rice_blocks, with the bytes of
    rice_combine(amp, *rice_noise(...)); their detection and block sums
    (_TrialDecisions); and the comb-noise path drawn from the trial's
    video-noise seed. Each length's trace is the in-frame power within its
    frames and E between them; it reads its decisions from the shared
    sums, forming only the blocks where another length's frame overlaps
    one of its gaps and an edge cuts the block, and a prefix of that path:
    the bits of receive on the whole trace with the same seed.

    Returns {length_us: (n_errors, n_frames)}.
    """
    _check_trial_input(rx_power_dbm, n_frames, frames_per_trial)
    lengths = [float(x) for x in lengths_us]
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
        # one power path for every length (common random numbers)
        if noise_mw > 0:
            # idle holds the Exp(1) draws, then E
            idle = rng.standard_exponential(n_max, dtype=np.float32)
            in_frame = np.empty_like(idle)
            _rice_blocks(rng, amp0, idle, noise_mw, in_frame,
                         block=TRIAL_RICE_BLOCK)
        else:
            in_frame = np.full(n_max, amp0 * amp0)
            idle = np.zeros(n_max, dtype=np.float32)
        phase_us = float(rng.uniform(0.0, cfg.d_sample_us))
        offset = _comb_offset(cfg, rate, phase_us)
        noise = None
        if cfg.video_noise_sigma_v > 0:
            # at the decisions offset + k spb of the longest trace
            n_dec = len(range(offset, n_max, _samples_per_bit(cfg, rate)))
            noise = _CombVideoNoise(cfg, rate, np.random.default_rng(s_video),
                                    offset).take(n_dec)
        chain = _TrialDecisions(cfg, rate, offset, in_frame, idle, spans.values())
        for length in lengths:
            schedule = schedules[length]
            bits = chain.bits(*spans[length], noise)
            starts_us = lead_us + np.array([t for t, _ in schedule.events])
            errors[length] += _score_trial(
                BitStream(bits, cfg.d_sample_us, phase_us), length, starts_us,
                schedule.difs_us, alphabet.margin_us, min_run_bits)
        total += b
        # free this trial's paths before the next trial draws its own
        del idle, in_frame, chain
    return {length: (errors[length], total) for length in lengths}

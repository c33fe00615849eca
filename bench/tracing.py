"""Span tracing around the calls into each layer of the simulator.

The tracer wraps, from outside the program, every public function of each
layer module and every public method (plus __post_init__) of the public
classes defined there. A wrapped function is replaced wherever a wakesim
module holds a reference to it, so calls between layers are caught as well
as calls from the benchmark. A call from a layer into itself opens no span;
a call into another layer opens a child span. A layer's self time is the
duration of its spans minus the part covered by their child spans. The pass
itself is a root span of the benchmark's own layer, whose self time is the
time no layer accounts for.

Spans are kept in memory as (id, name, parent id, start ns, end ns,
attempt id) and written out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter_ns

from samples import cc2420_samples, frame_trial_samples, stream_samples

LAYERS = ("phy", "channel", "receiver", "montecarlo", "framing", "codec",
          "cc2420", "harness")
BENCH_LAYER = "bench"

# Unit of each layer's work count.
WORK_UNITS = {
    "phy": "frames", "channel": "samples", "receiver": "samples",
    "montecarlo": "samples", "framing": "bits", "codec": "ids",
    "cc2420": "samples", "harness": "decisions",
}


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _size(x) -> int:
    return int(getattr(x, "samples", x).size)


def _first_size(a, k, r):
    return _size(a[0] if a else next(iter(k.values())))


def _stream(n_index, n_name, settle_index):
    def work(a, k, r):
        cfg = _arg(a, k, 0, "cfg")
        chan = _arg(a, k, 1, "channel")
        return stream_samples(_arg(a, k, n_index, n_name), cfg.d_sample_us,
                              chan.bandwidth_hz,
                              _arg(a, k, settle_index, "settle_us", 500.0))
    return work


def _frame_trials(a, k, r):
    return frame_trial_samples(
        [float(x) for x in _arg(a, k, 0, "lengths_us")], _arg(a, k, 5, "n_frames"),
        _arg(a, k, 7, "frames_per_trial", 100), _arg(a, k, 9, "lead_us", 200.0),
        _arg(a, k, 10, "tail_us", 300.0), _arg(a, k, 3, "channel").bandwidth_hz)


def _count_distribution(a, k, r):
    return cc2420_samples(_arg(a, k, 0, "frame").duration_us,
                          _arg(a, k, 3, "n_frames", 10000),
                          _arg(a, k, 7, "lead_us", 200.0),
                          _arg(a, k, 8, "tail_us", 300.0),
                          _arg(a, k, 6, "internal_rate_hz", 20e6))


# Work done by one call, from its arguments and result, in the layer's unit,
# for every function the workloads enter from another layer with work to do.
WORK = {
    "phy.build_tx_schedule": lambda a, k, r: len(r.events),
    "phy.synthesize_envelope": lambda a, k, r: len(_arg(a, k, 0, "schedule").events),
    "channel.add_noise": _first_size,
    "channel.apply_link_budget": _first_size,
    "receiver.rc_lpf_array": _first_size,
    "receiver.receive": _first_size,
    "receiver.video_noise_ar1": lambda a, k, r: int(_arg(a, k, 0, "n")),
    "montecarlo.noise_decision_voltages": _stream(2, "n_decisions", 4),
    "montecarlo.signal_decision_voltages": _stream(3, "n_bits", 8),
    "montecarlo.frame_error_trials": _frame_trials,
    "framing.extract_runs": lambda a, k, r: int(_arg(a, k, 0, "bits").bits.size),
    "codec.encode_id": lambda a, k, r: 1,
    "codec.decode_id": lambda a, k, r: 1,
    "cc2420.count_distribution": _count_distribution,
    "harness.calibrate_threshold": lambda a, k, r: _arg(a, k, 4, "n_decisions", 1_000_000),
    "harness.measure_p10": lambda a, k, r: _arg(a, k, 3, "n_decisions", 1_000_000),
    "harness.estimate_p01": lambda a, k, r: _arg(a, k, 4, "n_bits", 100_000),
    "harness.frame_error_sweep": lambda a, k, r: (
        _arg(a, k, 5, "n_frames", 10_000) * len(_arg(a, k, 0, "lengths_us"))
        * len(_arg(a, k, 1, "rx_powers_dbm"))),
}


class Tracer:
    """Records spans and per-layer counts while enabled."""

    def __init__(self):
        self.enabled = False
        self.attempt = None
        self.n_attempts = 0
        self.spans = []
        self.self_ns = dict.fromkeys(LAYERS + (BENCH_LAYER,), 0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.work = dict.fromkeys(LAYERS, 0)
        self.runs_out = 0          # runs returned by extract_runs
        self.match_calls = 0
        self.matched = 0           # match_symbol results with a symbol
        self.decode_calls = 0
        self.decode_ok = 0         # decode_id results that are an ID
        self._stack = []           # [span id, layer, child ns]
        self._next_id = 0
        self._patches = []

    def start_attempt(self):
        self.attempt = self.n_attempts
        self.n_attempts += 1

    # -- spans ---------------------------------------------------------

    def _enter(self, layer):
        sid = self._next_id
        self._next_id += 1
        frame = [sid, layer, 0]
        self._stack.append(frame)
        return frame, perf_counter_ns()

    def _exit(self, frame, name, t0):
        t1 = perf_counter_ns()
        stack = self._stack
        stack.pop()
        duration = t1 - t0
        self.self_ns[frame[1]] += duration - frame[2]
        parent = None
        if stack:
            stack[-1][2] += duration
            parent = stack[-1][0]
        self.spans.append((frame[0], name, parent, t0, t1, self.attempt))

    def pass_span(self, fn, *args, **kwargs):
        """Run one pass of the workload under a root span of the benchmark."""
        frame, t0 = self._enter(BENCH_LAYER)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(frame, "bench.pass", t0)

    def _wrap(self, layer, name, fn):
        tracer = self
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            if not tracer.enabled or (stack and stack[-1][1] == layer):
                return fn(*args, **kwargs)
            tracer.calls[layer] += 1
            frame, t0 = tracer._enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame, name, t0)
            if work is not None:
                tracer.work[layer] += int(work(args, kwargs, result))
            if name == "framing.extract_runs":
                tracer.runs_out += len(result)
            elif name == "framing.match_symbol":
                tracer.match_calls += 1
                tracer.matched += result.matched_symbol is not None
            elif name == "codec.decode_id":
                tracer.decode_calls += 1
                tracer.decode_ok += bool(result)
            return result

        return traced

    # -- installation --------------------------------------------------

    def install(self, package: str = "wakesim"):
        """Wrap the layers' public callables in every loaded package module."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        replacements = {}
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            for attr, value in vars(mod).items():
                if attr.startswith("_") or getattr(value, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(value):
                    replacements[id(value)] = (value, self._wrap(layer, f"{layer}.{attr}", value))
                elif inspect.isclass(value):
                    for meth, fn in list(vars(value).items()):
                        if inspect.isfunction(fn) and (not meth.startswith("_")
                                                       or meth == "__post_init__"):
                            wrapped = self._wrap(layer, f"{layer}.{attr}.{meth}", fn)
                            self._patches.append((value, meth, fn))
                            setattr(value, meth, wrapped)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

"""wakesim benchmark: one workload per run, or all four with --all.

    python3 bench/run.py --workload bit_stats --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --all --seed 1 --seconds 20 --out bench/baseline.json

A run sets up (imports, configs, one tiny warm-up call), then runs passes of
the workload back to back for --seconds and prints every metric with its
unit, each check's verdict, a JSON run record, and, as the last line, the
result: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones, measured with no tracing installed. With
--trace 1 they are the per-layer ones: the run installs the tracer and
alternates untraced and traced passes, so that the tracing overhead is
measured in the same run, then times the stage kernels. See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

from tracing import BENCH_LAYER, LAYERS, WORK_UNITS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("bit_stats", "frame_sweep", "cc2420_hist", "wakeup_attempts")
SETUP_PROBES = 3
KERNEL_SEED = 4_194_304

# (name, unit, better); the bounds live in BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("msamples_per_s", "Msamples/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("attempt_ms_p50", "ms", "lower"),
    ("attempt_ms_p95", "ms", "lower"),
)


def per_layer_specs():
    """(name, unit, better) of every per-layer metric, in print order."""
    from kernels import KERNELS, metric_name
    out = []
    for layer in LAYERS:
        out += [(f"{layer}.self_s", "s", "lower"),
                (f"{layer}.calls", "count", "lower"),
                (f"{layer}.work", WORK_UNITS[layer], "lower"),
                (f"{layer}.ns_per_sample", "ns", "lower")]
    out += [("framing.runs_per_frame", "ratio", "lower"),
            ("framing.match_ratio", "ratio", "higher"),
            ("codec.decode_ok_ratio", "ratio", "higher"),
            ("traced_wall_s", "s", "lower"),
            ("unattributed_s", "s", "lower"),
            ("unattributed_frac", "ratio", "lower"),
            ("trace_overhead_frac", "ratio", "lower")]
    out += [(metric_name(k), "ns", "lower") for k in KERNELS]
    return tuple(out)


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import wakesim from this checkout's source tree, and nowhere else."""
    if not (SRC / "wakesim" / "__init__.py").is_file():
        fail(f"no wakesim source under {SRC}")
    sys.path.insert(0, str(SRC))
    import wakesim
    if Path(wakesim.__file__).resolve().parent != (SRC / "wakesim").resolve():
        fail(f"wakesim imported from {wakesim.__file__}, not from {SRC}")
    return wakesim


def set_up(name: str, tiny: bool):
    """Everything before the first timed pass: imports, configs, warm-up."""
    import_program()
    import numpy  # noqa: F401
    import scipy.signal  # noqa: F401
    import workloads
    workload = workloads.WORKLOADS[name](tiny)
    workload.warm_up()
    return workload


def time_setup(name: str, tiny: bool, n: int):
    """Wall time of n fresh processes from start to ready to time."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", name] + (["--tiny"] if tiny else [])
    times = []
    for _ in range(n):
        t0 = perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        times.append(perf_counter() - t0)
        if done.returncode != 0:
            fail(f"set-up probe failed: {done.stderr.strip()}")
    return times


def machine_facts() -> dict:
    import numpy
    import scipy
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu or platform.processor(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "platform": platform.platform()}


def source_identity() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            commit = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "wakesim").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {"git_commit": commit, "source_sha256": digest.hexdigest()}


def run_passes(workload, ops, seed: int, seconds: float, tracer):
    """Run passes for about `seconds`; with a tracer, alternate untraced/traced."""
    import numpy as np
    passes = []
    t_start = perf_counter()
    i = 0
    while True:
        traced = tracer is not None and i % 2 == 1
        ss = np.random.SeedSequence([seed, i])
        t0, c0 = perf_counter(), os.times()
        first_op = len(ops.latencies)
        result = None
        try:
            if traced:
                tracer.enabled = True
                result = tracer.pass_span(workload.run_pass, ss, ops, tracer)
            else:
                result = workload.run_pass(ss, ops, None)
        except Exception as exc:  # the run must go on and report it
            ops.fail_outside(exc)
        finally:
            if tracer is not None:
                tracer.enabled = False
        dt, c1 = perf_counter() - t0, os.times()
        if result is not None:
            op_ms = np.asarray(ops.latencies[first_op:]) * 1e3
            p50, p95 = np.percentile(op_ms, [50, 95])
            passes.append({"index": i, "traced": traced, "seconds": dt,
                           "user_s": c1.user - c0.user, "sys_s": c1.system - c0.system,
                           "ops": int(op_ms.size), "op_ms_p50": float(p50),
                           "op_ms_p95": float(p95),
                           "ops_beyond_p95": int(np.count_nonzero(op_ms > p95)),
                           "samples": result.samples,
                           "frames_sent": result.frames_sent,
                           "frames_matched": result.frames_matched})
        i += 1
        elapsed = perf_counter() - t_start
        typical = median(p["seconds"] for p in passes) if passes else dt
        enough = tracer is None or {p["traced"] for p in passes} == {False, True}
        if elapsed + typical > seconds and (enough or elapsed > 3 * seconds):
            return passes


def end_to_end_metrics(passes, ops, setup_times):
    """Medians over passes, so that a burst of load on the host during a
    few passes does not move them."""
    import numpy as np
    lat_ms = np.asarray(ops.latencies) * 1e3
    p95 = np.percentile(lat_ms, 95)
    return {
        "setup_s": median(setup_times),
        "wall_s": median(p["seconds"] for p in passes),
        "msamples_per_s": median(p["samples"] / p["seconds"] for p in passes) / 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempt_ms_p50": median(p["op_ms_p50"] for p in passes),
        "attempt_ms_p95": median(p["op_ms_p95"] for p in passes),
    }, {"ops": int(lat_ms.size),
        "ops_per_pass": [p["ops"] for p in passes],
        "ops_beyond_p95_per_pass": [p["ops_beyond_p95"] for p in passes],
        "run_op_ms_p50": float(np.percentile(lat_ms, 50)),
        "run_op_ms_p95": float(p95),
        "run_ops_beyond_p95": int(np.count_nonzero(lat_ms > p95)),
        "op_ms_median": {name: float(np.median(lat_ms[[n == name for n in ops.names]]))
                         for name in sorted(set(ops.names))},
        "samples": sum(p["samples"] for p in passes),
        "seconds_measured": sum(p["seconds"] for p in passes)}


def per_layer_metrics(passes, tracer, kernels):
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    n = len(traced)
    samples = sum(p["samples"] for p in traced)
    pass_ns = sum(t1 - t0 for _, name, _, t0, t1, _ in tracer.spans
                  if name == "bench.pass")
    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = tracer.self_ns[layer] / 1e9 / n
        m[f"{layer}.calls"] = tracer.calls[layer] / n
        m[f"{layer}.work"] = tracer.work[layer] / n
        m[f"{layer}.ns_per_sample"] = tracer.self_ns[layer] / samples
    frames_sent = sum(p["frames_sent"] for p in traced)
    frames_matched = sum(p["frames_matched"] or 0 for p in traced)
    matched = tracer.matched if tracer.match_calls else frames_matched
    m["framing.runs_per_frame"] = tracer.runs_out / frames_sent if frames_sent else 0.0
    m["framing.match_ratio"] = matched / tracer.runs_out if tracer.runs_out else 0.0
    m["codec.decode_ok_ratio"] = (tracer.decode_ok / tracer.decode_calls
                                  if tracer.decode_calls else 0.0)
    m["traced_wall_s"] = pass_ns / 1e9 / n
    m["unattributed_s"] = tracer.self_ns[BENCH_LAYER] / 1e9 / n
    m["unattributed_frac"] = tracer.self_ns[BENCH_LAYER] / pass_ns
    m["trace_overhead_frac"] = (median(p["seconds"] for p in traced)
                                / median(p["seconds"] for p in untraced) - 1.0)
    m.update(kernels)
    return m, {"traced_passes": n, "untraced_passes": len(untraced),
               "samples_traced": samples, "spans": len(tracer.spans),
               "layer_self_s_sum": sum(tracer.self_ns[x] for x in LAYERS) / 1e9 / n}


def run_one(args) -> int:
    setup_times = [] if args.trace else time_setup(
        args.workload, args.tiny, 1 if args.tiny else SETUP_PROBES)
    workload = set_up(args.workload, args.tiny)
    import workloads
    ops = workloads.Ops(workload.checks)
    tracer = None
    kernels = {}
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    passes = run_passes(workload, ops, args.seed, args.seconds, tracer)
    if tracer is not None:
        tracer.uninstall()
        # After the passes: freeing its 2^22-sample arrays raises the C
        # allocator's reuse threshold, which would speed up later passes
        # that allocate ~1 MB arrays and make them unlike untraced runs.
        from kernels import kernel_pass
        pin = workloads.PINNED_THRESHOLD
        kernels = kernel_pass(pin["threshold_v"], pin["cof_hz"], KERNEL_SEED,
                              n=1 << 16 if args.tiny else 1 << 22)
    if not passes or (args.trace and not all(
            any(p["traced"] == t for p in passes) for t in (False, True))):
        fail(f"too few passes of {args.workload} completed: {ops.errors[:3]}")

    if args.trace:
        metrics, detail = per_layer_metrics(passes, tracer, kernels)
        specs = per_layer_specs()
    else:
        metrics, detail = end_to_end_metrics(passes, ops, setup_times)
        specs = END_TO_END
    all_ran = all(c["ran"] > 0 for c in ops.checks.values())
    correct = ops.failed == 0 and all_ran
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "machine": machine_facts(), **source_identity(),
        "params": workload.params(),
        "setup_probe_s": setup_times,
        "passes": passes, "detail": detail,
        "checks": ops.checks, "errors": ops.errors,
        "units": {name: unit for name, unit, _ in specs},
    }
    if tracer is not None:
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans_{args.workload}_seed{args.seed}.json"
        with open(spans_path, "w") as fh:
            json.dump({"fields": ["id", "name", "parent", "start_ns", "end_ns",
                                  "attempt"], "spans": tracer.spans}, fh)
        record["spans_path"] = str(spans_path.relative_to(ROOT))

    for name, unit, _ in specs:
        print(f"{args.workload:16s} {name:48s} {metrics[name]:14.6g} {unit}")
    for name, c in ops.checks.items():
        verdict = "PASS" if c["ran"] and not c["failed"] else "FAIL"
        print(f"check {args.workload}.{name}: {verdict} "
              f"({c['ran']} ran, {c['failed']} failed)")
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": correct, "attempted": ops.attempted, "failed": ops.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit, _ in specs},
    }))
    return 0


def run_all(args) -> int:
    """Run every workload untraced and traced, each in its own process."""
    results = {}
    ok = True
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--tiny"] if args.tiny else [])
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=900)
            lines = done.stdout.splitlines()
            if done.returncode != 0 or not lines:
                print(done.stdout + done.stderr, file=sys.stderr)
                fail(f"{name} --trace {trace} exited with {done.returncode}")
            for line in lines[:-1]:
                if not line.startswith("record "):
                    print(line)
            record = json.loads(next(x[7:] for x in lines if x.startswith("record ")))
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            results[f"{name}.trace{trace}"] = {"result": result, "record": record}
    summary = {"seed": args.seed, "seconds": args.seconds, "runs": results}
    out = Path(args.out) if args.out else OUT_DIR / f"all_seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    print(f"all workloads {'correct' if ok else 'NOT correct'}; record written to {out}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced")
    parser.add_argument("--out", help="with --all: where to write the JSON record")
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes, for the smoke test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.all:
        import_program()
        return run_all(args)
    if args.workload is None:
        parser.error("--workload or --all is required")
    if args.setup_probe:
        set_up(args.workload, args.tiny)
        return 0
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

"""Check that wakesim's outputs do not depend on thread timing, the CPU count
or, given a git revision, on the change since that revision.

Each case of CASES runs twice in child processes, ``python -m wakesim.cli``
on this checkout's ``src``: once unpinned and once pinned to one CPU
(``os.sched_setaffinity`` in the child), where the worker threads of the
bit kernels, the sweep pool and the CC2420 frames cannot run side by
side. The two output directories must hold the same files with the same
bytes, ``summary.txt`` included. Then the ordering and error tests of the
three thread pools run pinned to one CPU. With a revision, each case also
runs once, unpinned, in a ``git worktree`` of that revision, and its
outputs must equal this checkout's.

    python tests/same_bytes.py           # unpinned against pinned
    python tests/same_bytes.py HEAD~1    # and against HEAD~1

Every case runs, and each file that differs is listed, case by case; then
it exits 1. A child that fails also exits 1.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List, NamedTuple, Optional

ROOT = Path(__file__).resolve().parents[1]
SEED = "1111"


class Case(NamedTuple):
    name: str
    args: tuple  # the scenario, then its options
    ini: Optional[str] = None  # written to <name>.ini and passed as --config


# CI's small counts. The cof_sweep's 22000 trials span 17 pieces of the bit
# kernels with the LPF on, so both workers draw and detect while the caller
# draws the comb noise; COF 0 picks comb samples without rows or filter; the
# cc2420_histogram's 100 frames of 1000 us are 13 blocks of at most 8 frames,
# so both workers draw and count; an odd number of powers runs three frame
# trials at once (the shipped configs have six).
CASES = (
    Case("calibrate", ("calibrate", "--trials", "20000")),
    Case("cof_sweep", ("cof_sweep", "--config", "configs/cof_sweep.ini",
                       "--trials", "22000")),
    Case("rx_power_sweep", ("rx_power_sweep", "--config",
                            "configs/range_comparison.ini", "--trials", "200")),
    Case("edge_delay_table", ("edge_delay_table", "--trials", "5")),
    Case("cc2420_histogram", ("cc2420_histogram", "--config",
                              "configs/range_comparison.ini", "--trials", "100")),
    Case("wakeup_end_to_end", ("wakeup_end_to_end", "--trials", "20")),
    Case("cof0_sweep", ("rx_power_sweep", "--trials", "200"),
         "[receiver]\ncof_hz = 0\n"),
    Case("three_powers", ("rx_power_sweep", "--trials", "200"),
         "[sweep]\nrx_powers_dbm = -92, -90, -88\n"),
)

PINNED_TESTS = ("tests/test_montecarlo.py::TestPipeline",
                "tests/test_harness.py::TestSweepPool",
                "tests/test_cc2420.py::TestCountPipeline")


def differences(a: Path, b: Path) -> List[str]:
    """Each file, by name, that is not in both directories with the same
    bytes, described; empty when there is none."""
    names_a = {p.name for p in a.iterdir()}
    names_b = {p.name for p in b.iterdir()}
    found = []
    for name in sorted(names_a | names_b):
        if name not in names_b:
            found.append(f"{name} is in {a} but not in {b}")
        elif name not in names_a:
            found.append(f"{name} is in {b} but not in {a}")
        elif (a / name).read_bytes() != (b / name).read_bytes():
            found.append(f"{name} differs between {a} and {b}")
    return found


def _one_cpu():
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _child(argv, checkout: Path, pinned: bool):
    """Run argv in checkout on its src; raise with its output if it fails."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    done = subprocess.run(argv, cwd=checkout, env=env, capture_output=True,
                          text=True, preexec_fn=_one_cpu if pinned else None)
    if done.returncode:
        raise RuntimeError(f"{' '.join(argv)} in {checkout} exited "
                           f"{done.returncode}\n{done.stdout}{done.stderr}")


def run_case(case: Case, checkout: Path, out: Path, tmp: Path, pinned: bool):
    argv = [sys.executable, "-m", "wakesim.cli", *case.args,
            "--seed", SEED, "--out", str(out)]
    if case.ini is not None:
        ini = tmp / f"{case.name}.ini"
        ini.write_text(case.ini)
        argv += ["--config", str(ini)]
    _child(argv, checkout, pinned)


def check(tmp: Path, parent: Optional[Path]) -> List[str]:
    """Run every case and the pinned tests; each difference, by case."""
    found = []
    for case in CASES:
        start = time.perf_counter()
        runs = {"unpinned": False, "pinned": True}
        if parent is not None:
            runs["parent"] = False
        (tmp / case.name).mkdir()
        for run, pinned in runs.items():
            run_case(case, parent if run == "parent" else ROOT,
                     tmp / case.name / run, tmp, pinned)
        base = tmp / case.name / "unpinned"
        relation = "unpinned"
        for run in list(runs)[1:]:
            diffs = differences(base, tmp / case.name / run)
            found += [f"{case.name}: {diff}" for diff in diffs]
            relation += f" {'!=' if diffs else '='} {run}"
        print(f"{'differs' if '!=' in relation else 'same bytes'}: {case.name} "
              f"({relation}, {time.perf_counter() - start:.1f} s)", flush=True)
    start = time.perf_counter()
    _child([sys.executable, "-m", "pytest", "-q", *PINNED_TESTS], ROOT, True)
    print(f"passed pinned: {' '.join(PINNED_TESTS)} "
          f"({time.perf_counter() - start:.1f} s)", flush=True)
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("revision", nargs="?",
                        help="also compare every case with this git revision")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="same_bytes_") as name:
        tmp = Path(name)
        parent = None
        if args.revision is not None:
            parent = tmp / "parent"
            subprocess.run(["git", "worktree", "add", "--detach", "--quiet",
                            str(parent), args.revision], cwd=ROOT, check=True)
        try:
            found = check(tmp, parent)
        except RuntimeError as exc:
            print(f"same bytes: a child failed: {exc}", file=sys.stderr)
            return 1
        finally:
            if parent is not None:
                subprocess.run(["git", "worktree", "remove", "--force",
                                str(parent)], cwd=ROOT, check=True)
    if found:
        print("same bytes: FAILED:", *found, sep="\n  ", file=sys.stderr)
        return 1
    print(f"same bytes: all {len(CASES)} cases ({time.perf_counter() - start:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

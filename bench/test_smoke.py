"""Smoke test of the benchmark at tiny sizes (about a minute).

    python3 -m pytest -q bench/test_smoke.py

It asserts that every metric named in BENCHMARK.json is emitted with its
unit, that every check of every workload ran, and that the benchmark refuses
to run without the program's source.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_all_workloads_emit_every_metric_and_run_every_check(tmp_path):
    out = tmp_path / "all.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--all", "--tiny",
         "--seed", "7", "--seconds", "1", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode in (0, 1), done.stderr
    runs = json.loads(out.read_text())["runs"]
    for workload in SPEC["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            run = runs[f"{workload['name']}.trace{trace}"]
            result, record = run["result"], run["record"]
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["attempted"] >= 1
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            assert emitted == {m["name"]: m["unit"] for m in SPEC[kind]}
            assert all(isinstance(m["value"], (int, float))
                       for m in result["metrics"].values())
            assert record["checks"]
            assert all(c["ran"] > 0 for c in record["checks"].values()), record["checks"]
            assert f"{workload['name']}" in done.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable] + SPEC["command"][1:] + [
        "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
        "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True,
                          timeout=180)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout

#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny input size; about a minute.

    python3 perfbench/selftest.py

Runs every workload with and without tracing at ``--scale 0.05`` and checks
that each prints exactly the metrics BENCHMARK.json names, with their units,
that every check passed (error_rate 0), that BENCHMARK.json matches spec.py,
and that a directory holding only the benchmark (no ``src/``) exits non-zero
without printing a result. Exits non-zero on the first problem.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spec  # noqa: E402

SCALE = "0.05"
SECONDS = "1"


def fail(message: str) -> None:
    print(f"selftest FAILED: {message}")
    sys.exit(1)


def run_bench(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", SECONDS, "--trace", str(trace), "--scale", SCALE],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def check_result(workload: str, trace: int, proc: subprocess.CompletedProcess) -> None:
    where = f"{workload} trace {trace}"
    if proc.returncode != 0:
        fail(f"{where}: exit code {proc.returncode}\n{proc.stdout}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{where}: correct={result['correct']} failed={result['failed']} "
             f"attempted={result['attempted']}")
    if not any(line.strip().startswith("error_rate 0.000000 ratio") for line in lines):
        fail(f"{where}: no zero error_rate line")
    expected = spec.PER_LAYER if trace else spec.END_TO_END
    if list(result["metrics"]) != [m.name for m in expected]:
        fail(f"{where}: metric names differ from BENCHMARK.json")
    for m in expected:
        entry = result["metrics"][m.name]
        value = entry["value"]
        if entry["unit"] != m.unit:
            fail(f"{where}: {m.name} unit {entry['unit']!r}, expected {m.unit!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"{where}: {m.name} value {value!r}")
        if not trace and value <= 0:
            fail(f"{where}: end-to-end metric {m.name} is {value}, must be above 0")
        if not any(line.split()[:1] == [m.name] and line.split()[-1] == m.unit for line in lines):
            fail(f"{where}: {m.name} not printed with its unit")


def check_bare_directory() -> None:
    bare = os.path.join(HERE, "out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run_bench(bare, spec.WORKLOADS[0].name, 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0:
        fail("benchmark without src/ exited 0")
    if proc.stdout.strip():
        fail(f"benchmark without src/ printed a result: {proc.stdout.strip()[-200:]}")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        if json.load(fh) != spec.manifest():
            fail("BENCHMARK.json differs from spec.py; run perfbench/run.py --write-manifest")
    for w in spec.WORKLOADS:
        for trace in (0, 1):
            check_result(w.name, trace, run_bench(ROOT, w.name, trace))
            print(f"ok  {w.name} trace {trace}")
    check_bare_directory()
    print("ok  no result without src/")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

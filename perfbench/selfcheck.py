"""Prove that the harness and its correctness gates run, without timing gates.

    python3 perfbench/selfcheck.py

Runs every workload of ``run.py``, also one that BENCHMARK.json leaves out,
on a 3x3 city (``--tiny``) untraced and traced, and checks that each prints a
correct result with exactly the metrics that BENCHMARK.json declares.  Then
runs the benchmark in a directory that holds only BENCHMARK.json and this
directory, where it must fail without a result.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

from run import WORKLOAD_NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 3


def run_bench(cwd: Path, workload: str, trace: int):
    argv = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_result(spec: dict, workload: str, trace: int) -> list:
    done = run_bench(ROOT, workload, trace)
    if done.returncode != 0:
        return [f"{workload} trace={trace}: exit {done.returncode}\n{done.stderr}"]
    result = json.loads(done.stdout.splitlines()[-1])
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"gates: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
    if {k: v["unit"] for k, v in result["metrics"].items()} != declared:
        problems.append("metric names or units differ from BENCHMARK.json")
    for name, metric in result["metrics"].items():
        value = metric["value"]
        if not math.isfinite(value) or (not trace and value <= 0):
            problems.append(f"{name} = {value}")
    return [f"{workload} trace={trace}: {p}" for p in problems]


def check_without_sources() -> list:
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = run_bench(bare, "desk_train", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        return ["without sources: expected a failure and no result"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            problems += check_result(spec, workload, trace)
    problems += check_without_sources()
    for problem in problems:
        print("FAIL " + problem)
    print("selfcheck: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Smoke test of the harness against its own declaration.

    python3 benchmarks/harness/selftest.py

Runs every workload declared in ``BENCHMARK.json`` once in ``--quick``
mode (one untraced and one traced repeat, 1 s windows) under
``-W error::DeprecationWarning`` and fails unless each result line
carries exactly the declared metric names, each with its declared unit,
and the workload's correctness checks passed.  It measures nothing.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from typing import List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
TIMEOUT_S = 170


def check_workload(name: str, units: dict) -> List[str]:
    proc = subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning", str(HERE / "run.py"),
         "--workload", name, "--quick"],
        capture_output=True, text=True, timeout=TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        return [f"exit status {proc.returncode}: {proc.stderr[-2000:] or proc.stdout[-2000:]}"]
    result = json.loads(proc.stdout.splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys are {sorted(result)}")
    if not result.get("correct") or result.get("failed") or result.get("attempted", 0) < 1:
        problems.append(
            f"correct={result.get('correct')} attempted={result.get('attempted')} "
            f"failed={result.get('failed')}"
        )
    metrics = result.get("metrics", {})
    for missing in sorted(set(units) - set(metrics)):
        problems.append(f"declared but not reported: {missing}")
    for extra in sorted(set(metrics) - set(units)):
        problems.append(f"reported but not declared: {extra}")
    for metric, entry in metrics.items():
        if metric in units and entry.get("unit") != units[metric]:
            problems.append(f"{metric}: unit {entry.get('unit')!r}, declared {units[metric]!r}")
        if not isinstance(entry.get("value"), (int, float)):
            problems.append(f"{metric}: value {entry.get('value')!r} is not a number")
    return problems


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = spec["end_to_end"] + spec["per_layer"]
    units = {m["name"]: m["unit"] for m in declared}
    failures = 0
    if len(units) != len(declared):
        print("FAIL BENCHMARK.json: a metric name is declared twice")
        failures += 1
    sys.path.insert(0, str(HERE))
    from run import WORKLOADS

    names = [w["name"] for w in spec["workloads"]]
    if names != list(WORKLOADS):
        print(f"FAIL BENCHMARK.json declares workloads {names}, run.py has {list(WORKLOADS)}")
        failures += 1
    for name in names:
        problems = check_workload(name, units)
        print(f"{'FAIL' if problems else 'ok  '} {name}")
        for problem in problems:
            print(f"     {problem}")
        failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Parent-vs-change trajectory: order-alternated pairs of harness runs.

    python3 benchmarks/trajectory.py --parent REV_OR_DIR
        [--workload W ...] [--seed N ...] [--update] --out BENCH_<n>.json

Hosts drift by more than most changes move a metric, so one run of each
side shows little.  This script runs ``benchmarks/harness/run.py
--trace 0`` from both checkouts 10 times per workload and seed, the
parent first in even pairs and the change first in odd ones, each run
as long as ``BENCHMARK.json``'s ``run_seconds``.  It writes, per
workload, seed and end-to-end metric of ``BENCHMARK.json``: each side's
median and interquartile range, the change's median against the
parent's in per cent, and in how many of the pairs the change read
better.  Every run's raw values, failed-op count and correctness verdict
are kept too.  The file is rewritten after each pair, so a cut run
leaves what it measured; ``--update`` keeps the workloads and seeds an
earlier run wrote to ``--out`` (say, the claim's workload on two seeds
and the others on one).

``--parent`` is a checkout directory or a git revision of this
repository (extracted with ``git archive`` into a temporary directory);
the change is this checkout, working tree as it is.  Run it on a quiet
machine: anything else running moves the numbers.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parents[1]
HARNESS = Path("benchmarks") / "harness" / "run.py"
WORKLOADS = ("cast_small", "cast_large", "rsm_durable", "churn_sim")
#: Pairs per workload and seed: the fewest that can read 9 of 10 better.
PAIRS = 10
#: A --trace 0 run is three repeats of well under a minute each.
RUN_TIMEOUT_S = 600


def benchmark_spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def checkout(rev_or_dir: str, into: Path) -> Path:
    """A directory holding ``rev_or_dir``: itself, or the revision's tree."""
    path = Path(rev_or_dir)
    if path.is_dir():
        return path.resolve()
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", rev_or_dir],
        capture_output=True, check=True,
    ).stdout
    into.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):  # 3.12 warns without a filter
            tar.extractall(into, filter="data")
        else:
            tar.extractall(into)
    return into


def run_once(tree: Path, workload: str, seed: int) -> Dict[str, Any]:
    """One ``--trace 0`` harness run from ``tree``; its JSON result line."""
    cmd = [
        sys.executable, str(tree / HARNESS), "--workload", workload,
        "--seed", str(seed), "--trace", "0",
    ]
    proc = subprocess.run(
        cmd, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{cmd} printed nothing:\n{proc.stderr[-4000:]}")
    result = json.loads(lines[-1])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def spread(values: List[float]) -> Dict[str, float]:
    """Median and quartiles (inclusive method; one value is its own)."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarise(pairs: List[Dict[str, Any]], better: Dict[str, str]) -> Dict[str, Any]:
    """Per metric: both sides' spread, the median's move and n/N better."""
    out: Dict[str, Any] = {}
    for name, direction in better.items():
        rows = [
            (p["parent"]["metrics"][name], p["change"]["metrics"][name])
            for p in pairs
            if name in p["parent"]["metrics"] and name in p["change"]["metrics"]
        ]
        if not rows:
            continue
        parent = spread([a for a, _ in rows])
        change = spread([b for _, b in rows])
        wins = sum(
            1 for a, b in rows if (b < a if direction == "lower" else b > a)
        )
        out[name] = {
            "better": direction,
            "parent": parent,
            "change": change,
            "change_pct": (
                100.0 * (change["median"] - parent["median"]) / parent["median"]
                if parent["median"] else 0.0
            ),
            "change_better": f"{wins}/{len(rows)}",
        }
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True,
                        help="checkout directory or git revision to compare against")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="repeatable; default all four")
    parser.add_argument("--seed", action="append", type=int,
                        help="repeatable; default 1 and 7")
    parser.add_argument("--out", required=True, metavar="PATH")
    parser.add_argument("--update", action="store_true",
                        help="keep the workloads and seeds already in --out")
    args = parser.parse_args(argv)

    spec = benchmark_spec()
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    scratch = Path(tempfile.mkdtemp(prefix="trajectory-"))
    report: Dict[str, Any] = {
        "parent": args.parent,
        "change": ".",
        "pairs": PAIRS,
        "run_seconds": spec["run_seconds"],
        "harness": "benchmarks/harness/run.py --trace 0",
        "host": {"cpus": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version()},
        "workloads": {},
    }
    if args.update and os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            report["workloads"] = json.load(fh)["workloads"]
    try:
        trees = {
            "parent": checkout(args.parent, scratch / "parent"),
            "change": ROOT,
        }
        for workload in args.workload or WORKLOADS:
            for seed in args.seed or (1, 7):
                entry = report["workloads"].setdefault(workload, {})[f"seed{seed}"] = {}
                pairs: List[Dict[str, Any]] = []
                for index in range(PAIRS):
                    order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
                    pair = {}
                    for side in order:
                        pair[side] = run_once(trees[side], workload, seed)
                    pair["first"] = order[0]
                    pairs.append(pair)
                    entry["metrics"] = summarise(pairs, better)
                    entry["runs"] = pairs
                    entry["failed"] = {
                        side: sum(p[side]["failed"] for p in pairs) for side in trees
                    }
                    entry["all_correct"] = all(
                        p[side]["correct"] for p in pairs for side in trees
                    )
                    report["finished_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
                    with open(args.out, "w", encoding="utf-8") as fh:
                        json.dump(report, fh, indent=1)
                    cpu = entry["metrics"].get("cpu_us_per_op", {})
                    print(f"{workload} seed {seed} pair {index + 1}/{PAIRS}: "
                          f"cpu_us_per_op {cpu.get('change_pct', 0.0):+.1f}% "
                          f"({cpu.get('change_better', '-')} better)", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0 if all(
        seeds["all_correct"] for w in report["workloads"].values() for seeds in w.values()
        if "all_correct" in seeds
    ) else 1


if __name__ == "__main__":
    sys.exit(main())

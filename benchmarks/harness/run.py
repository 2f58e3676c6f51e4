#!/usr/bin/env python3
"""The repo's benchmark: four workloads, end-to-end and per-layer numbers.

    python3 benchmarks/harness/run.py [--workload W] [--seed N] [--seconds S]
                                      [--trace 0|1] [--quick] [--out PATH]
                                      [--trace-out PATH]

One workload run is a handful of *repeats*, each in a fresh interpreter
(state left by a closed world taxes whatever runs next in the same
process).  ``--trace 0`` makes three untraced repeats and reports the
end-to-end metrics as their medians; ``--trace 1`` makes one untraced
and one traced repeat and reports the per-layer metrics (end-to-end
numbers never come from a traced repeat); without ``--trace`` it makes
three untraced and one traced and reports both.  The metric names, units
and bounds live in ``BENCHMARK.json`` at the repository root; README.md
beside this file explains every one of them.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed``, ``metrics``.  Exit status is non-zero when a
correctness check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKLOADS = ("cast_small", "cast_large", "rsm_durable", "churn_sim")
UNTRACED_REPEATS = 3
#: --seconds is split over the untraced repeats, two windows each: a
#: realtime repeat times two windows' worth of seconds (a third closed
#: loop, two thirds open loop), a churn_sim repeat storms for ten
#: simulated seconds per window-second.
WINDOWS_PER_RUN = 2 * UNTRACED_REPEATS
#: A repeat takes under 10 s; a hung one must leave the run inside the
#: 180 s a driver allows it.
REPEAT_TIMEOUT_S = 50
#: Below this share of busy time inside spans the per-layer ledger has
#: holes worth knowing about.
MIN_ACCOUNTED_SHARE = 0.7
#: churn_sim is a pure function of its seed: these must agree exactly
#: between the repeats of one run.
DETERMINISTIC = ("events", "datagrams", "wire_bytes", "digest")


def declared() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def child(args: argparse.Namespace) -> None:
    """One repeat in this interpreter; prints its result as one JSON line."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import run_repeat

    result = run_repeat(
        args.workload, args.seed, args.repeat, args.window, bool(args.traced),
        args.spawned_at, args.work_dir, args.trace_out,
    )
    print(json.dumps(result))


def spawn_repeat(
    workload: str, seed: int, repeat: int, window: float, traced: bool,
    work_dir: Path, trace_out: Optional[str],
) -> Dict[str, Any]:
    repeat_dir = work_dir / f"r{time.monotonic_ns()}"
    repeat_dir.mkdir(parents=True)
    cmd = [sys.executable]
    cmd += [f"-W{option}" for option in sys.warnoptions]
    cmd += [
        str(Path(__file__).resolve()), "--child", "--workload", workload,
        "--seed", str(seed), "--repeat", str(repeat), "--window", repr(window),
        "--traced", str(int(traced)),
        "--work-dir", str(repeat_dir), "--spawned-at", repr(time.monotonic()),
    ]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    # tempfile users inside the program (the realtime world's ephemeral
    # store domain) must stay inside the checkout too.
    env = dict(os.environ, TMPDIR=str(repeat_dir))
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, env=env, timeout=REPEAT_TIMEOUT_S
        )
    finally:
        shutil.rmtree(repeat_dir, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload} repeat exited with {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    return json.loads(proc.stdout.splitlines()[-1])


def run_workload(
    workload: str, seed: int, window: float, trace: Optional[int],
    untraced_repeats: int, work_dir: Path, trace_out: Optional[str],
) -> Dict[str, Any]:
    """All repeats of one workload, aggregated into named metrics."""
    untraced_count = untraced_repeats if trace != 1 else 1
    untraced = [
        spawn_repeat(workload, seed, index, window, False, work_dir, None)
        for index in range(untraced_count)
    ]
    traced = (
        spawn_repeat(workload, seed, untraced_count, window, True, work_dir, trace_out)
        if trace != 0 else None
    )
    repeats = untraced + ([traced] if traced else [])
    notes: List[str] = []
    violations = [f"repeat {i}: {v}" for i, r in enumerate(repeats) for v in r["violations"]]
    if workload == "churn_sim":
        for key in DETERMINISTIC:
            values = {str(r["determinism"][key]) for r in repeats}
            if len(values) > 1:
                violations.append(f"determinism: {key} differs between repeats: {sorted(values)}")

    stalled = sum(1 for r in untraced if r["stalled"])
    if stalled:
        notes.append(f"{stalled} of {len(untraced)} untraced repeats stalled "
                     f"(load generator > 5 ms late at p99)")
    # A stalled repeat's latencies describe the machine, not the protocol.
    steady = [r for r in untraced if not r["stalled"]] or untraced

    def median(section: str, name: str) -> float:
        return statistics.median(r[section][name] for r in untraced)

    def latency(section: str, name: str) -> float:
        # Disturbances only ever add latency: of two steady repeats the
        # lower is the better estimate, never the mean of a good and a bad one.
        return statistics.median_low(r[section][name] for r in steady)

    metrics: Dict[str, float] = {}
    if trace != 1:
        metrics["setup_s"] = statistics.median(r["setup_s"] for r in untraced)
        metrics["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in untraced)
        for name in ("throughput_ops_per_s", "goodput_mb_per_s", "cpu_us_per_op"):
            metrics[name] = median("e2e", name)
        for name in ("latency_p50_ms", "latency_p90_ms"):
            metrics[name] = latency("e2e", name)
    if traced:
        metrics.update(traced["layer"])
        for name in ("tail.latency_p99_ms", "tail.latency_max_ms", "tail.loadgen_late_p99_ms"):
            metrics[name] = latency("tail", name)
        metrics["tail.whole_window_ops_per_s"] = median("tail", "tail.whole_window_ops_per_s")
        plain = median("e2e", "throughput_ops_per_s")
        metrics["trace.overhead_pct"] = (
            100.0 * (plain - traced["e2e"]["throughput_ops_per_s"]) / plain if plain else 0.0
        )
        if workload == "cast_small" and metrics["trace.accounted_share"] < MIN_ACCOUNTED_SHARE:
            notes.append(
                f"per-layer self times cover only {metrics['trace.accounted_share']:.2f} "
                f"of busy time (want >= {MIN_ACCOUNTED_SHARE})"
            )
    # Failures are counted over the repeats the reported numbers come from.
    counted = untraced if trace != 1 else repeats
    attempted = sum(r["attempted"] for r in counted)
    failed = sum(r["failed"] for r in counted)
    if traced:
        metrics["failed_ops_ratio"] = failed / attempted
    return {
        "workload": workload, "seed": seed, "window_s": window,
        "correct": not violations and all(r["failed"] == 0 for r in repeats),
        "attempted": attempted, "failed": failed,
        "metrics": metrics, "violations": violations, "notes": notes,
        "repeats": repeats,
    }


def render(report: Dict[str, Any], units: Dict[str, str]) -> str:
    lines = [
        f"== {report['workload']}  seed={report['seed']}  window={report['window_s']:g}s  "
        f"attempted={report['attempted']}  failed={report['failed']}  "
        f"{'ok' if report['correct'] else 'VIOLATED'}"
    ]
    for name, value in report["metrics"].items():
        lines.append(f"  {name:<44} {value:>16.4f} {units.get(name, '?')}")
    lines += [f"  note: {note}" for note in report["notes"]]
    lines += [f"  VIOLATION: {violation}" for violation in report["violations"]]
    return "\n".join(lines)


def result_line(report: Dict[str, Any], units: Dict[str, str]) -> Dict[str, Any]:
    return {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in report["metrics"].items()
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all four")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per run (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics only; 1: per-layer only; default both")
    parser.add_argument("--quick", action="store_true",
                        help="one untraced repeat, 1 s windows (smoke test, not a measurement)")
    parser.add_argument("--out", metavar="PATH", help="write the full report as JSON")
    parser.add_argument("--trace-out", metavar="PATH",
                        help="write the traced repeat's raw spans as JSON lines")
    for flag, kind in (("--repeat", int), ("--window", float), ("--traced", int),
                       ("--spawned-at", float)):
        parser.add_argument(flag, type=kind, help=argparse.SUPPRESS)
    parser.add_argument("--work-dir", help=argparse.SUPPRESS)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child(args)
        return 0
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2

    spec = declared()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    repeats = 1 if args.quick else UNTRACED_REPEATS
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    window = 1.0 if args.quick else seconds / WINDOWS_PER_RUN
    work_dir = ROOT / ".bench_work" / f"run{os.getpid()}"
    reports = []
    try:
        for workload in [args.workload] if args.workload else WORKLOADS:
            report = run_workload(
                workload, args.seed, window, args.trace, repeats, work_dir, args.trace_out
            )
            reports.append(report)
            print(render(report, units), flush=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass  # another run is using it
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"seconds": seconds, "reports": reports}, fh, indent=1)
    if args.workload:
        print(json.dumps(result_line(reports[0], units)))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in reports),
            "attempted": sum(r["attempted"] for r in reports),
            "failed": sum(r["failed"] for r in reports),
            "workloads": {r["workload"]: result_line(r, units)["metrics"] for r in reports},
        }))
    return 0 if all(r["correct"] for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())

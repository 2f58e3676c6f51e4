"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``tables`` — regenerate the paper's Tables 1-4 from the live system.
* ``layers`` — list every registered protocol layer and its purpose.
* ``synthesize P9 P6 [--network atm]`` — build the minimal stack for a
  set of required properties and show the derivation (Section 6).
* ``demo`` — a 30-second tour: join, cast, crash, view change.
* ``obs-report snapshot.jsonl`` — render the per-layer latency/byte
  table (and optionally network counters) from a metrics snapshot
  written by ``World.write_metrics`` or ``load --metrics-out``.
* ``chaos --seed 0 --scenarios 25 --substrate sim`` — run a seeded
  soak of generated failure scenarios through the verify checkers;
  failing scenarios are greedily shrunk to minimal repro timelines.
  ``--stateful`` runs durable replicated-dict clients with
  ``stateful=True`` recovery and the state-convergence check;
  ``--store-dir`` keeps the WALs on disk for inspection; ``--overload``
  widens the op palette with slow receivers, fan-in storms, and WAN
  squeezes against the CREDIT overload stack; ``--faults-through-flush``
  keeps every member casting and the links lossy across every crash,
  flush and install.
* ``load --senders 4 --rate 200 --duration 5`` — open-loop load
  generation against a CREDIT stack with an SLO-style report: goodput,
  p50/p99 latency, shed/block verdicts, queue and NAK-buffer
  high-water marks.  Seeded and reproducible on the DES.
* ``store-inspect PATH`` — human-readable dump of a durable store
  (snapshot header + WAL records, with CRC verdicts); ``PATH`` is one
  store directory or any ancestor (all stores underneath are shown).
"""

from __future__ import annotations

import argparse
import sys
from typing import List


def _cmd_tables(_args) -> int:
    from repro.core.events import DowncallType, UpcallType
    from repro.properties import render_table3, render_table4

    print("Table 1 — HCPI downcalls")
    for downcall in DowncallType:
        print(f"  {downcall.value}")
    print("\nTable 2 — HCPI upcalls")
    for upcall in UpcallType:
        print(f"  {upcall.value}")
    print("\nTable 3 — Requires (R) / Inherits (I) / Provides (P)")
    print(render_table3())
    print("\nTable 4 — protocol properties")
    print(render_table4())
    return 0


def _cmd_layers(_args) -> int:
    from repro.core.stack import known_layers
    from repro.properties.registry import PROFILES

    for name in known_layers():
        profile = PROFILES.get(name)
        purpose = profile.purpose if profile else ""
        print(f"  {name:<10} {purpose}")
    return 0


def _cmd_synthesize(args) -> int:
    from repro.errors import SynthesisError
    from repro.properties import check_well_formed
    from repro.properties.props import parse_property
    from repro.properties.synthesis import synthesize_spec

    try:
        required = {parse_property(text) for text in args.properties}
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        spec = synthesize_spec(required, network=args.network)
    except SynthesisError as exc:
        print(f"no stack exists: {exc}", file=sys.stderr)
        return 1
    if not spec:
        print(f"the {args.network} network already provides all of that")
        return 0
    analysis = check_well_formed(spec, args.network)
    print(f"stack: {spec}")
    print(analysis.explain())
    return 0


def _cmd_demo(_args) -> int:
    from repro import World

    world = World(seed=7, network="lan")
    print("joining three members over MBRSHIP:FRAG:NAK:COM ...")
    handles = {}
    for name in ("alice", "bob", "carol"):
        handles[name] = world.process(name).endpoint().join(
            "demo", stack="MBRSHIP:FRAG:NAK:COM"
        )
        world.run(0.5)
    world.run(2.0)
    print(f"view: {handles['alice'].view}")
    handles["alice"].cast(b"hello from alice")
    world.run(1.0)
    for name, handle in handles.items():
        print(f"  {name} delivered: {[m.data.decode() for m in handle.delivery_log]}")
    print("crashing carol ...")
    world.crash("carol")
    world.run(6.0)
    print(f"view after flush: {handles['alice'].view}")
    return 0


def _cmd_obs_report(args) -> int:
    from repro.errors import ConfigurationError
    from repro.obs import read_jsonl, render_layer_report, render_network_report

    try:
        snapshot = read_jsonl(args.snapshot)
    except OSError as exc:
        print(f"error: cannot read {args.snapshot}: {exc}", file=sys.stderr)
        return 2
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sections = []
    if not args.network_only:
        try:
            sections.append(render_layer_report(snapshot))
        except ConfigurationError as exc:
            if args.network:
                sections.append(f"(no layer table: {exc})")
            else:
                print(f"error: {exc}", file=sys.stderr)
                return 1
    if args.network or args.network_only:
        sections.append(render_network_report(snapshot))
    if not args.network_only:
        from repro.obs import render_flow_report, render_store_report

        try:
            sections.append(render_store_report(snapshot))
        except ConfigurationError:
            pass  # no store/xfer series in this snapshot
        try:
            sections.append(render_flow_report(snapshot))
        except ConfigurationError:
            pass  # no flow-control series in this snapshot
    try:
        print("\n\n".join(sections))
    except BrokenPipeError:
        # Piped into head/less and the reader left; not an error.
        return 0
    return 0


def _cmd_chaos(args) -> int:
    import hashlib
    import json

    from repro.chaos import (
        DEFAULT_CHAOS_STACK,
        DEFAULT_CHECKS,
        ScenarioRunner,
        generate_scenario,
        load_scenarios,
        shrink_scenario,
    )

    checks = tuple(DEFAULT_CHECKS) + (("total",) if args.check_total else ())
    runner = ScenarioRunner(
        substrate=args.substrate, seed=args.seed, checks=checks,
        store_dir=args.store_dir, durability=args.durability,
    )
    if args.scenario_file:
        scenarios = load_scenarios(args.scenario_file)
    else:
        scenarios = [
            generate_scenario(
                args.seed, index, nodes=args.nodes,
                stack=args.stack or DEFAULT_CHAOS_STACK,
                profile=args.substrate if args.substrate in ("sim", "realtime")
                else "sim",
                stateful=args.stateful,
                overload=args.overload,
                faults_through_flush=args.faults_through_flush,
            )
            for index in range(args.scenarios)
        ]
    if args.only is not None:
        scenarios = [scenarios[args.only]]

    results = []
    failures = []
    for scenario in scenarios:
        result = runner.run(scenario)
        results.append(result)
        verdict = "ok" if result.ok else "FAIL"
        print(
            f"[{verdict}] {scenario.name} sig={scenario.signature()} "
            f"ops={len(scenario.ops)} casts={result.casts_sent} "
            f"converged={result.converged} digest={result.digest[:12]}"
        )
        if not result.ok:
            failures.append(result)
            for violation in result.violations:
                print(f"  violation: {violation}")
            print("  " + result.repro_hint().replace("\n", "\n  "))
            if args.shrink:
                target = scenario

                def still_fails(candidate):
                    return not runner.run(candidate).ok

                try:
                    shrink = shrink_scenario(target, still_fails)
                except ValueError as exc:  # flaky only on realtime
                    print(f"  shrink aborted: {exc}")
                else:
                    print(f"  {shrink.summary()}; minimal repro:")
                    for line in shrink.minimal.describe().splitlines():
                        print(f"    {line}")

    soak_digest = hashlib.sha256(
        "".join(r.digest for r in results).encode()
    ).hexdigest()[:16]
    print(
        f"soak: {len(results)} scenarios, {len(failures)} failed, "
        f"seed={args.seed} substrate={args.substrate} digest={soak_digest}"
    )
    if args.report:
        payload = {
            "seed": args.seed,
            "substrate": args.substrate,
            "checks": list(checks),
            "soak_digest": soak_digest,
            "failed": len(failures),
            "scenarios": [r.summary() for r in results],
        }
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"report written to {args.report}")
    return 1 if failures else 0


def _cmd_load(args) -> int:
    import json

    from repro.errors import ConfigurationError
    from repro.flow import LoadConfig, run_load

    config = LoadConfig(
        senders=args.senders,
        rate=args.rate,
        size=args.size,
        duration=args.duration,
        seed=args.seed,
        substrate=args.substrate,
        stack=args.stack,
        window=args.window,
        max_queue=args.max_queue,
        shed_policy=args.shed_policy,
        consume_rate=args.consume_rate,
    )
    try:
        report = run_load(config, metrics_out=args.metrics_out)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rendered = report.render()
    print(rendered)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            if args.output.endswith(".json"):
                json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
                fh.write("\n")
            else:
                fh.write(rendered + "\n")
        print(f"report written to {args.output}")
    return 0


def _cmd_store_inspect(args) -> int:
    import os

    from repro.store import render_path

    if not os.path.exists(args.path):
        print(f"error: no such path {args.path}", file=sys.stderr)
        return 2
    rendered = render_path(args.path)
    if not rendered.strip():
        print(f"no stores found under {args.path}", file=sys.stderr)
        return 1
    try:
        print(rendered)
    except BrokenPipeError:
        return 0
    return 0


def main(argv: List[str] = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Horus protocol-composition reproduction (PODC 1995)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("tables", help="regenerate the paper's Tables 1-4")
    sub.add_parser("layers", help="list the protocol layer library")
    synth = sub.add_parser(
        "synthesize", help="minimal stack for required properties"
    )
    synth.add_argument("properties", nargs="+", metavar="P",
                       help="required properties, e.g. P9 P6")
    synth.add_argument("--network", default="atm",
                       choices=["atm", "udp", "lan", "plain"])
    sub.add_parser("demo", help="a 30-second simulated group tour")
    report = sub.add_parser(
        "obs-report", help="per-layer table from a metrics snapshot"
    )
    report.add_argument("snapshot", help="JSONL snapshot path")
    report.add_argument("--network", action="store_true",
                        help="also list network/transport counters")
    report.add_argument("--network-only", action="store_true",
                        help="only the network/transport counters")
    chaos = sub.add_parser(
        "chaos", help="seeded failure-scenario soak through repro.verify"
    )
    chaos.add_argument("--seed", type=int, default=0,
                       help="base seed; same seed reproduces the soak")
    chaos.add_argument("--scenarios", type=int, default=25,
                       help="how many scenarios to generate")
    chaos.add_argument("--substrate", default="sim",
                       choices=["sim", "realtime"])
    chaos.add_argument("--nodes", type=int, default=4,
                       help="group size per scenario")
    chaos.add_argument("--stack", default=None,
                       help="protocol stack under test (default: the "
                            "chaos stack; --stateful swaps in the "
                            "XFER:TOTAL stateful stack)")
    chaos.add_argument("--stateful", action="store_true",
                       help="durable replicated-dict clients, "
                            "stateful=True recovery, and the "
                            "state-convergence check")
    chaos.add_argument("--store-dir", default=None, metavar="DIR",
                       help="root for on-disk WALs (works on either "
                            "substrate; failing runs leave their "
                            "stores for `store-inspect`)")
    chaos.add_argument("--durability", default=None,
                       choices=["fsync_per_record", "group"],
                       help="store durability mode for stateful "
                            "clients (default fsync_per_record; "
                            "group exercises the batched "
                            "group-commit pipeline)")
    chaos.add_argument("--check-total", action="store_true",
                       help="also demand total order (fails on stacks "
                            "without a TOTAL layer — useful for shrink "
                            "demos)")
    chaos.add_argument("--scenario-file", default=None,
                       help="run scenarios from a JSON file (a scenario, "
                            "a list, or a chaos report) instead of "
                            "generating them")
    chaos.add_argument("--only", type=int, default=None, metavar="INDEX",
                       help="run just one scenario of the soak")
    chaos.add_argument("--shrink", action="store_true",
                       help="greedily shrink failing scenarios to "
                            "minimal repro timelines")
    chaos.add_argument("--report", default=None, metavar="PATH",
                       help="write a JSON soak report (always written, "
                            "pass or fail)")
    chaos.add_argument("--overload", action="store_true",
                       help="widen the op palette with slow_receiver / "
                            "fanin_storm / wan_squeeze against the "
                            "CREDIT overload stack")
    chaos.add_argument("--faults-through-flush", action="store_true",
                       help="eight members casting at a Poisson rate "
                            "with 1%% loss + 8%% reordering held across "
                            "every crash, flush, install and recover")
    load = sub.add_parser(
        "load", help="open-loop load generation with an SLO-style report"
    )
    load.add_argument("--senders", type=int, default=4,
                      help="producer nodes fanning into one receiver")
    load.add_argument("--rate", type=float, default=200.0,
                      help="per-sender offered arrival rate (msg/s)")
    load.add_argument("--size", type=int, default=256,
                      help="payload size in bytes")
    load.add_argument("--duration", type=float, default=5.0,
                      help="storm length in seconds")
    load.add_argument("--seed", type=int, default=0,
                      help="world seed; pins the whole report on the DES")
    load.add_argument("--substrate", default="sim",
                      choices=["sim", "realtime"])
    load.add_argument("--stack", default=None,
                      help="explicit stack spec (default: a CREDIT stack "
                           "built from --window/--max-queue/"
                           "--shed-policy)")
    load.add_argument("--window", type=int, default=16384,
                      help="CREDIT per-flow window in bytes")
    load.add_argument("--max-queue", type=int, default=64,
                      help="CREDIT bounded send-queue capacity")
    load.add_argument("--shed-policy", default="block",
                      choices=["block", "drop_newest", "drop_oldest"])
    load.add_argument("--consume-rate", type=float, default=None,
                      metavar="BPS",
                      help="receiver consumption rate in bytes/s "
                           "(makes it the slow receiver; default: "
                           "keeps up)")
    load.add_argument("--output", default=None, metavar="PATH",
                      help="also write the report to PATH (.json for "
                           "the structured form)")
    load.add_argument("--metrics-out", default=None, metavar="PATH",
                      help="write the observability snapshot (flow_* "
                           "series included) for `obs-report`")
    inspect = sub.add_parser(
        "store-inspect",
        help="human-readable dump of durable-store WALs and snapshots",
    )
    inspect.add_argument("path", help="a store directory (holding "
                                      "wal.log/snapshot.bin) or any "
                                      "ancestor directory")
    args = parser.parse_args(argv)
    handlers = {
        "tables": _cmd_tables,
        "layers": _cmd_layers,
        "synthesize": _cmd_synthesize,
        "demo": _cmd_demo,
        "obs-report": _cmd_obs_report,
        "chaos": _cmd_chaos,
        "load": _cmd_load,
        "store-inspect": _cmd_store_inspect,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())

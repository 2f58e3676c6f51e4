"""One repeat of one workload, run inside this interpreter.

``run.py`` starts a fresh interpreter per repeat and calls
:func:`run_repeat`; everything here drives the program through the
public surface of ``repro`` only.  Inputs (payloads, keys, arrival
schedules, the churn timeline) are generated here from the seed; the
program sees nothing but those inputs.

Shape of a realtime repeat: set-up -> warm-up (a fixed op count,
discarded) -> phase A closed loop -> phase B open loop -> drain ->
correctness check.  The DES repeat (``churn_sim``) is one storm phase.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import resource
import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro import FaultModel, RealtimeWorld, World
from repro.core.headers import DEFAULT_REGISTRY
from repro.errors import VerificationError
from repro.net import Coalescer
from repro.store import DurabilityPolicy, FileStoreDomain
from repro.toolkit.state_machine import ReplicatedStateMachine
from repro.verify import (
    check_fifo_per_source,
    check_total_order,
    check_view_agreement,
    check_virtual_synchrony,
)

from calibrate import Slices, SpeedProbe, setup_seconds
from probes import (
    CoalesceLedger,
    ProbedStoreDomain,
    TracedNetwork,
    TracedRegistry,
    Tracer,
    trace_datagram_receive,
    trace_stack,
)

MEMBERSHIP = "MBRSHIP(join_timeout=0.2,stability_period=0.25)"
CAST_STACK = f"TOTAL:{MEMBERSHIP}:FRAG(max_size=900):NAK:COM"
RSM_STACK = f"CREDIT(window=65536,max_queue=256,shed_policy=block):XFER:{CAST_STACK}"
#: churn_sim runs without TOTAL and pauses the fault model around
#: membership events; the README's "what churn_sim found" explains why.
CHURN_STACK = "MBRSHIP:FRAG:NAK:CHKSUM:COM"

#: The production realtime configuration (PR 7's bytes-first row).
WORLD_CONFIG = {"wire_mode": "table", "mtu": 65000, "trace": False}
COALESCE = {"max_delay": 0.0002, "max_batch": 32}

MEMBERS = 3
#: Raw spans are kept for this many ops from the start of phase A (the storm).
KEEP_SPAN_OPS = 2000
#: A repeat whose load generator ran later than this at p99 is marked
#: ``stalled``: the machine, not the protocol, made the tail.
STALL_LATE_S = 0.005
DRAIN_S = 5.0
#: Phase A's share of a realtime repeat's timed seconds.  Throughput
#: settles on fewer samples than a latency quantile does, so the
#: open-loop phase gets the larger part.
PHASE_A_SHARE = 1 / 3


def quantile(values: List[float], q: float) -> float:
    """Nearest-rank quantile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Completion:
    """When each op was done everywhere.

    One member submits and delivery is totally ordered, so op ``k`` is
    the ``k``-th event in every lane (a lane is one member's deliveries,
    or one replica's applies, or one replica's WAL commits): it is done
    when the slowest lane has counted past it.
    """

    def __init__(self, lanes: List[Any], clock: Callable[[], float]) -> None:
        self.counts = dict.fromkeys(lanes, 0)
        self.clock = clock
        self.done = 0
        self.done_at: List[float] = []
        #: Events that arrived out of submit order (a total-order fault).
        self.misordered = 0

    def advance(self, lane: Any, op: int) -> None:
        if op != self.counts[lane]:
            self.misordered += 1
        self.counts[lane] += 1
        low = min(self.counts.values())
        if low > self.done:
            self.done_at.extend([self.clock()] * (low - self.done))
            self.done = low


@dataclass(frozen=True)
class RealtimeSpec:
    payload: int
    #: Phase A: ops kept outstanding until the last member has them.
    outstanding: int
    #: Phase B: Poisson arrival rate, ops/s.
    rate: float
    #: Warm-up is a fixed op count so set-up does the same work each run.
    warmup_ops: int
    #: Closed-loop batches per calibrated slice (a slice is ~20-40 ms).
    batches_per_slice: int
    durable: bool = False


REALTIME = {
    "cast_small": RealtimeSpec(64, 32, 800.0, 4096, 4),
    "cast_large": RealtimeSpec(16384, 4, 100.0, 256, 3),
    "rsm_durable": RealtimeSpec(100, 64, 300.0, 1024, 1, durable=True),
}


# ----------------------------------------------------------------------
# Layer counters through the dump downcall
# ----------------------------------------------------------------------

_SUMMED = {
    "TOTAL": ("token_passes",),
    "FRAG": ("fragments_sent",),
    "NAK": ("retransmissions", "naks_sent"),
    "MBRSHIP": ("views_installed", "flushes_started", "relays_sent"),
    "CREDIT": ("sheds", "blocked", "grants_sent"),
    "XFER": ("snapshots_sent",),
}
_PEAKS = {"NAK": ("buffered",), "CREDIT": ("max_queue_depth",)}


#: Per-layer metrics of one substrate; the other substrate reports them as 0.
REALTIME_ONLY = (
    "net.coalesce.ops_per_datagram", "net.coalesce.self_us_per_op", "net.coalesce.hold_us_p50",
    "runtime.transport.send_us_per_datagram", "runtime.transport.recv_us_per_datagram",
    "runtime.transport.oneway_us_p50", "runtime.engine.events_per_op",
    "store.append_us_per_op", "store.flush_us_per_op", "store.commit_wait_ms_p50",
    "store.fsyncs_per_kop", "store.records_per_fsync", "store.wal_bytes_per_op",
    "store.replay_us_per_record", "toolkit.rsm.apply_us_per_op",
)
SIM_ONLY = (
    "net.network.self_us_per_op", "sim.scheduler.events_per_op", "sim.scheduler.us_per_event",
    "sim.sim_s_per_wall_s", "sim_latency_p50_ms", "sim_latency_p99_ms", "view_change_sim_ms",
)


def dump_counters(handles: Iterable[Any]) -> Dict[str, float]:
    """``LAYER.counter`` summed (peaks: maxed) over every stack."""
    out: Dict[str, float] = {}
    for handle in handles:
        for info in handle.dump():
            name = info["name"]
            for key in _SUMMED.get(name, ()):
                out[f"{name}.{key}"] = out.get(f"{name}.{key}", 0) + info[key]
            for key in _PEAKS.get(name, ()):
                out[f"{name}.{key}"] = max(out.get(f"{name}.{key}", 0), info[key])
    return out


def layer_ledger(
    spans: Dict[str, Any], before: Dict[str, float], after: Dict[str, float],
    ops: int, nak_peak: float,
) -> Dict[str, float]:
    """Per-layer metrics every workload reports the same way."""
    ops = max(ops, 1)
    delta = {k: after.get(k, 0) - before.get(k, 0) for k in after}
    self_s = lambda prefix: sum(v[0] for k, v in spans.items() if k.startswith(prefix))
    calls = lambda prefix: sum(v[1] for k, v in spans.items() if k.startswith(prefix))
    out: Dict[str, float] = {}
    for layer in ("CREDIT", "XFER", "TOTAL", "MBRSHIP", "FRAG", "NAK", "CHKSUM", "COM"):
        out[f"layers.{layer}.self_us_per_op"] = self_s(f"layers.{layer}.") / ops * 1e6
        out[f"layers.{layer}.calls_per_op"] = calls(f"layers.{layer}.") / ops
    out["core.stack.crossings_per_op"] = calls("layers.") / ops
    out["core.endpoint.demux_us_per_op"] = self_s("core.endpoint.") / ops * 1e6
    out["core.headers.marshal_us_per_op"] = self_s("core.headers.marshal") / ops * 1e6
    out["core.headers.unmarshal_us_per_op"] = self_s("core.headers.unmarshal") / ops * 1e6
    out["layers.TOTAL.token_passes_per_op"] = delta.get("TOTAL.token_passes", 0) / ops
    out["layers.FRAG.fragments_per_op"] = delta.get("FRAG.fragments_sent", 0) / ops
    out["layers.NAK.retransmits_per_kop"] = delta.get("NAK.retransmissions", 0) / ops * 1e3
    out["layers.NAK.naks_per_kop"] = delta.get("NAK.naks_sent", 0) / ops * 1e3
    out["layers.NAK.buffered_highwater"] = nak_peak
    out["layers.MBRSHIP.views_installed"] = delta.get("MBRSHIP.views_installed", 0)
    out["layers.MBRSHIP.flushes_started"] = delta.get("MBRSHIP.flushes_started", 0)
    out["layers.MBRSHIP.relays_sent"] = delta.get("MBRSHIP.relays_sent", 0)
    out["layers.CREDIT.queue_highwater"] = after.get("CREDIT.max_queue_depth", 0)
    out["layers.CREDIT.refused"] = delta.get("CREDIT.sheds", 0) + delta.get("CREDIT.blocked", 0)
    out["layers.CREDIT.grants_per_kop"] = delta.get("CREDIT.grants_sent", 0) / ops * 1e3
    out["layers.XFER.snapshots_sent"] = delta.get("XFER.snapshots_sent", 0)
    return out


def run_checks(checks: Dict[str, Callable[[], None]]) -> List[str]:
    """Run each checker; one string per violated property."""
    violations = []
    for name, check in checks.items():
        try:
            check()
        except VerificationError as exc:
            first = (getattr(exc, "violations", None) or [""])[0]
            violations.append(f"{name}: {exc} ({str(first)[:160]})")
    return violations


# ----------------------------------------------------------------------
# Realtime workloads: cast_small, cast_large, rsm_durable
# ----------------------------------------------------------------------


class RealtimeRepeat:
    """Three members in one RealtimeWorld on UDP loopback; member 0 submits."""

    def __init__(
        self, name: str, seed: int, repeat: int, window_s: float,
        tracer: Optional[Tracer], work_dir: str,
    ) -> None:
        self.name = name
        self.spec = REALTIME[name]
        self.seed = seed
        self.window_s = window_s
        self.tracer = tracer
        self.work_dir = work_dir
        self.keys = random.Random(f"{seed}/payload")
        # Each repeat draws its own arrival schedule, so the median over
        # repeats also averages over the schedule a seed happens to give.
        self.arrivals = random.Random(f"{seed}/arrivals/{repeat}")
        self.probe = SpeedProbe()
        self.issued = 0
        #: Raw spans are kept for phase A's first ops, not for the warm-up.
        self.keep_spans_until = -1
        self.refused = 0
        self.nak_peak = 0
        self.replay_us_per_record = 0.0
        self.ledger: Optional[CoalesceLedger] = None
        self.registry: Optional[TracedRegistry] = None
        self.store: Optional[ProbedStoreDomain] = None
        self.replicas: List[ReplicatedStateMachine] = []
        self.handles: List[Any] = []
        self._build_world()
        self._join()

    # -- set-up ------------------------------------------------------------

    def _build_world(self) -> None:
        tracer, kwargs = self.tracer, dict(WORLD_CONFIG)
        nodes = [f"m{i}" for i in range(MEMBERS)]
        if self.spec.durable:
            lanes = [(kind, node) for node in nodes for kind in ("apply", "wal")]
            self.store = ProbedStoreDomain(
                FileStoreDomain(root=os.path.join(self.work_dir, "store")),
                self._durable, tracer,
            )
            kwargs["store"] = self.store
        else:
            lanes = list(nodes)
        if tracer is None:
            self.world = RealtimeWorld(seed=self.seed, coalesce=COALESCE, **kwargs)
        else:
            # Same configuration, with the coalescer built here so both
            # of its sides (messages in, datagrams out) can be proxied.
            self.registry = TracedRegistry(DEFAULT_REGISTRY, tracer)
            self.world = world = RealtimeWorld(
                seed=self.seed, registry=self.registry, coalesce=False, **kwargs
            )
            trace_datagram_receive(world.engine.loop, tracer)
            self.ledger = CoalesceLedger()
            below = TracedNetwork(
                world.network, tracer, "runtime.transport.send",
                "net.coalesce.recv", self.ledger, "out",
            )
            world.network = TracedNetwork(
                Coalescer(below, world.engine, **COALESCE), tracer,
                "net.coalesce.send", "core.endpoint.demux", self.ledger, "in",
            )
        self.nodes = nodes
        self.completion = Completion(lanes, lambda: self.world.now)
        self._wal_seen = dict.fromkeys(nodes, 0)

    def _join(self) -> None:
        world, tracer, spec = self.world, self.tracer, self.spec
        wrap = tracer.wrap if tracer else (lambda _name, fn: fn)
        for node in self.nodes:
            endpoint = world.process(node).endpoint()
            if spec.durable:
                rsm = ReplicatedStateMachine(
                    endpoint, "bench", wrap("toolkit.rsm.apply", self._applier(node)),
                    initial={}, stack=RSM_STACK, durable=True,
                    snapshot_every=100000, policy=DurabilityPolicy(mode="group"),
                )
                self.replicas.append(rsm)
                handle = rsm.handle
                handle.on_message = wrap("toolkit.rsm.deliver", handle.on_message)
            else:
                handle = endpoint.join(
                    "bench", stack=CAST_STACK,
                    on_message=wrap("app.deliver", self._deliverer(node)),
                )
            if tracer:
                trace_stack(tracer, handle)
            self.handles.append(handle)
        settled = world.run_while(
            lambda: all(h.view is not None and h.view.size == MEMBERS for h in self.handles)
            and all(r.synced for r in self.replicas),
            timeout=10.0,
        )
        if not settled:
            raise RuntimeError(f"{self.name}: group never formed")
        if spec.durable:
            submit = self.replicas[0].submit
            send = lambda op: submit(self._command(op))
        else:
            pad = self.keys.randbytes(spec.payload - 8)
            cast = self.handles[0].cast
            send = lambda op: cast(op.to_bytes(8, "big") + pad)
        if tracer:
            def traced_send(op: int, send=send) -> None:
                tracer.op = op
                send(op)

            send = tracer.wrap("app.submit", traced_send)
        self._send = send

    def _deliverer(self, node: str) -> Callable[[Any], None]:
        completion, tracer = self.completion, self.tracer

        def on_message(delivered: Any) -> None:
            op = int.from_bytes(delivered.data[:8], "big")
            if tracer:
                tracer.op = op
            completion.advance(node, op)

        return on_message

    def _applier(self, node: str) -> Callable[[Any, Any], Any]:
        completion, tracer, lane = self.completion, self.tracer, ("apply", node)

        def apply(state: Dict[str, str], command: Dict[str, Any]) -> Dict[str, str]:
            if tracer:
                tracer.op = command["id"]
            state[command["key"]] = command["value"]
            completion.advance(lane, command["id"])
            return state

        return apply

    def _durable(self, node: str) -> None:
        # Tickets complete in LSN order, which is apply order.
        self.completion.advance(("wal", node), self._wal_seen[node])
        self._wal_seen[node] += 1

    def _command(self, op: int) -> Dict[str, Any]:
        keys = self.keys
        return {
            "id": op, "op": "put", "key": f"k{keys.randrange(1000)}",
            "value": f"{keys.getrandbits(184):046x}",
        }

    def submit(self) -> None:
        op = self.issued
        self.issued += 1
        if op == self.keep_spans_until and self.tracer:
            self.tracer.keep = False
        self._send(op)

    # -- phases ------------------------------------------------------------

    def closed_loop(self, seconds: Optional[float] = None, ops: Optional[int] = None) -> Slices:
        """Keep ``outstanding`` ops in flight, batch by batch.

        Ends after ``ops`` ops (warm-up) or once ``seconds`` have passed
        at a batch boundary (phase A).
        """
        world, spec, completion = self.world, self.spec, self.completion
        slices = Slices()
        deadline = None if seconds is None else world.now + seconds
        target_ops = None if ops is None else self.issued + ops
        while True:
            if target_ops is not None and self.issued >= target_ops:
                break
            if deadline is not None and world.now >= deadline:
                break
            if self.tracer:
                self._sample_peaks()
            speed = self.probe()
            wall0, cpu0, done = time.perf_counter(), time.process_time(), 0
            for _ in range(spec.batches_per_slice):
                for _ in range(spec.outstanding):
                    self.submit()
                target = self.issued
                if not world.run_while(
                    lambda: completion.done >= target, timeout=DRAIN_S, poll=0
                ):
                    return slices  # stuck: the unfinished ops count as failed
                done += spec.outstanding
            slices.add(speed, done, time.perf_counter() - wall0, time.process_time() - cpu0)
        return slices

    def open_loop(self, seconds: float) -> Dict[str, Any]:
        """Seeded Poisson arrivals scheduled up front on the engine clock."""
        world, completion = self.world, self.completion
        base, offset, due = world.now + 0.02, 0.0, []
        while True:
            offset += self.arrivals.expovariate(self.spec.rate)
            if offset >= seconds:
                break
            due.append(base + offset)
        first, late = self.issued, []

        def fire(when: float) -> None:
            late.append(world.now - when)
            self.submit()

        for when in due:
            world.engine.call_at(when, fire, when)
        world.run(base + seconds - world.now)
        world.run_while(lambda: completion.done >= first + len(due), timeout=DRAIN_S)
        done_at = completion.done_at
        latencies = [
            done_at[first + i] - when
            for i, when in enumerate(due) if first + i < len(done_at)
        ]
        return {"ops": len(due), "latencies": latencies, "late": late,
                "due": [when - base for when in due]}

    def _sample_peaks(self) -> None:
        self.nak_peak = max(self.nak_peak, dump_counters(self.handles)["NAK.buffered"])

    # -- the repeat --------------------------------------------------------

    def run(self, spawned_at: float) -> Dict[str, Any]:
        world, spec, tracer = self.world, self.spec, self.tracer
        warm_up = self.closed_loop(ops=spec.warmup_ops)
        setup_s = setup_seconds(spawned_at, [row[0] for row in warm_up.rows])
        rss = peak_rss_mb()
        warm = self.issued
        gc.collect()
        gc.disable()
        if tracer:
            before = self._mark()
            tracer.keep, self.keep_spans_until = True, self.issued + KEEP_SPAN_OPS
        slices = self.closed_loop(seconds=self.window_s * 2 * PHASE_A_SHARE)
        if tracer:
            ledger_a = self._ledger(before, slices)
            self._mark()
        paced = self.open_loop(self.window_s * 2 * (1 - PHASE_A_SHARE))
        gc.enable()
        unfinished = self.issued - self.completion.done
        hold_p50 = quantile(self.ledger.holds, 0.5) if self.ledger else 0.0
        result: Dict[str, Any] = {
            "setup_s": setup_s,
            "peak_rss_mb": rss,
            "e2e": dict(
                slices.rates(spec.payload),
                latency_p50_ms=quantile(paced["latencies"], 0.5) * 1e3,
                latency_p90_ms=quantile(paced["latencies"], 0.9) * 1e3,
            ),
            "tail": {
                "tail.latency_p99_ms": quantile(paced["latencies"], 0.99) * 1e3,
                "tail.latency_max_ms": max(paced["latencies"], default=0.0) * 1e3,
                "tail.loadgen_late_p99_ms": quantile(paced["late"], 0.99) * 1e3,
                "tail.whole_window_ops_per_s": slices.whole_window_ops_per_s,
            },
            "stalled": quantile(paced["late"], 0.99) > STALL_LATE_S,
            "samples": {"phase_a_ops": slices.ops, "phase_b_ops": paced["ops"],
                        "slices": slices.rows,
                        "phase_b": list(zip(paced["due"], paced["latencies"]))},
        }
        attempted = self.issued - warm
        violations = self._check()
        result["attempted"] = attempted
        result["failed"] = attempted if violations else min(
            attempted, unfinished + int(self.refused)
        )
        result["violations"] = violations
        if tracer:
            ledger_a["net.coalesce.hold_us_p50"] = hold_p50 * 1e6
            ledger_a["store.replay_us_per_record"] = self.replay_us_per_record
            result["layer"] = ledger_a
        world.close()
        self.probe.close()
        if self.store is not None:
            self.store.close()
        return result

    def _mark(self) -> Dict[str, Any]:
        """Zero every probe and note the counters a ledger is a delta of."""
        self.tracer.reset()
        self.ledger.reset()
        self.registry.header_bytes = 0
        if self.store:
            self.store.reset()
        stats = self.world.stats
        return {
            "dump": dump_counters(self.handles),
            "events": self.world.engine.events_executed,
            "sent": stats.packets_sent, "bytes": stats.bytes_sent,
            "delivered": stats.packets_delivered, "lost": stats.packets_lost,
        }

    def _ledger(self, before: Dict[str, Any], slices: Slices) -> Dict[str, float]:
        """Phase A's per-layer ledger (traced repeat only)."""
        spans, stats, ops = self.tracer.snapshot(), self.world.stats, max(slices.ops, 1)
        after = dump_counters(self.handles)
        out = layer_ledger(spans, before["dump"], after, ops, self.nak_peak)
        us = lambda name: spans.get(name, (0.0, 0))[0] * 1e6
        sent = stats.packets_sent - before["sent"]
        received = stats.packets_delivered - before["delivered"]
        coalescer = self.ledger
        out.update(dict.fromkeys(SIM_ONLY, 0.0))
        out.update({
            "core.headers.header_bytes_per_op": self.registry.header_bytes / ops,
            "net.datagrams_per_op": sent / ops,
            "net.wire_bytes_per_op": (stats.bytes_sent - before["bytes"]) / ops,
            "net.dropped_per_kop": (stats.packets_lost - before["lost"]) / ops * 1e3,
            "net.coalesce.ops_per_datagram": coalescer.payloads / max(coalescer.sends, 1),
            "net.coalesce.self_us_per_op": (us("net.coalesce.send") + us("net.coalesce.recv")) / ops,
            "runtime.transport.send_us_per_datagram": us("runtime.transport.send") / max(sent, 1),
            "runtime.transport.recv_us_per_datagram": us("runtime.transport.recv") / max(received, 1),
            "runtime.transport.oneway_us_p50": stats.latency.percentile(50) * 1e6,
            "runtime.engine.events_per_op": (self.world.engine.events_executed - before["events"]) / ops,
        })
        store = self.store
        out.update({
            "store.append_us_per_op": us("store.append") / ops,
            "store.flush_us_per_op": (us("store.backend.append_many") + us("store.backend.sync")) / ops,
            "store.commit_wait_ms_p50": quantile(store.commit_waits, 0.5) * 1e3 if store else 0.0,
            "store.fsyncs_per_kop": store.fsyncs / ops * 1e3 if store else 0.0,
            "store.records_per_fsync": store.records / max(store.fsyncs, 1) if store else 0.0,
            "store.wal_bytes_per_op": store.wal_bytes / ops if store else 0.0,
            "toolkit.rsm.apply_us_per_op": (us("toolkit.rsm.deliver") + us("toolkit.rsm.apply")) / ops,
        })
        out["trace.accounted_share"] = sum(v[0] for v in spans.values()) / slices.cpu if slices.cpu else 0.0
        return out

    # -- correctness -------------------------------------------------------

    def _check(self) -> List[str]:
        issued, completion = self.issued, self.completion
        violations = []
        short = {str(l): c for l, c in completion.counts.items() if c != issued}
        if short:
            violations.append(f"counts: {issued} ops submitted, lanes short: {short}")
        if completion.misordered:
            violations.append(f"order: {completion.misordered} events out of submit order")
        violations += run_checks({"total": lambda: check_total_order(self.handles)})
        if self.spec.durable:
            dump = dump_counters(self.handles)
            self.refused = dump.get("CREDIT.sheds", 0) + dump.get("CREDIT.blocked", 0)
            violations += self._check_durable()
        return violations

    def _check_durable(self) -> List[str]:
        """Digests agree; then crash a replica mid-burst and replay its WAL."""
        violations = []
        digests = {r.digest() for r in self.replicas}
        if len(digests) != 1:
            violations.append(f"state: {len(digests)} distinct replica digests")
        # A last burst nobody waits for, so the crash lands on a WAL with
        # staged-but-unflushed records: only the acknowledged prefix is owed.
        for _ in range(self.spec.outstanding):
            self.submit()
        self.world.run(0.001)
        victim = self.nodes[-1]
        self.world.crash(victim)
        acked = self.completion.counts[("wal", victim)]
        fresh = FileStoreDomain(root=os.path.join(self.work_dir, "store"))
        try:
            started = time.perf_counter()
            replayed = fresh.store(victim, "rsm.bench").replay()
            elapsed = time.perf_counter() - started
        finally:
            fresh.close()
        present = {json.loads(entry)["id"] for entry in replayed.entries}
        acked_lost = sum(1 for op in range(acked) if op not in present)
        if acked_lost or replayed.corrupt:
            violations.append(
                f"wal: {acked_lost} acknowledged commands missing after replay "
                f"({replayed.corrupt} corrupt records)"
            )
        self.replay_us_per_record = elapsed / max(len(replayed.entries), 1) * 1e6
        # The burst is outside the measured phases.
        self.issued -= self.spec.outstanding
        return violations


# ----------------------------------------------------------------------
# churn_sim: the DES under loss, reordering, crashes and re-joins
# ----------------------------------------------------------------------

CHURN_MEMBERS = 8
CHURN_PAYLOAD = 200
CHURN_RATE = 20.0  # casts/s per member
#: The path when it is calm, and what the storm adds to it.  The rates
#: put the median cast in the clean lump of the latency distribution
#: (~80 % of casts) and the 90th percentile inside the reordered lump
#: (top ~5-23 %), away from the lumps' edges, so neither quantile jumps
#: between lumps from seed to seed; NAK recovery is the tail above them.
CHURN_PATH = {"base_delay": 0.001}
CHURN_FAULTS = {"jitter": 0.0002, "loss_rate": 0.01, "reorder_rate": 0.08, "reorder_delay": 0.005}
#: One crash per this many simulated seconds, recovered CHURN_DOWN_S later.
CHURN_PERIOD_S = 10.0
CHURN_DOWN_S = 4.0
#: The path is calm from 0.5 s before a crash until the survivors have
#: excluded the victim (~1.5 s: NAK's problem_timeout), and around a
#: re-join (installed within milliseconds); README, "what churn_sim found".
CHURN_CALM_S = {"crash": (0.5, 2.0), "recover": (0.5, 0.5)}
#: Simulated seconds per calibrated slice.
CHURN_SLICE_S = 0.25


def run_churn(seed: int, storm_s: float, tracer: Optional[Tracer], spawned_at: float) -> Dict[str, Any]:
    world = World(seed=seed, network="lan", trace=False,
                  registry=TracedRegistry(DEFAULT_REGISTRY, tracer) if tracer else None)
    if tracer:
        world.network = TracedNetwork(world.network, tracer, "net.network.send", "core.endpoint.demux")
    wrap = tracer.wrap if tracer else (lambda _name, fn: fn)
    scheduler, nodes = world.scheduler, [f"n{i}" for i in range(CHURN_MEMBERS)]
    rng = random.Random(f"{seed}/churn")

    # The timeline first: who crashes decides whose deliveries complete an op.
    # Victims are distinct, so the same number of members stays up
    # throughout on every seed; the coordinator is not one of them.
    times = []
    at = CHURN_PERIOD_S / 2
    while at < storm_s and len(times) < CHURN_MEMBERS - 1:
        times.append(at)
        at += CHURN_PERIOD_S
    crashes = list(zip(times, rng.sample(nodes[1:], len(times))))
    stable = [n for n in nodes if n not in {victim for _, victim in crashes}]

    live: Dict[str, Any] = {}
    all_handles: List[Any] = []
    sent_by: Dict[str, List[bytes]] = {}
    cast_at: Dict[int, float] = {}
    seen: Dict[int, int] = {}
    latencies: List[float] = []
    view_changes: List[float] = []
    #: crashed node -> (crash time, survivors whose view still holds it)
    excluding: Dict[str, Any] = {}
    down: set = set()

    def join(node: str) -> None:
        def on_message(delivered: Any) -> None:
            if node not in stable:
                return
            op = int.from_bytes(delivered.data[:8], "big")
            if tracer:
                tracer.op = op
            seen[op] = seen.get(op, 0) + 1
            if seen[op] == len(stable):
                latencies.append(scheduler.now - cast_at[op])

        def on_view(view: Any) -> None:
            present = {member.node for member in view.members}
            for victim, (crashed_at, waiting) in list(excluding.items()):
                if victim not in present:
                    waiting.discard(node)
                    if not waiting:
                        view_changes.append(scheduler.now - crashed_at)
                        del excluding[victim]

        handle = world.process(node).endpoint().join(
            "churn", stack=CHURN_STACK, on_view=on_view,
            on_message=wrap("app.deliver", on_message),
        )
        if tracer:
            trace_stack(tracer, handle)
        live[node] = handle
        all_handles.append(handle)

    probe, probes = SpeedProbe(), []
    for node in nodes:
        join(node)
        world.run(0.3)
        probes.append(probe())
    full = lambda: all(h.view is not None and h.view.size == CHURN_MEMBERS for h in live.values())
    if not world.run_while(full, timeout=30.0):
        raise RuntimeError("churn_sim: group never formed")
    setup_s = setup_seconds(spawned_at, probes)

    start = scheduler.now
    pad = rng.randbytes(CHURN_PAYLOAD - 8)
    issued = [0]

    def cast(node: str) -> None:
        handle = live[node]
        # A crashed node is silent; a re-joining one speaks once merged.
        if node in down or handle.view is None or handle.view.size < CHURN_MEMBERS - 1:
            return
        op = issued[0]
        issued[0] += 1
        if tracer and op == KEEP_SPAN_OPS:
            tracer.keep = False
        if tracer:
            tracer.op = op
        data = op.to_bytes(8, "big") + pad
        cast_at[op] = scheduler.now
        sent_by.setdefault(str(handle.endpoint_address), []).append(data)
        handle.cast(data)

    traced_cast = wrap("app.submit", cast)
    for node in nodes:
        offset = 0.0
        while True:
            offset += rng.expovariate(CHURN_RATE)
            if offset >= storm_s:
                break
            scheduler.call_at(start + offset, traced_cast, node)

    faulty, clean = FaultModel(**CHURN_PATH, **CHURN_FAULTS), FaultModel(**CHURN_PATH)

    def crash(node: str) -> None:
        world.crash(node)
        down.add(node)
        excluding[node] = (scheduler.now, {n for n in nodes if n != node})

    def recover(node: str) -> None:
        world.recover(node)
        down.discard(node)
        join(node)

    for at, victim in crashes:
        for event, when in ((crash, at), (recover, at + CHURN_DOWN_S)):
            before, after = CHURN_CALM_S[event.__name__]
            scheduler.call_at(start + when, event, victim)
            scheduler.call_at(start + when - before, world.set_faults, clean)
            scheduler.call_at(start + when + after, world.set_faults, faulty)
    world.set_faults(faulty)

    gc.collect()
    gc.disable()
    if tracer:
        tracer.reset()
        tracer.keep = True
    before = dump_counters(all_handles)
    events0, stats = scheduler.events_executed, world.network.stats
    sent0, bytes0, lost0 = stats.packets_sent, stats.bytes_sent, stats.packets_lost
    slices, nak_peak = Slices(), 0
    while scheduler.now < start + storm_s - 1e-9:
        speed = probe()
        wall0, cpu0, ops0 = time.perf_counter(), time.process_time(), issued[0]
        world.run(min(CHURN_SLICE_S, start + storm_s - scheduler.now))
        slices.add(speed, issued[0] - ops0, time.perf_counter() - wall0, time.process_time() - cpu0)
        if tracer:
            nak_peak = max(nak_peak, dump_counters(live.values())["NAK.buffered"])
    probe.close()
    spans = tracer.snapshot() if tracer else {}
    events = scheduler.events_executed - events0
    datagrams, wire_bytes = stats.packets_sent - sent0, stats.bytes_sent - bytes0
    dropped = stats.packets_lost - lost0
    after = dump_counters(all_handles)
    gc.enable()

    # Mend: faults off, everyone back, one agreed full view, quiet logs.
    world.set_faults(None)
    agreed = lambda: full() and len(
        {(h.view.view_id.epoch, str(h.view.view_id.coordinator)) for h in live.values()}
    ) == 1
    converged = world.run_while(agreed, timeout=30.0)
    world.run(2.0)

    violations = run_checks({
        "views": lambda: check_view_agreement(all_handles),
        "vs": lambda: check_virtual_synchrony(all_handles),
        "fifo": lambda: check_fifo_per_source(all_handles, sent_by),
    })
    if not converged:
        violations.append("converge: no single full view within 30 simulated seconds")
    if len(view_changes) != len(crashes):
        violations.append(f"views: {len(crashes)} crashes but {len(view_changes)} exclusions")
    attempted = issued[0]
    undelivered = attempted - len(latencies)
    digest = hashlib.sha256()
    for handle in sorted(all_handles, key=lambda h: str(h.endpoint_address)):
        digest.update(str(handle.endpoint_address).encode())
        for view in handle.view_history:
            digest.update(f"|V{view.view_id.epoch}{sorted(map(str, view.members))}".encode())
        for delivered in handle.delivery_log:
            digest.update(b"|M" + str(delivered.source).encode() + delivered.data[:8])

    sim = {
        "sim_latency_p50_ms": quantile(latencies, 0.5) * 1e3,
        "sim_latency_p99_ms": quantile(latencies, 0.99) * 1e3,
        "view_change_sim_ms": statistics.median(view_changes) * 1e3 if view_changes else 0.0,
    }
    result: Dict[str, Any] = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "e2e": dict(
            slices.rates(CHURN_PAYLOAD),
            latency_p50_ms=sim["sim_latency_p50_ms"],
            latency_p90_ms=quantile(latencies, 0.9) * 1e3,
        ),
        "tail": {
            "tail.latency_p99_ms": sim["sim_latency_p99_ms"],
            "tail.latency_max_ms": max(latencies, default=0.0) * 1e3,
            "tail.loadgen_late_p99_ms": 0.0,
            "tail.whole_window_ops_per_s": slices.whole_window_ops_per_s,
        },
        "stalled": False,
        "samples": {"phase_a_ops": attempted, "phase_b_ops": 0, "slices": slices.rows},
        "attempted": attempted,
        "failed": attempted if violations else undelivered,
        "violations": violations,
        "determinism": {
            "events": events, "datagrams": datagrams, "wire_bytes": wire_bytes,
            "digest": digest.hexdigest(),
        },
    }
    if tracer:
        ops = max(attempted, 1)
        us = lambda name: spans.get(name, (0.0, 0))[0] * 1e6
        layer = layer_ledger(spans, before, after, ops, nak_peak)
        layer.update(dict.fromkeys(REALTIME_ONLY, 0.0))
        layer.update({
            "core.headers.header_bytes_per_op": world.registry.header_bytes / ops,
            "net.datagrams_per_op": datagrams / ops,
            "net.wire_bytes_per_op": wire_bytes / ops,
            "net.dropped_per_kop": dropped / ops * 1e3,
            "net.network.self_us_per_op": us("net.network.send") / ops,
            "sim.scheduler.events_per_op": events / ops,
            "sim.scheduler.us_per_event": slices.scaled_wall / max(events, 1) * 1e6,
            "sim.sim_s_per_wall_s": storm_s / slices.scaled_wall if slices.scaled_wall else 0.0,
            "trace.accounted_share": sum(v[0] for v in spans.values()) / slices.cpu if slices.cpu else 0.0,
        })
        layer.update(sim)
        result["layer"] = layer
    return result


# ----------------------------------------------------------------------


def run_repeat(
    workload: str, seed: int, repeat: int, window_s: float, traced: bool,
    spawned_at: float, work_dir: str, trace_out: Optional[str] = None,
) -> Dict[str, Any]:
    """Repeat number ``repeat`` of a run; ``window_s`` is half a realtime
    repeat's timed seconds and a tenth of the simulated storm."""
    tracer = Tracer() if traced else None
    if workload == "churn_sim":
        result = run_churn(seed, 10.0 * window_s, tracer, spawned_at)
    else:
        result = RealtimeRepeat(
            workload, seed, repeat, window_s, tracer, work_dir
        ).run(spawned_at)
    if tracer and trace_out:
        with open(trace_out, "w", encoding="utf-8") as out:
            for index, span in enumerate(tracer.spans):
                if span is not None:
                    name, start, end, parent, op = span
                    out.write(json.dumps(
                        {"id": index, "name": name, "start": start, "end": end,
                         "parent": parent, "op": op}
                    ) + "\n")
    return result

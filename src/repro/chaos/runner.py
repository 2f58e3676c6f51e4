"""Execute chaos scenarios and verify the survivors' stories.

The :class:`ScenarioRunner` drives a :class:`~repro.chaos.scenario.Scenario`
against a fresh world on either substrate — the DES :class:`~repro.core
.process.World` or the :class:`~repro.runtime.world.RealtimeWorld` —
through the world-level :class:`~repro.chaos.faultplane.FaultPlane`
alone, so the op-application code is substrate-blind.

A run has four phases:

1. **form** — every node joins the group and the first full view
   installs;
2. **storm** — the timeline ops fire at their scheduled offsets
   (crashes, partitions, fault models, load);
3. **mend** — the runner heals partitions, restores a pristine fault
   model, recovers every crashed node (each recovery re-joins through
   MBRSHIP merge with a *fresh* endpoint — fail-stop nodes never resume
   in-memory state), and gives the group ``scenario.settle`` seconds to
   converge;
4. **verify** — the delivery logs and the world trace are replayed
   through the :mod:`repro.verify` checkers; every
   :class:`~repro.errors.VerificationError` becomes a violation string
   carrying the data needed to replay (seed + timeline), and so does a
   group that did not converge in phase 3.

On the DES the whole run is a pure function of ``(seed, scenario)``:
the :meth:`ScenarioResult.digest` — a hash over every member's view
history and delivery log — is byte-identical across same-seed runs,
which is what turns a soak failure into a replayable repro.

**Stateful mode** (``scenario.stateful``): every node hosts a durable
:class:`~repro.toolkit.replicated_data.ReplicatedDict` client instead
of a bare handle, load ops become replicated writes, crashed nodes are
recovered with ``stateful=True`` (store WAL replay + XFER catch-up),
and verification adds the ``state`` check — after the mend, every
member's dict digest must be identical.  The state digests also fold
into :meth:`ScenarioResult.digest`, so DES determinism now covers the
durable state too.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.chaos.scenario import (
    ChaosOp,
    Crash,
    FaninStorm,
    Heal,
    InjectLoad,
    Partition,
    Recover,
    Scenario,
    SetFaults,
    SlowReceiver,
    WanSqueeze,
)
from repro.core.events import FlowVerdict
from repro.errors import VerificationError
from repro.verify import (
    CrashSilenceSpec,
    DeliveryGaplessSpec,
    TotalOrderGaplessSpec,
    ViewEpochMonotoneSpec,
    check_fifo_per_source,
    check_total_order,
    check_trace,
    check_view_agreement,
    check_view_synchrony_relacs,
    check_virtual_synchrony,
)

#: Checks every run performs (names are stable CLI/report vocabulary).
DEFAULT_CHECKS: Tuple[str, ...] = ("views", "vs", "relacs", "fifo", "trace")


@dataclass
class ScenarioResult:
    """Everything one scenario run produced."""

    scenario: Scenario
    seed: int
    substrate: str
    checks: Tuple[str, ...]
    #: Violation strings from the verify phase; empty means the stack
    #: survived the storm with every checked guarantee intact.
    violations: List[str] = field(default_factory=list)
    #: Hash over all members' view histories and delivery logs.  On the
    #: DES this is a pure function of (seed, scenario).
    digest: str = ""
    #: Whether every live member agreed on one full final view (and,
    #: stateful, on one synced state) before the settle budget ran out.
    #: A group that does not converge is a violation: a split group is
    #: not ``[ok]``, whatever it delivered.
    converged: bool = False
    casts_sent: int = 0
    casts_skipped: int = 0
    #: The ops as applied, with their actual world times.
    timeline: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when the verify phase found nothing."""
        return not self.violations

    def summary(self) -> Dict[str, Any]:
        """JSON-safe report entry (what the soak report persists)."""
        return {
            "scenario": self.scenario.to_dict(),
            "signature": self.scenario.signature(),
            "seed": self.seed,
            "substrate": self.substrate,
            "checks": list(self.checks),
            "violations": list(self.violations),
            "digest": self.digest,
            "converged": self.converged,
            "casts_sent": self.casts_sent,
            "casts_skipped": self.casts_skipped,
            "timeline": list(self.timeline),
        }

    def repro_hint(self) -> str:
        """How to replay this exact run from a shell."""
        return (
            f"replay: seed={self.seed} substrate={self.substrate} "
            f"scenario={self.scenario.name} (signature "
            f"{self.scenario.signature()}); timeline:\n"
            + "\n".join(f"  {line}" for line in self.timeline)
        )


class ScenarioRunner:
    """Runs scenarios on one substrate with one verification profile.

    Args:
        substrate: ``"sim"`` (DES, deterministic) or ``"realtime"``
            (asyncio engine + OS-UDP loopback, wall-clock).
        seed: base seed; each scenario derives its world seed from this
            plus the scenario name, so runs are independent but
            replayable.
        checks: check names to perform (default
            :data:`DEFAULT_CHECKS`).  ``"total"`` adds the total-order
            checker — demanding it of a stack without a TOTAL layer is
            the canonical deliberately-failing scenario.  ``"state"``
            (added automatically for stateful scenarios) requires every
            member's replicated-dict digest to match after the mend.
        network: DES network kind for the sim substrate.
        store_dir: root directory for durable stores.  When given, each
            scenario's world gets a :class:`~repro.store.FileStoreDomain`
            rooted at ``<store_dir>/<scenario name>`` — on *either*
            substrate — so a failing run leaves its WALs on disk for
            ``python -m repro store-inspect``.  File I/O is outside the
            DES event loop, so sim digests stay pure in
            ``(seed, scenario)``.
        durability: the store durability mode stateful clients journal
            under — ``fsync_per_record`` (default), ``group``, or
            ``async`` (see :class:`~repro.store.DurabilityPolicy`).
            Relaxed modes exercise the group-commit pipeline: a crash
            drops volatile batch buffers (tickets never completed), and
            stateful recovery must still converge from the durable
            prefix plus XFER catch-up.
    """

    def __init__(
        self,
        substrate: str = "sim",
        seed: int = 0,
        checks: Optional[Iterable[str]] = None,
        network: str = "lan",
        store_dir: Optional[str] = None,
        durability: Optional[str] = None,
    ) -> None:
        if substrate not in ("sim", "realtime"):
            raise ValueError(f"unknown substrate {substrate!r}")
        self.substrate = substrate
        self.seed = seed
        self.checks = tuple(checks) if checks is not None else DEFAULT_CHECKS
        self.network = network
        self.store_dir = store_dir
        if durability is not None:
            from repro.store import parse_policy

            parse_policy(durability)  # fail fast on unknown modes
        self.durability = durability

    # ------------------------------------------------------------------
    # World plumbing
    # ------------------------------------------------------------------

    def _world_seed(self, scenario: Scenario) -> int:
        from repro.sim.rand import derive_seed

        return derive_seed(self.seed, f"chaos.run.{scenario.name}")

    def _make_world(self, scenario: Scenario):
        store = None
        metrics = None
        if self.store_dir is not None:
            import os

            from repro.obs import MetricsRegistry
            from repro.store import FileStoreDomain

            # Shared registry so the file store's counters land in the
            # same place as the world's.
            metrics = MetricsRegistry()
            store = FileStoreDomain(
                root=os.path.join(self.store_dir, scenario.name),
                metrics=metrics,
            )
        if self.substrate == "sim":
            from repro.core.process import World

            return World(
                seed=self._world_seed(scenario),
                network=self.network,
                metrics=metrics,
                store=store,
            )
        from repro.runtime.world import RealtimeWorld

        return RealtimeWorld(
            seed=self._world_seed(scenario), metrics=metrics, store=store
        )

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def run(self, scenario: Scenario) -> ScenarioResult:
        """Execute one scenario; always returns a result (never raises
        for protocol-level violations — those land in ``violations``)."""
        checks = self.checks
        if scenario.stateful and "state" not in checks:
            checks = checks + ("state",)
        result = ScenarioResult(
            scenario=scenario,
            seed=self.seed,
            substrate=self.substrate,
            checks=checks,
        )
        world = self._make_world(scenario)
        try:
            self._execute(world, scenario, result)
        finally:
            # Quiesce relaxed-durability writers so the WALs a failing
            # run leaves behind are complete for store-inspect.
            flush_all = getattr(world.store, "flush_all", None)
            if flush_all is not None:
                flush_all()
            if self.substrate == "realtime":
                world.close()
        return result

    def _execute(self, world, scenario: Scenario, result: ScenarioResult) -> None:
        group = f"chaos-{scenario.name}"
        #: node -> list of handles, oldest first (recoveries append).
        handles: Dict[str, List[Any]] = {node: [] for node in scenario.nodes}
        #: node -> list of durable dict clients (stateful mode only).
        clients: Dict[str, List[Any]] = {node: [] for node in scenario.nodes}
        #: source endpoint string -> payloads cast, in order (FIFO oracle).
        sent_by: Dict[str, List[bytes]] = {}
        crashed: set = set()
        self._cast_seq = 0
        stateful = scenario.stateful

        def join(node: str) -> None:
            if stateful:
                from repro.toolkit.replicated_data import ReplicatedDict

                client = ReplicatedDict(
                    world.process(node).endpoint(),
                    group,
                    stack=scenario.stack,
                    durable=True,
                    policy=self.durability,
                )
                clients[node].append(client)
                handle = client.handle
            else:
                handle = world.process(node).endpoint().join(
                    group, stack=scenario.stack
                )
            handles[node].append(handle)
            sent_by.setdefault(str(handle.endpoint_address), [])

        # Phase 1: form.  Stagger the joins (the bootstrap order every
        # existing test uses), then wait for the first full view.
        for node in scenario.nodes:
            join(node)
            world.run(0.3)
        full = len(scenario.nodes)
        world.run_while(
            lambda: all(
                h[-1].view is not None and h[-1].view.size == full
                for h in handles.values()
            ),
            timeout=30.0 if self.substrate == "sim" else 10.0,
        )

        # Phase 2: storm.
        storm_start = world.now
        note = result.timeline.append
        for op in scenario.ops:
            target = storm_start + op.at
            if target > world.now:
                world.run(target - world.now)
            self._apply(world, op, scenario, handles, clients, sent_by,
                        crashed, result, join)
            note(f"t={world.now - storm_start:.2f} {op.label()}")
        tail = storm_start + scenario.duration - world.now
        if tail > 0:
            world.run(tail)

        # Phase 3: mend.  Restore a pristine world and let the group
        # converge: heal partitions, clear injected faults, recover and
        # re-join every crashed node.
        world.heal()
        world.set_faults(None)
        for node, per_node in handles.items():
            if per_node and not per_node[-1].left and world.node_alive(node):
                for layer in per_node[-1].focus_all("CREDIT"):
                    layer.set_consume_rate(None)
        for node in sorted(crashed):
            world.recover(node, stateful=stateful)
            join(node)
        crashed.clear()

        def converged() -> bool:
            live = [h[-1] for h in handles.values()]
            views = {
                (h.view.view_id.epoch, str(h.view.view_id.coordinator))
                for h in live
                if h.view is not None
            }
            if len(views) != 1 or not all(
                h.view is not None and h.view.size == full for h in live
            ):
                return False
            if stateful:
                final = [c[-1] for c in clients.values() if c]
                if not all(c.synced for c in final):
                    return False
                if len({c.digest() for c in final}) != 1:
                    return False
            return True

        result.converged = world.run_while(converged, timeout=scenario.settle)
        # Give in-flight retransmissions a final drain so delivery logs
        # are cut at a quiet point.
        world.run(2.0 if self.substrate == "sim" else 0.5)

        # Phase 4: verify.
        all_handles = [h for per_node in handles.values() for h in per_node]
        final_clients = [c[-1] for c in clients.values() if c]
        self._verify(world, all_handles, sent_by, final_clients, result)
        if not result.converged:
            result.violations.append(
                "converged: the live members agreed on no single full view "
                f"within the {scenario.settle:g} s settle budget"
            )
        result.digest = self._digest(all_handles, final_clients)
        self._note_metrics(world, result)

    # ------------------------------------------------------------------
    # Op application
    # ------------------------------------------------------------------

    def _apply(
        self,
        world,
        op: ChaosOp,
        scenario: Scenario,
        handles: Dict[str, List[Any]],
        clients: Dict[str, List[Any]],
        sent_by: Dict[str, List[bytes]],
        crashed: set,
        result: ScenarioResult,
        join,
    ) -> None:
        if isinstance(op, Crash):
            if world.node_alive(op.node):
                world.crash(op.node)
                crashed.add(op.node)
        elif isinstance(op, Recover):
            if op.node in crashed:
                world.recover(op.node, stateful=scenario.stateful)
                crashed.discard(op.node)
                join(op.node)
        elif isinstance(op, Partition):
            world.partition(*[list(c) for c in op.components])
        elif isinstance(op, Heal):
            world.heal()
        elif isinstance(op, SetFaults):
            world.set_faults(op.model())
        elif isinstance(op, WanSqueeze):
            world.set_faults(op.model())
        elif isinstance(op, InjectLoad):
            self._inject_load(world, op, scenario, handles, clients,
                              sent_by, result)
        elif isinstance(op, SlowReceiver):
            self._slow_receiver(world, op, handles)
        elif isinstance(op, FaninStorm):
            self._fanin_storm(world, op, scenario, handles, sent_by, result)
        else:  # pragma: no cover - scenario.py and this dispatch co-evolve
            raise ValueError(f"runner cannot apply op kind {op.kind!r}")

    @staticmethod
    def _slow_receiver(
        world, op: SlowReceiver, handles: Dict[str, List[Any]]
    ) -> None:
        """Throttle the node's CREDIT consumption (no-op without CREDIT)."""
        if not handles[op.node] or not world.node_alive(op.node):
            return
        handle = handles[op.node][-1]
        for layer in handle.focus_all("CREDIT"):
            layer.set_consume_rate(op.rate if op.rate > 0 else None)

    def _fanin_storm(
        self,
        world,
        op: FaninStorm,
        scenario: Scenario,
        handles: Dict[str, List[Any]],
        sent_by: Dict[str, List[bytes]],
        result: ScenarioResult,
    ) -> None:
        """Converge ``count`` casts from every live node onto the group
        (the target itself stays quiet — it is the one being stormed)."""
        for node in scenario.nodes:
            if node == op.target or not handles[node]:
                continue
            handle = handles[node][-1]
            if handle.left or not world.node_alive(node):
                result.casts_skipped += op.count
                continue
            for _ in range(op.count):
                stamp = f"{scenario.name}|{node}|{self._cast_seq}|".encode()
                self._cast_seq += 1
                payload = (stamp + b"." * op.size)[: max(op.size, len(stamp))]
                self._cast_recorded(handle, payload, sent_by, result)

    def _inject_load(
        self,
        world,
        op: InjectLoad,
        scenario: Scenario,
        handles: Dict[str, List[Any]],
        clients: Dict[str, List[Any]],
        sent_by: Dict[str, List[bytes]],
        result: ScenarioResult,
    ) -> None:
        handle = handles[op.node][-1] if handles[op.node] else None
        client = clients[op.node][-1] if clients[op.node] else None
        if handle is None or handle.left or not world.node_alive(op.node):
            result.casts_skipped += op.count
            return
        load_hist = world.metrics.histogram(
            "chaos_load_bytes",
            "Payload sizes of chaos-injected casts",
            buckets=_SIZE_BUCKETS,
        )
        for _ in range(op.count):
            stamp = f"{scenario.name}|{op.node}|{self._cast_seq}|".encode()
            self._cast_seq += 1
            if client is not None:
                # Stateful load: a replicated write under a unique
                # key.  Keys never collide, so set ops commute and
                # the converged digests are storm-order-independent.
                try:
                    payload = client.set(
                        stamp.decode("utf-8"), "." * op.size
                    )
                except Exception:
                    # A node in a blocked minority or mid-leave may
                    # refuse; chaos shrugs — the skip count keeps the
                    # books honest.
                    result.casts_skipped += 1
                    continue
                sent_by[str(handle.endpoint_address)].append(payload)
                result.casts_sent += 1
                load_hist.observe(float(len(payload)))
                continue
            payload = (stamp + b"." * op.size)[: max(op.size, len(stamp))]
            if self._cast_recorded(handle, payload, sent_by, result):
                load_hist.observe(float(len(payload)))

    def _cast_recorded(
        self,
        handle,
        payload: bytes,
        sent_by: Dict[str, List[bytes]],
        result: ScenarioResult,
    ) -> bool:
        """Cast ``payload`` and record it in the FIFO oracle only if the
        flow verdict says it will actually be sent.  A SHED/BLOCKED cast
        is a *refusal*, not a loss — recording it would make the gapless
        FIFO checker demand delivery of a message that never left."""
        try:
            verdict = handle.cast(payload)
        except Exception:
            result.casts_skipped += 1
            return False
        if verdict in (FlowVerdict.SHED, FlowVerdict.BLOCKED):
            result.casts_skipped += 1
            return False
        sent_by[str(handle.endpoint_address)].append(payload)
        result.casts_sent += 1
        return True

    # ------------------------------------------------------------------
    # Verification and accounting
    # ------------------------------------------------------------------

    def _verify(
        self,
        world,
        all_handles: List[Any],
        sent_by: Dict[str, List[bytes]],
        final_clients: List[Any],
        result: ScenarioResult,
    ) -> None:
        checkers = {
            "state": lambda: self._check_state(final_clients),
            "views": lambda: check_view_agreement(all_handles),
            "vs": lambda: check_virtual_synchrony(all_handles),
            "relacs": lambda: check_view_synchrony_relacs(all_handles),
            "fifo": lambda: check_fifo_per_source(all_handles, sent_by),
            "total": lambda: check_total_order(all_handles),
            "trace": lambda: check_trace(
                world.trace,
                [
                    ViewEpochMonotoneSpec(),
                    CrashSilenceSpec(),
                    DeliveryGaplessSpec(),
                    TotalOrderGaplessSpec(),
                ],
            ),
        }
        for name in result.checks:
            checker = checkers.get(name)
            if checker is None:
                raise ValueError(f"unknown check {name!r}")
            try:
                checker()
            except VerificationError as exc:
                details = getattr(exc, "violations", None) or []
                result.violations.append(
                    f"{name}: {exc}"
                    + ("".join(f"\n    {d}" for d in details[:5]))
                )

    @staticmethod
    def _check_state(final_clients: List[Any]) -> None:
        """The state-convergence check: after the mend, every member's
        replicated-dict state must be authoritative and identical."""
        if not final_clients:
            raise VerificationError(
                "state check requires a stateful scenario (no clients)"
            )
        violations = []
        for client in final_clients:
            if not client.synced:
                violations.append(f"{client.handle.endpoint_address}: never synced")
        digests = sorted({
            (c.digest(), str(c.handle.endpoint_address))
            for c in final_clients if c.synced
        })
        if len({d for d, _ in digests}) > 1:
            for digest_value, address in digests:
                violations.append(
                    f"{address}: state digest {digest_value[:16]}"
                )
        if violations:
            raise VerificationError(
                f"replicated state diverged across "
                f"{len(final_clients)} members",
                violations=violations,
            )

    @staticmethod
    def _digest(all_handles: List[Any], final_clients: List[Any] = ()) -> str:
        """Hash every member's view history and delivery log (and, for
        stateful runs, every member's final state digest)."""
        digest = hashlib.sha256()
        for handle in sorted(all_handles, key=lambda h: str(h.endpoint_address)):
            digest.update(str(handle.endpoint_address).encode())
            for view in handle.view_history:
                members = ",".join(sorted(str(m) for m in view.members))
                digest.update(
                    f"|V{view.view_id.epoch}@{view.view_id.coordinator}"
                    f"[{members}]".encode()
                )
            for delivered in handle.delivery_log:
                digest.update(b"|M" + str(delivered.source).encode() + b":")
                digest.update(delivered.data)
        by_address = lambda c: str(c.handle.endpoint_address)
        for client in sorted(final_clients, key=by_address):
            digest.update(b"|S" + by_address(client).encode() + b":")
            digest.update(client.digest().encode())
        return digest.hexdigest()

    def _note_metrics(self, world, result: ScenarioResult) -> None:
        verdict = "ok" if result.ok else "violated"
        world.metrics.counter(
            "chaos_scenarios_total",
            "Chaos scenarios executed, by verdict",
            labels=("verdict",),
        ).labels(verdict=verdict).inc()
        world.metrics.counter(
            "chaos_casts_injected_total",
            "Application casts injected by chaos load ops",
        ).inc(result.casts_sent)


#: Byte-size buckets for the injected-load histogram (16 B – 64 KiB).
_SIZE_BUCKETS: Tuple[float, ...] = tuple(float(1 << n) for n in range(4, 17))

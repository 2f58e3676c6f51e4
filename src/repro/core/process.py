"""Simulated processes and the world that contains them.

A :class:`Process` models one OS process on one machine: it owns
endpoints, can crash fail-stop, and (key detail) all of its timers and
queued events die with it — a crashed process never executes another
instruction, which the :class:`GuardedScheduler` enforces.

The :class:`World` bundles the scheduler, network, directory, trace
recorder, and randomness for one simulation run, and is the single
entry point applications and tests use.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Union

from repro.core.endpoint import Endpoint
from repro.core.headers import (
    DEFAULT_REGISTRY, HeaderFrameStore, HeaderRegistry, WIRE_MODES,
)
from repro.errors import ConfigurationError, SimulationError
from repro.membership.directory import GroupDirectory
from repro.net.address import EndpointAddress
from repro.net.atm import AtmNetwork
from repro.net.coalesce import Coalescer
from repro.net.faults import FaultModel
from repro.net.lan import LanNetwork
from repro.net.network import Network
from repro.net.udp import UdpNetwork
from repro.obs import MetricsRegistry, ObsOptions, SpanRecorder, write_jsonl
from repro.sim.rand import RandomRouter
from repro.sim.scheduler import EventHandle, Scheduler
from repro.sim.trace import TraceRecorder
from repro.store import MemoryStoreDomain

_NETWORK_KINDS = {
    "lan": LanNetwork,
    "udp": UdpNetwork,
    "atm": AtmNetwork,
    "plain": Network,
}


class GuardedScheduler:
    """A clock facade that silently drops events of a dead process.

    Layers schedule through this object; after the owning process
    crashes, armed timers and queued continuations become no-ops, which
    is exactly fail-stop semantics.  It wraps any
    :class:`~repro.runtime.clock.Clock` — the DES scheduler or the
    realtime engine — and is itself Clock-shaped, so layers cannot tell
    the difference.
    """

    def __init__(self, scheduler: Scheduler, process: "Process") -> None:
        self._scheduler = scheduler
        self._process = process

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._scheduler.now

    def _guard(self, fn: Callable[..., Any], args: tuple) -> Callable[[], None]:
        process = self._process

        def run() -> None:
            if process.alive:
                fn(*args)

        return run

    def call_at(self, when: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Guarded :meth:`Scheduler.call_at`."""
        return self._scheduler.call_at(when, self._guard(fn, args))

    def call_after(self, delay: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Guarded :meth:`Scheduler.call_after`."""
        return self._scheduler.call_after(delay, self._guard(fn, args))

    def call_soon(self, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Guarded :meth:`Scheduler.call_soon`."""
        return self._scheduler.call_soon(self._guard(fn, args))


class Process:
    """A simulated process: endpoints plus fail-stop crash semantics.

    Each process has its own wall clock with configurable drift and
    offset (real machines' clocks disagree — the reason Figure 1 lists
    clock synchronization as a protocol type).  Protocol timers use the
    scheduler's virtual time; applications read :meth:`local_time`.
    """

    def __init__(
        self,
        world: "World",
        name: str,
        clock_drift: float = 0.0,
        clock_offset: float = 0.0,
    ) -> None:
        self.world = world
        self.name = name
        self.alive = True
        #: Relative clock rate error (0.001 = running 0.1% fast).
        self.clock_drift = clock_drift
        #: Fixed clock error in seconds at simulation start.
        self.clock_offset = clock_offset
        self.guarded_scheduler = GuardedScheduler(world.scheduler, self)
        self._endpoints: List[Endpoint] = []
        self._next_port = 0

    def local_time(self) -> float:
        """This process's wall-clock reading (drifted and offset)."""
        return self.world.scheduler.now * (1.0 + self.clock_drift) + self.clock_offset

    def endpoint(self) -> Endpoint:
        """Create a new endpoint on this process (ports auto-assigned)."""
        if not self.alive:
            raise SimulationError(f"process {self.name} has crashed")
        address = EndpointAddress(node=self.name, port=self._next_port)
        self._next_port += 1
        endpoint = Endpoint(self, address)
        self._endpoints.append(endpoint)
        return endpoint

    @property
    def endpoints(self) -> List[Endpoint]:
        """All endpoints created on this process."""
        return list(self._endpoints)

    def _fail_stop(self) -> None:
        """Fail-stop: no more sends, receives, timers, or events.

        The rest of the system only finds out through silence — this is
        what the failure detectors and the flush protocol exist for.
        Called by the world's FaultPlane ``crash`` op; idempotent.
        """
        if not self.alive:
            return
        self.alive = False
        self.world.network.crash(self.name)
        for endpoint in self._endpoints:
            for stack in endpoint._stacks.values():
                stack.stop()
        self.world.trace.record(
            self.world.scheduler.now, "crash", self.name
        )

    def _restart(self) -> None:
        """Recover from a crash with a blank slate (FaultPlane ``recover``).

        Everything the process held before the crash is gone for good:
        old endpoints are destroyed, detached from the network, and
        scrubbed from the directory, so nothing can silently resume.
        The recovered process must create fresh endpoints and re-join
        its groups through the ordinary MBRSHIP join/merge path —
        exactly what a rebooted machine would do.  Idempotent.
        """
        if self.alive:
            return
        network = self.world.network
        directory = getattr(self.world, "directory", None)
        for endpoint in self._endpoints:
            if endpoint.destroyed:
                continue
            endpoint.destroyed = True
            if network.attached(endpoint.address):
                network.detach(endpoint.address)
            if directory is not None:
                for group_addr in endpoint._groups:
                    directory.unregister(group_addr, endpoint.address)
        self.alive = True
        network.recover(self.name)
        self.world.trace.record(
            self.world.scheduler.now, "recover", self.name
        )

    def __repr__(self) -> str:
        state = "up" if self.alive else "crashed"
        return f"<Process {self.name} ({state}) endpoints={len(self._endpoints)}>"


class _WorldBase:
    """What both substrates share: wiring, processes, and the fault plane.

    A substrate supplies its clock class, its default store domain and
    its network (:meth:`_install_network`); everything else — notably
    the :class:`repro.chaos.FaultPlane` ops — exists once, here.
    """

    #: ``substrate`` tag of :meth:`write_metrics` snapshots.
    _substrate: str
    #: Zero-argument factory of the world's :class:`~repro.runtime.clock.Clock`.
    _clock_factory: Callable[[], Any]
    #: Store domain built (with ``metrics=``) when the caller passes none.
    _default_store: Callable[..., Any]

    def __init__(
        self,
        seed: int,
        wire_mode: str,
        trace: bool,
        registry: Optional[HeaderRegistry],
        obs: Optional[ObsOptions],
        metrics: Optional[MetricsRegistry],
        store: Optional[Any],
    ) -> None:
        if wire_mode not in WIRE_MODES:
            raise ConfigurationError(f"unknown wire mode {wire_mode!r}")
        self.wire_mode = wire_mode
        self.scheduler = self._clock_factory()
        self.rng = RandomRouter(seed)
        self.trace = TraceRecorder(enabled=trace)
        self.directory = GroupDirectory()
        self.registry = registry or DEFAULT_REGISTRY
        #: What clean datagrams said, kept once for every endpoint of
        #: this world (they share a process): a multicast is framed and
        #: its headers decoded for its first receiver, not for each.
        self.header_frames = HeaderFrameStore()
        #: The world's shared metrics registry: network counters always,
        #: per-layer seam counters when ``obs`` enables them.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.obs = obs if obs is not None else ObsOptions()
        #: Message-path spans (fed only by stacks observing with
        #: ``obs.spans`` on).
        self.spans = SpanRecorder(max_spans=self.obs.max_spans)
        #: Durable-store domain, keyed by node name so state survives
        #: crash/recover.
        self.store = store if store is not None else self._default_store(
            metrics=self.metrics
        )
        bind_clock = getattr(self.store, "bind_clock", None)
        if bind_clock is not None:
            # Relaxed durability policies arm their max_delay flush
            # timers on the same clock as every layer (on the realtime
            # engine its loop also marshals writer-thread completions).
            bind_clock(self.scheduler)
        self._processes: Dict[str, Process] = {}

    def _install_network(
        self, network: Any, coalesce: Union[bool, Dict[str, Any]]
    ) -> None:
        """Adopt the substrate's network, batching at the COM seam if asked."""
        if coalesce:
            # Off by default so existing seeds reproduce byte-identical runs.
            options = coalesce if isinstance(coalesce, dict) else {}
            network = Coalescer(network, self.scheduler, **options)
        self.network = network

    def processes(self) -> Dict[str, Process]:
        """Snapshot of all processes by name."""
        return dict(self._processes)

    # -- fault plane (the repro.chaos.FaultPlane protocol) -----------------

    def crash(self, name: str) -> None:
        """Crash the named process fail-stop.

        The node's *volatile* store buffers (records buffered by a
        relaxed durability policy, tickets never completed) die with
        it; durable bytes survive for a stateful recovery.
        """
        self.process(name)._fail_stop()
        discard = getattr(self.store, "discard_pending", None)
        if discard is not None:
            discard(name)
        self._note_fault_op("crash")

    def recover(self, name: str, stateful: bool = False) -> Process:
        """Recover a crashed process; blank slate unless ``stateful``.

        The process comes back with no endpoints and no group state —
        it must create fresh endpoints and re-join through the MBRSHIP
        join/merge path, never resume silently.  Returns the process so
        callers can immediately re-join: ``world.recover("b").endpoint()
        .join(...)``.

        ``stateful=False`` models a *replaced* machine: the node's
        durable stores are wiped too.  ``stateful=True`` models a
        *rebooted* machine — the disk survived — so clients can replay
        their WALs before re-joining and catch the delta over XFER.
        """
        proc = self.process(name)
        was_dead = not proc.alive
        if was_dead and not stateful:
            self.store.wipe(name)
        proc._restart()
        if was_dead:
            self._note_fault_op("recover")
        return proc

    def node_alive(self, name: str) -> bool:
        """Whether the named process is currently up (unknown names are)."""
        proc = self._processes.get(name)
        return proc is None or proc.alive

    def partition(self, *components: Iterable[str]) -> None:
        """Split the network into node-name components.

        On the realtime substrate this installs an emulated partition on
        the local transport, which checks reachability on send and on
        receive; in a multi-process deployment every world must install
        the same partition for the cut to be symmetric.
        """
        self.network.partition(*components)
        self.trace.record(self.scheduler.now, "partition", "world",
                          components=[sorted(c) for c in components])
        self._note_fault_op("partition")

    def heal(self) -> None:
        """Remove all network partitions."""
        self.network.heal()
        self.trace.record(self.scheduler.now, "heal", "world")
        self._note_fault_op("heal")

    def set_faults(self, model: Optional[FaultModel]) -> None:
        """Swap the network's fault model; ``None`` restores a pristine path."""
        self.network.set_faults(model)
        self.trace.record(self.scheduler.now, "set_faults", "world",
                          model=repr(model))
        self._note_fault_op("set_faults")

    def _note_fault_op(self, op: str) -> None:
        """Count one fault-plane operation into the world's registry."""
        self.metrics.counter(
            "chaos_ops_total",
            "Fault-plane operations applied to this world",
            labels=("op",),
        ).labels(op=op).inc()

    # -- observability -----------------------------------------------------

    @property
    def now(self) -> float:
        """Seconds on the world's clock (virtual on the DES, wall-clock
        since creation on the realtime engine)."""
        return self.scheduler.now

    def write_metrics(self, path: str, meta: Optional[Dict[str, Any]] = None) -> None:
        """Write this world's observability snapshot as JSONL to ``path``.

        On the DES the snapshot is a pure function of the seed and the
        workload — two same-seed runs produce byte-identical files.
        """
        merged: Dict[str, Any] = {"substrate": self._substrate, "now": self.now}
        if meta:
            merged.update(meta)
        write_jsonl(path, self.metrics, self.spans, meta=merged)


class World(_WorldBase):
    """One simulation universe: scheduler + network + directory + processes.

    >>> world = World(seed=7, network="lan")
    >>> a = world.process("a").endpoint()
    >>> b = world.process("b").endpoint()
    >>> ga = a.join("demo")
    >>> gb = b.join("demo")
    >>> world.run(2.0)
    >>> ga.cast(b"hello")
    >>> world.run(1.0)
    """

    _substrate = "des"
    _clock_factory = Scheduler
    #: Deterministic in-memory journals (a
    #: :class:`~repro.store.FileStoreDomain` writes real files).
    _default_store = MemoryStoreDomain

    def __init__(
        self,
        seed: int = 0,
        network: Union[str, Network] = "lan",
        wire_mode: str = "aligned",
        trace: bool = True,
        registry: Optional[HeaderRegistry] = None,
        obs: Optional[ObsOptions] = None,
        metrics: Optional[MetricsRegistry] = None,
        store: Optional[Any] = None,
        coalesce: Union[bool, Dict[str, Any]] = False,
        **network_kwargs: Any,
    ) -> None:
        super().__init__(seed, wire_mode, trace, registry, obs, metrics, store)
        if isinstance(network, Network):
            if network_kwargs:
                raise ConfigurationError(
                    "network_kwargs only apply when building the network by name"
                )
            # Adopt the pre-built network's counters into this world's
            # registry so one snapshot covers everything.
            network.stats.rebind(self.metrics)
        else:
            try:
                net_cls = _NETWORK_KINDS[network]
            except KeyError:
                known = ", ".join(sorted(_NETWORK_KINDS))
                raise ConfigurationError(
                    f"unknown network kind {network!r}; known kinds: {known}"
                ) from None
            network = net_cls(
                self.scheduler,
                rng=self.rng.stream("network"),
                metrics=self.metrics,
                **network_kwargs,
            )
        self._install_network(network, coalesce)

    def process(
        self,
        name: str,
        clock_drift: float = 0.0,
        clock_offset: float = 0.0,
    ) -> Process:
        """Create (or fetch) the process called ``name``.

        Clock parameters only apply on creation; fetching an existing
        process ignores them.
        """
        proc = self._processes.get(name)
        if proc is None:
            proc = Process(
                self, name, clock_drift=clock_drift, clock_offset=clock_offset
            )
            self._processes[name] = proc
        return proc

    # -- running ------------------------------------------------------------

    def run(self, duration: float) -> int:
        """Advance virtual time by ``duration`` seconds."""
        return self.scheduler.run(until=self.scheduler.now + duration)

    def run_until(self, deadline: float) -> int:
        """Advance virtual time up to the absolute ``deadline``."""
        return self.scheduler.run(until=deadline)

    def run_until_idle(self, max_events: int = 1_000_000) -> int:
        """Run until no events remain (periodic timers never let this end;
        prefer :meth:`run` for stacks with heartbeats)."""
        return self.scheduler.run_until_idle(max_events=max_events)

    def run_while(
        self,
        predicate: Callable[[], bool],
        timeout: float = 60.0,
        poll: float = 0.05,
    ) -> bool:
        """Advance virtual time in ``poll`` slices until ``predicate()``
        holds or ``timeout`` virtual seconds pass; returns its final value.

        The realtime world offers the same method over wall-clock time,
        so substrate-agnostic drivers (tests, benchmarks) can settle a
        protocol on either engine with identical code.
        """
        deadline = self.now + timeout
        while not predicate():
            if self.now >= deadline:
                return bool(predicate())
            self.run(min(poll, deadline - self.now))
        return True

    def __repr__(self) -> str:
        return (
            f"<World t={self.now:.3f} processes={len(self._processes)} "
            f"network={type(self.network).__name__}>"
        )

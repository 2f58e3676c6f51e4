"""The realtime world: same object model, real substrate.

:class:`RealtimeWorld` presents the exact attribute surface of the
simulation :class:`~repro.core.process.World` — ``scheduler``,
``network``, ``rng``, ``trace``, ``directory``, ``registry``,
``wire_mode`` — so the unmodified :class:`~repro.core.process.Process`,
:class:`~repro.core.endpoint.Endpoint`, and every protocol layer run on
it as-is.  The differences are entirely underneath the seam:

* the ``scheduler`` slot holds a wall-clock
  :class:`~repro.runtime.engine.RealtimeEngine` instead of the DES;
* the ``network`` slot holds a :class:`~repro.runtime.transport.UdpTransport`
  moving packets over real OS UDP sockets.

Determinism contract: the DES is a pure function of its seed; the
realtime world is **not** (the OS schedules packets and timers).  What
survives is everything the protocol layers guarantee — total order,
virtual synchrony, gapless FIFO — because those are enforced by the
layers, not the substrate.  ``docs/architecture.md`` ("Execution
substrates") spells out the exact split.

One ``RealtimeWorld`` lives in each OS process.  Single-machine tests
may host several nodes (one UDP socket each) in one world; a real
deployment hosts one node per process and names the others with
:meth:`add_peer`::

    world = RealtimeWorld(seed=1)
    world.process("alice", listen=("127.0.0.1", 9701))
    world.add_peer("bob", "127.0.0.1", 9702)
    world.seed_group("chat", [EndpointAddress("alice", 0)])
    handle = world.process("alice").endpoint().join("chat", stack=...)
    world.run(1.0)        # drives timers and socket I/O for 1 s
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional, Tuple

from repro.core.headers import HeaderRegistry
from repro.core.process import Process, _WorldBase
from repro.net.address import EndpointAddress, GroupAddress
from repro.obs import MetricsRegistry, ObsOptions
from repro.runtime.engine import RealtimeEngine
from repro.runtime.metrics import TransportStats
from repro.runtime.transport import DEFAULT_MTU, UdpTransport
from repro.store import FileStoreDomain


class RealtimeWorld(_WorldBase):
    """One realtime universe: engine + OS-UDP transport + processes.

    Wiring, process bookkeeping and the fault plane are inherited from
    the same base as the DES world, so both substrates speak one
    :class:`repro.chaos.FaultPlane` by construction.  ``recover`` needs
    no transport rebinding: a crashed node's UDP socket stays bound.
    """

    _substrate = "realtime"
    _clock_factory = RealtimeEngine
    #: Real per-endpoint files.  The default domain lives in an
    #: ephemeral temp directory removed by :meth:`close`; pass a
    #: :class:`~repro.store.FileStoreDomain` rooted somewhere durable
    #: to keep state across world restarts.
    _default_store = FileStoreDomain

    def __init__(
        self,
        seed: int = 0,
        wire_mode: str = "aligned",
        trace: bool = True,
        registry: Optional[HeaderRegistry] = None,
        mtu: int = DEFAULT_MTU,
        host: str = "127.0.0.1",
        obs: Optional[ObsOptions] = None,
        metrics: Optional[MetricsRegistry] = None,
        store: Optional[Any] = None,
        coalesce: Any = False,
    ) -> None:
        super().__init__(seed, wire_mode, trace, registry, obs, metrics, store)
        #: The wall-clock engine (``scheduler`` is the substrate-neutral
        #: name of the same object — it is what Process wraps).
        self.engine = self.scheduler
        self._owns_store = store is None
        self._install_network(
            UdpTransport(self.engine, mtu=mtu, metrics=self.metrics), coalesce
        )
        self._host = host
        self._export_timer_lateness()

    def _export_timer_lateness(self) -> None:
        """Publish the engine's timer lateness when the registry is read.

        The engine keeps two floats on its hot path; the gauge is only
        reconciled at export time (a collector), like the layers' event
        counters.
        """
        family = self.metrics.gauge(
            "runtime_engine_timer_lateness_seconds",
            "How long after its deadline the realtime engine ran an event",
            labels=("stat",),
        )
        mean, peak = family.labels(stat="mean"), family.labels(stat="max")
        engine = self.engine

        def collect() -> None:
            executed = engine.events_executed
            mean.set(engine.timer_lateness_sum / executed if executed else 0.0)
            peak.set(engine.timer_lateness_max)

        self.metrics.add_collector(collect)

    # -- topology -----------------------------------------------------------

    def process(
        self,
        name: str,
        clock_drift: float = 0.0,
        clock_offset: float = 0.0,
        listen: Optional[Tuple[str, int]] = None,
    ) -> Process:
        """Create (or fetch) the local process called ``name``.

        Creation binds the node's UDP socket: at ``listen`` when given,
        else an OS-assigned port on the world's default host.  Fetching
        an existing process ignores every parameter.
        """
        proc = self._processes.get(name)
        if proc is None:
            host, port = listen if listen is not None else (self._host, 0)
            self.network.bind_sync(name, host, port)
            proc = Process(
                self, name, clock_drift=clock_drift, clock_offset=clock_offset
            )
            self._processes[name] = proc
        return proc

    def add_peer(self, node: str, host: str, port: int) -> None:
        """Name a remote node and where its transport listens."""
        self.network.add_peer(node, host, port)

    def seed_group(
        self, group: str, contacts: Iterable[EndpointAddress]
    ) -> None:
        """Pre-seed the local directory with a group's bootstrap contacts.

        The DES world's directory sees every registration because all
        members share one process; across OS processes each world must
        be told whom to contact.  Convention: every process seeds the
        same anchor (the group's oldest member), which reproduces the
        DES bootstrap order — the anchor finds no contacts and founds
        the group; everyone else joins through it.
        """
        group_addr = GroupAddress(group)
        for contact in contacts:
            self.directory.register(group_addr, contact)

    # -- running ------------------------------------------------------------

    def run(self, duration: float) -> None:
        """Drive timers and socket I/O for ``duration`` wall-clock seconds."""
        self.engine.run_for(duration)

    def run_while(
        self,
        predicate: Callable[[], bool],
        timeout: float = 5.0,
        poll: float = 0.01,
    ) -> bool:
        """Run until ``predicate()`` holds or ``timeout`` seconds pass.

        Same signature as the DES world's ``run_while``, so drivers work
        on either substrate unchanged.
        """
        return self.engine.run_until(predicate, timeout=timeout, poll=poll)

    @property
    def stats(self) -> TransportStats:
        """The transport's counters and latency histogram."""
        return self.network.stats

    def close(self) -> None:
        """Close sockets and the event loop.  Idempotent."""
        for proc in self._processes.values():
            for endpoint in proc.endpoints:
                if not endpoint.destroyed:
                    endpoint.destroy()
        self.network.close()
        # Let the loop process socket teardown before closing it.
        try:
            self.engine.run_for(0)
        except RuntimeError:
            pass
        self.engine.close()
        if self._owns_store:
            self.store.close()

    def __enter__(self) -> "RealtimeWorld":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"<RealtimeWorld t={self.now:.3f} processes={len(self._processes)} "
            f"nodes={sorted(self.network.peers)}>"
        )

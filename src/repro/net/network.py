"""The base simulated network.

A :class:`Network` connects endpoint addresses to delivery callbacks and
moves byte payloads between them under a :class:`~repro.net.faults.FaultModel`
and a :class:`~repro.net.partition.PartitionController`.  It provides the
paper's property P1 (best-effort delivery) and nothing more — every
stronger guarantee is the job of a protocol layer.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, Iterable, Optional, Set

from repro.errors import AddressError, NetworkError, PacketTooLargeError
from repro.net.address import EndpointAddress
from repro.net.faults import FaultModel
from repro.net.packet import Packet
from repro.net.partition import PartitionController
from repro.obs import MetricsRegistry
from repro.sim.rand import derive_seed
from repro.sim.scheduler import Scheduler

DeliveryCallback = Callable[[Packet], None]


class NetworkStats:
    """Counters a network maintains; read by benchmarks and tests.

    The counters live in a :class:`~repro.obs.MetricsRegistry` as
    ``net_*_total{component=...}`` series; this class is a *view* over
    them.  The historical attribute names (``stats.packets_sent`` etc.)
    are read/write properties over the registry series, so every
    existing consumer keeps working while exporters and ``obs-report``
    see the same numbers under their metric names.
    """

    #: attribute name -> (metric family name, help text)
    _counter_specs: Dict[str, Any] = {
        "packets_sent": ("net_packets_sent_total",
                         "Packets handed to the medium"),
        "packets_delivered": ("net_packets_delivered_total",
                              "Packets handed to an attached endpoint"),
        "packets_lost": ("net_packets_lost_total",
                         "Packets dropped by the fault model or unclaimed"),
        "packets_garbled": ("net_packets_garbled_total",
                            "Packets the fault model corrupted"),
        "packets_duplicated": ("net_packets_duplicated_total",
                               "Packets the fault model duplicated"),
        "packets_partitioned": ("net_packets_partitioned_total",
                                "Packets dropped at a partition boundary"),
        "packets_to_dead": ("net_packets_to_dead_total",
                            "Packets addressed to a crashed node"),
        "bytes_sent": ("net_bytes_sent_total",
                       "Payload bytes handed to the medium"),
        "bytes_delivered": ("net_bytes_delivered_total",
                            "Payload bytes handed to attached endpoints"),
    }

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        component: str = "net",
    ) -> None:
        self._registry: Optional[MetricsRegistry] = None
        self._component = component
        self._counters: Dict[str, Any] = {}
        self._node_counter: Any = None
        self.rebind(registry if registry is not None else MetricsRegistry())

    @property
    def registry(self) -> MetricsRegistry:
        """The registry currently backing these counters."""
        assert self._registry is not None
        return self._registry

    @property
    def component(self) -> str:
        """The ``component`` label value of every series of this view."""
        return self._component

    def rebind(
        self,
        registry: MetricsRegistry,
        component: Optional[str] = None,
    ) -> None:
        """Re-home the counters onto ``registry``, carrying their values.

        Used by worlds handed a pre-built network instance: the network
        starts on a private registry and is rebound onto the world's
        shared one, so a single snapshot covers everything.
        """
        saved = self.as_dict() if self._registry is not None else None
        if component is not None:
            self._component = component
        self._registry = registry
        self._bind(registry)
        if saved is not None:
            self._restore(saved)

    def _bind(self, registry: MetricsRegistry) -> None:
        """(Re)create the per-series handles; subclasses extend."""
        self._counters = {
            attr: registry.counter(metric, help_text, labels=("component",))
            .labels(component=self._component)
            for attr, (metric, help_text) in self._counter_specs.items()
        }
        self._node_counter = registry.counter(
            "net_node_packets_sent_total",
            "Packets sent, per originating node",
            labels=("component", "node"),
        )
        # note_send runs once per packet; resolving the per-node child
        # through labels() each time costs microseconds, so memoize.
        self._node_children: Dict[str, Any] = {}

    def _restore(self, saved: Dict[str, Any]) -> None:
        for attr in self._counter_specs:
            if saved.get(attr):
                self._counters[attr].value = saved[attr]
        for node, count in saved.get("per_node_sent", {}).items():
            self._node_counter.labels(
                component=self._component, node=node
            ).value = count

    @property
    def per_node_sent(self) -> Dict[str, int]:
        """Snapshot of per-node packet counts (historical dict shape)."""
        out: Dict[str, int] = {}
        for series in self._node_counter.series():
            if series.labels.get("component") != self._component:
                continue
            if series.value:
                out[series.labels["node"]] = int(series.value)
        return out

    def note_send(self, node: str, size: int) -> None:
        """Account for one transmitted packet."""
        self._counters["packets_sent"].inc()
        self._counters["bytes_sent"].inc(size)
        child = self._node_children.get(node)
        if child is None:
            child = self._node_counter.labels(
                component=self._component, node=str(node)
            )
            self._node_children[node] = child
        child.value += 1

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict snapshot (what ``dataclasses.asdict`` used to give)."""
        data: Dict[str, Any] = {
            attr: getattr(self, attr) for attr in self._counter_specs
        }
        data["per_node_sent"] = self.per_node_sent
        return data

    def __repr__(self) -> str:
        pairs = " ".join(
            f"{attr}={getattr(self, attr)}"
            for attr in ("packets_sent", "packets_delivered", "packets_lost")
        )
        return f"<{type(self).__name__} {self._component} {pairs}>"


def _counter_view(attr: str, doc: str) -> property:
    def _get(self: NetworkStats) -> int:
        return int(self._counters[attr].value)

    def _set(self: NetworkStats, value: int) -> None:
        self._counters[attr].value = int(value)

    return property(_get, _set, doc=doc)


for _attr, (_metric, _help) in NetworkStats._counter_specs.items():
    setattr(NetworkStats, _attr, _counter_view(_attr, _help))
del _attr, _metric, _help


class _NetworkBase:
    """What a network is before it moves a byte, on either substrate.

    The endpoint registry, the fail-stop node set, the partition oracle
    and software multicast — shared by the simulated :class:`Network`
    and the real-socket :class:`~repro.runtime.transport.UdpTransport`,
    which add the medium: ``unicast``, delivery, ``stats``, ``mtu`` and
    ``set_faults``.  Together that is the contract the COM layer and the
    :class:`repro.chaos.FaultPlane` protocol drive; nodes are plain
    string names, the same on both substrates, so a chaos scenario runs
    on either through identical calls.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        #: Reachability oracle (the FaultPlane partition op).
        self.partitions = PartitionController()
        self._endpoints: Dict[EndpointAddress, DeliveryCallback] = {}
        self._dead_nodes: Set[str] = set()

    def attach(self, address: EndpointAddress, deliver: DeliveryCallback) -> None:
        """Register ``address``; incoming packets invoke ``deliver``."""
        if address in self._endpoints:
            raise AddressError(f"address {address} already attached to {self.name}")
        self._endpoints[address] = deliver

    def detach(self, address: EndpointAddress) -> None:
        """Unregister ``address``.  Unknown addresses raise."""
        if address not in self._endpoints:
            raise AddressError(f"address {address} not attached to {self.name}")
        del self._endpoints[address]

    def attached(self, address: EndpointAddress) -> bool:
        """Whether ``address`` is currently registered."""
        return address in self._endpoints

    def addresses(self) -> Iterable[EndpointAddress]:
        """Snapshot of currently attached addresses."""
        return list(self._endpoints)

    def crash(self, node: str) -> None:
        """Fail-stop ``node``: it stops sending and receiving immediately.

        In-flight packets addressed to it are dropped on arrival, which
        models a machine power-off rather than a graceful close.
        """
        self._dead_nodes.add(node)

    def recover(self, node: str) -> None:
        """Bring a crashed node back.

        Recovery at this level only re-opens the pipes (a realtime
        node's socket was never closed); any group state the node held
        is gone, so its endpoints must re-join (the MBRSHIP join/merge
        path) — they never resume silently.
        """
        self._dead_nodes.discard(node)

    def node_alive(self, node: str) -> bool:
        """Whether ``node`` is currently up (as far as this process knows)."""
        return node not in self._dead_nodes

    def partition(self, *components: Iterable[str]) -> None:
        """Split the network into node-name components (FaultPlane op)."""
        self.partitions.partition(components)

    def heal(self) -> None:
        """Remove all partitions; full connectivity returns (FaultPlane op)."""
        self.partitions.heal()

    def multicast(
        self,
        source: EndpointAddress,
        dests: Iterable[EndpointAddress],
        payload: bytes,
    ) -> None:
        """Send ``payload`` to each destination (software multicast).

        Neither substrate has a broadcast medium by default, so this is
        a loop of independent unicasts — each destination sees
        independent loss and delay, exactly the failure mode the flush
        protocol of Section 5 exists to handle.
        """
        for dest in dests:
            if dest == source:
                continue
            self.unicast(source, dest, payload)


class Network(_NetworkBase):
    """Best-effort datagram network (property P1).

    Endpoints :meth:`attach` with a callback; senders call
    :meth:`unicast` or :meth:`multicast` with flat byte payloads.  The
    fault model decides loss/duplication/garbling/delay per packet; the
    partition controller decides reachability per node pair; crashed
    nodes neither send nor receive.
    """

    #: Maximum payload size; subclasses override.
    default_mtu = 65536

    def __init__(
        self,
        scheduler: Scheduler,
        fault_model: Optional[FaultModel] = None,
        rng: Optional[random.Random] = None,
        mtu: Optional[int] = None,
        name: str = "net",
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        super().__init__(name)
        self.scheduler = scheduler
        self.fault_model = fault_model or FaultModel.perfect()
        # Fault decisions draw from a per-component seeded stream (the
        # sim.rand derivation), never the global random module, so a
        # network built without an explicit rng is still reproducible
        # and independent of every other consumer of randomness.
        self.rng = rng or random.Random(derive_seed(0, f"net.{name}"))
        self.mtu = mtu if mtu is not None else self.default_mtu
        # Without an explicit registry the stats get a private one; a
        # world rebinds them onto its shared registry on adoption.
        self.stats = NetworkStats(metrics, component=name)

    def set_faults(self, model: Optional[FaultModel]) -> None:
        """Install ``model`` as the path behaviour; ``None`` = pristine."""
        self.fault_model = model if model is not None else FaultModel.perfect()

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------

    def unicast(
        self,
        source: EndpointAddress,
        dest: EndpointAddress,
        payload: bytes,
    ) -> None:
        """Send ``payload`` from ``source`` to ``dest``, best effort."""
        if len(payload) > self.mtu:
            raise PacketTooLargeError(len(payload), self.mtu)
        if source not in self._endpoints:
            raise AddressError(f"source {source} not attached to {self.name}")
        if not self.node_alive(source.node):
            raise NetworkError(f"node {source.node} has crashed and cannot send")
        self.stats.note_send(source.node, len(payload))
        if not self.partitions.reachable(source.node, dest.node):
            self.stats.packets_partitioned += 1
            return
        deliveries = self.fault_model.plan_deliveries(
            self.rng, payload, self._serialization_time(payload)
        )
        if not deliveries:
            self.stats.packets_lost += 1
            return
        if len(deliveries) > 1:
            self.stats.packets_duplicated += 1
        for delay, data, garbled in deliveries:
            if garbled:
                self.stats.packets_garbled += 1
            packet = Packet(
                source=source, dest=dest, payload=data, sent_at=self.scheduler.now
            )
            self.scheduler.call_after(delay, self._deliver, packet)

    def _serialization_time(self, payload: bytes) -> float:
        """Seconds the medium needs to clock ``payload`` out (per-packet
        hook, added to the fault model's base delay); none by default."""
        return 0.0

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------

    def _deliver(self, packet: Packet) -> None:
        """Hand a packet to its destination endpoint, if possible."""
        if not self.node_alive(packet.dest.node):
            self.stats.packets_to_dead += 1
            return
        callback = self._endpoints.get(packet.dest)
        if callback is None:
            self.stats.packets_lost += 1
            return
        self.stats.packets_delivered += 1
        self.stats.bytes_delivered += packet.size
        callback(packet)

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} {self.name!r} endpoints={len(self._endpoints)} "
            f"mtu={self.mtu}>"
        )

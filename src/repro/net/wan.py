"""A routed wide-area network (Figure 1's "routing" protocol type).

The LAN/ATM/UDP substrates model one segment; the WAN models the
"fragments through internet" case: endpoints attach to *sites*, sites
connect by point-to-point links with individual delay/loss/bandwidth
characteristics, and packets are forwarded hop by hop along shortest
(lowest-latency) paths.  Link failures change the topology: routes are
recomputed, and when no route remains the network is partitioned — so
membership-layer partition handling emerges from topology rather than
being injected by fiat.
"""

from __future__ import annotations

import heapq
import random
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import AddressError, ConfigurationError, NetworkError
from repro.net.address import EndpointAddress
from repro.net.faults import FaultModel
from repro.net.network import Network
from repro.net.packet import Packet
from repro.sim.scheduler import Scheduler


class Link:
    """One bidirectional site-to-site link."""

    __slots__ = ("site_a", "site_b", "fault_model", "up")

    def __init__(self, site_a: str, site_b: str, fault_model: FaultModel) -> None:
        self.site_a = site_a
        self.site_b = site_b
        self.fault_model = fault_model
        self.up = True

    def other(self, site: str) -> str:
        return self.site_b if site == self.site_a else self.site_a

    @property
    def key(self) -> Tuple[str, str]:
        return tuple(sorted((self.site_a, self.site_b)))  # type: ignore[return-value]

    def __repr__(self) -> str:
        state = "up" if self.up else "DOWN"
        return f"<Link {self.site_a}--{self.site_b} ({state})>"


class WanNetwork(Network):
    """Multi-site topology with hop-by-hop forwarding.

    Build the topology first, then place nodes on sites::

        wan = WanNetwork(scheduler)
        wan.add_site("nyc"); wan.add_site("sfo"); wan.add_site("chi")
        wan.add_link("nyc", "chi", delay=0.01)
        wan.add_link("chi", "sfo", delay=0.02)
        wan.place_node("a", site="nyc")
        wan.place_node("b", site="sfo")   # a->b routes via chi

    Cutting a link (:meth:`fail_link`) reroutes traffic if an alternate
    path exists and partitions the network if none does.
    """

    default_mtu = 1472

    def __init__(
        self,
        scheduler: Scheduler,
        rng: Optional[random.Random] = None,
        mtu: Optional[int] = None,
        name: str = "wan",
        metrics=None,
        **_ignored,
    ) -> None:
        super().__init__(
            scheduler,
            fault_model=FaultModel(base_delay=0.0),
            rng=rng,
            mtu=mtu,
            name=name,
            metrics=metrics,
        )
        self._sites: List[str] = []
        self._links: Dict[Tuple[str, str], Link] = {}
        self._site_of: Dict[str, str] = {}  # node -> site
        self._routes: Dict[Tuple[str, str], Optional[str]] = {}
        self._routes_dirty = True
        self.hops_forwarded = 0
        self.no_route_drops = 0

    # ------------------------------------------------------------------
    # Topology construction
    # ------------------------------------------------------------------

    def add_site(self, site: str) -> None:
        """Add a routing site (router)."""
        if site in self._sites:
            raise ConfigurationError(f"site {site!r} already exists")
        self._sites.append(site)
        self._routes_dirty = True

    def add_link(
        self,
        site_a: str,
        site_b: str,
        delay: float = 0.01,
        loss_rate: float = 0.0,
        jitter: float = 0.0,
    ) -> Link:
        """Connect two sites with a point-to-point link."""
        for site in (site_a, site_b):
            if site not in self._sites:
                raise ConfigurationError(f"unknown site {site!r}")
        link = Link(
            site_a,
            site_b,
            FaultModel(base_delay=delay, jitter=jitter, loss_rate=loss_rate),
        )
        if link.key in self._links:
            raise ConfigurationError(f"link {site_a}--{site_b} already exists")
        self._links[link.key] = link
        self._routes_dirty = True
        return link

    def place_node(self, node: str, site: str) -> None:
        """Attach a (future) node's traffic to a site."""
        if site not in self._sites:
            raise ConfigurationError(f"unknown site {site!r}")
        self._site_of[node] = site

    def site_of(self, node: str) -> str:
        """The site ``node`` was placed on."""
        try:
            return self._site_of[node]
        except KeyError:
            raise AddressError(
                f"node {node!r} was never placed on a site "
                "(call place_node before creating its endpoints)"
            ) from None

    # ------------------------------------------------------------------
    # Link failures
    # ------------------------------------------------------------------

    def fail_link(self, site_a: str, site_b: str) -> None:
        """Take a link down; routing adapts or partitions."""
        self._link(site_a, site_b).up = False
        self._routes_dirty = True

    def restore_link(self, site_a: str, site_b: str) -> None:
        """Bring a failed link back."""
        self._link(site_a, site_b).up = True
        self._routes_dirty = True

    def _link(self, site_a: str, site_b: str) -> Link:
        key = tuple(sorted((site_a, site_b)))
        try:
            return self._links[key]  # type: ignore[index]
        except KeyError:
            raise ConfigurationError(f"no link {site_a}--{site_b}") from None

    # ------------------------------------------------------------------
    # Routing (Dijkstra over live links, next-hop table)
    # ------------------------------------------------------------------

    def _recompute_routes(self) -> None:
        self._routes = {}
        adjacency: Dict[str, List[Tuple[str, float]]] = {s: [] for s in self._sites}
        for link in self._links.values():
            if not link.up:
                continue
            weight = link.fault_model.base_delay
            adjacency[link.site_a].append((link.site_b, weight))
            adjacency[link.site_b].append((link.site_a, weight))
        for source in self._sites:
            dist: Dict[str, float] = {source: 0.0}
            first_hop: Dict[str, Optional[str]] = {source: None}
            heap: List[Tuple[float, str, Optional[str]]] = [(0.0, source, None)]
            seen = set()
            while heap:
                cost, site, via = heapq.heappop(heap)
                if site in seen:
                    continue
                seen.add(site)
                first_hop[site] = via
                for neighbour, weight in adjacency[site]:
                    if neighbour not in seen:
                        next_via = neighbour if via is None else via
                        heapq.heappush(heap, (cost + weight, neighbour, next_via))
            for target, via in first_hop.items():
                self._routes[(source, target)] = via
        self._routes_dirty = False

    def next_hop(self, from_site: str, to_site: str) -> Optional[str]:
        """First hop on the current best path, or ``None`` if unreachable
        (``from_site == to_site`` routes locally)."""
        if self._routes_dirty:
            self._recompute_routes()
        if from_site == to_site:
            return to_site
        return self._routes.get((from_site, to_site))

    def route(self, from_site: str, to_site: str) -> Optional[List[str]]:
        """The full site path, for diagnostics (None if unreachable)."""
        if from_site == to_site:
            return [from_site]
        path = [from_site]
        site = from_site
        for _ in range(len(self._sites) + 1):
            hop = self.next_hop(site, to_site)
            if hop is None:
                return None
            path.append(hop)
            if hop == to_site:
                return path
            site = hop
        return None

    # ------------------------------------------------------------------
    # Transmission: hop-by-hop forwarding
    # ------------------------------------------------------------------

    def unicast(
        self,
        source: EndpointAddress,
        dest: EndpointAddress,
        payload: bytes,
    ) -> None:
        if len(payload) > self.mtu:
            from repro.errors import PacketTooLargeError

            raise PacketTooLargeError(len(payload), self.mtu)
        if source not in self._endpoints:
            raise AddressError(f"source {source} not attached to {self.name}")
        if not self.node_alive(source.node):
            raise NetworkError(f"node {source.node} has crashed and cannot send")
        self.stats.note_send(source.node, len(payload))
        if not self.partitions.reachable(source.node, dest.node):
            self.stats.packets_partitioned += 1
            return
        packet = Packet(
            source=source, dest=dest, payload=payload, sent_at=self.scheduler.now
        )
        self._forward(packet, self.site_of(source.node))

    def _forward(self, packet: Packet, at_site: str) -> None:
        """One routing step: local delivery or next-hop transmission."""
        dest_site = self.site_of(packet.dest.node)
        if at_site == dest_site:
            # Small intra-site delivery latency.
            self.scheduler.call_after(50e-6, self._deliver, packet)
            return
        hop = self.next_hop(at_site, dest_site)
        if hop is None:
            self.no_route_drops += 1
            return
        link = self._link(at_site, hop)
        if not link.up:
            self._routes_dirty = True
            self.no_route_drops += 1
            return
        deliveries = link.fault_model.plan_deliveries(self.rng, packet.payload)
        if not deliveries:
            self.stats.packets_lost += 1
            return
        for delay, data, garbled in deliveries:
            if garbled:
                self.stats.packets_garbled += 1
            hopped = Packet(
                source=packet.source,
                dest=packet.dest,
                payload=data,
                sent_at=packet.sent_at,
            )
            self.hops_forwarded += 1
            self.scheduler.call_after(delay, self._forward, hopped, hop)

    def __repr__(self) -> str:
        up = sum(1 for l in self._links.values() if l.up)
        return (
            f"<WanNetwork sites={len(self._sites)} links={up}/{len(self._links)} "
            f"endpoints={len(self._endpoints)}>"
        )

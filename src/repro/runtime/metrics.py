"""Transport metrics for the realtime substrate.

The simulated :class:`~repro.net.network.NetworkStats` counters are what
benchmarks and tests read; the realtime transport keeps the same counter
names so the two substrates are directly comparable, and adds what only
a real network has: a wall-clock one-way latency distribution, kept as
the registry's ``transport_latency_seconds`` histogram.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.net.network import NetworkStats, _counter_view
from repro.obs import MetricsRegistry, TIME_BUCKETS


class TransportStats(NetworkStats):
    """:class:`NetworkStats` plus realtime-only accounting.

    ``packets_lost`` keeps its simulated meaning's closest analogue:
    datagrams that arrived but had no attached endpoint to claim them.
    Real in-flight OS losses are invisible to the transport (reliability
    layers above recover them); the counters here are what the machine
    actually observed.

    Like the base class this is a registry view; the two transport-only
    counters appear as ``transport_*_total{component}``, and
    :attr:`latency` is the ``transport_latency_seconds{component}``
    histogram child.
    """

    _counter_specs = dict(NetworkStats._counter_specs)
    _counter_specs.update({
        "packets_unroutable": (
            "transport_packets_unroutable_total",
            "Datagrams whose destination node had no configured peer",
        ),
        "packets_undecodable": (
            "transport_packets_undecodable_total",
            "Datagrams that failed frame decoding (wrong magic, truncated)",
        ),
    })

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        component: str = "udp-os",
    ) -> None:
        super().__init__(registry, component=component)

    def _bind(self, registry: MetricsRegistry) -> None:
        super()._bind(registry)
        #: One-way wire latency of delivered datagrams (sender stamp →
        #: receipt).
        self.latency = registry.histogram(
            "transport_latency_seconds",
            "One-way wire latency of delivered datagrams",
            labels=("component",),
            buckets=TIME_BUCKETS,
        ).labels(component=self.component)

    def note_delivery(self, size: int, latency: float) -> None:
        """Account for one datagram handed to an attached endpoint."""
        self.packets_delivered += 1
        self.bytes_delivered += size
        if latency >= 0.0:
            self.latency.observe(latency)

    def as_dict(self) -> Dict[str, object]:
        data = super().as_dict()
        data["latency"] = self.latency.values()
        return data


for _attr in ("packets_unroutable", "packets_undecodable"):
    setattr(
        TransportStats, _attr,
        _counter_view(_attr, TransportStats._counter_specs[_attr][1]),
    )
del _attr

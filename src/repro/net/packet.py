"""Wire packets.

A :class:`Packet` is what actually crosses the simulated network: a flat
byte payload plus source and destination endpoint addresses.  Everything
richer (group addresses, sequence numbers, view identifiers) lives in
the payload as layer headers — the network is deliberately dumb, so that
all protocol intelligence sits in the composable layers above it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.net.address import EndpointAddress


@dataclass
class Packet:
    """One datagram in flight.

    Attributes:
        source: transmitting endpoint.
        dest: receiving endpoint.
        payload: opaque bytes (marshalled message with all headers).
        sent_at: virtual time at which the packet entered the network;
            filled in by the network for latency accounting.
    """

    source: EndpointAddress
    dest: EndpointAddress
    payload: bytes
    sent_at: Optional[float] = field(default=None, compare=False)

    @property
    def size(self) -> int:
        """Payload size in bytes (what MTU limits apply to)."""
        return len(self.payload)

    def __repr__(self) -> str:
        return f"<Packet {self.source}->{self.dest} {self.size}B>"

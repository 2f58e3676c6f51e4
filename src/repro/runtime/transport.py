"""Real OS-UDP transport for Horus stacks.

Satisfies the same contract as the simulated
:class:`~repro.net.network.Network` — ``attach``/``detach`` endpoint
callbacks, ``unicast``/``multicast`` of flat byte payloads, a ``stats``
object, an ``mtu`` — but moves packets over actual UDP sockets via
asyncio's ``DatagramProtocol``.  Because the contract is identical, the
COM layer (and therefore every layer above it) runs unchanged; only the
wiring in :class:`~repro.runtime.world.RealtimeWorld` differs.

Topology model: one transport per OS process, one UDP socket per *node*
bound on it (usually exactly one; tests bind two in one process to get
real loopback traffic without forking).  Remote nodes are named peers
with ``(host, port)`` addresses — the realtime analogue of the DES
world knowing every node by name.  Multicast is unicast fan-out, the
same software multicast the base simulated network implements, so the
flush/NAK machinery sees the identical failure mode: each destination
experiences independent loss and delay.

Wire format (network byte order)::

    magic   4s   b"HRS2"
    sent    d    sender's CLOCK_MONOTONIC timestamp (latency accounting;
                 comparable across processes on one machine)
    srclen  H    length of marshalled source EndpointAddress
    dstlen  H    length of marshalled destination EndpointAddress
    flags   B    bit 0: payload was garbled by injected faults
    src     srclen bytes
    dst     dstlen bytes
    payload rest (the marshalled message with all layer headers)

The flags byte carries fault-injection metadata the simulated network
keeps on its :class:`~repro.net.packet.Packet`: a *deliberately*
garbled payload is marked so the receiver can route it through the
eager (validating) unmarshal path, mirroring the DES exactly.  Real
wire corruption is caught by the UDP checksum and surfaces as loss,
which is consistent with the model.

The ``mtu`` bounds the *payload*, exactly as in the simulation, so a
FRAG/NFRAG layer tuned for the simulated substrate fragments identically
over the real one.
"""

from __future__ import annotations

import asyncio
import random
import struct
import time
from typing import Dict, Optional, Tuple

from repro.errors import AddressError, NetworkError, PacketTooLargeError
from repro.net.address import EndpointAddress
from repro.net.faults import FaultModel
from repro.net.network import _NetworkBase
from repro.net.packet import Packet
from repro.runtime.engine import RealtimeEngine
from repro.runtime.metrics import TransportStats
from repro.sim.rand import derive_seed

_MAGIC = b"HRS2"
_HEADER = struct.Struct("!4sdHHB")

#: Frame flag bits.
FLAG_GARBLED = 0x01

#: Payload bound leaving room for frame + IP/UDP headers inside a
#: standard 1500-byte ethernet MTU.
DEFAULT_MTU = 1400


def encode_frame(
    source: EndpointAddress,
    dest: EndpointAddress,
    payload: bytes,
    sent_at: float,
    flags: int = 0,
) -> bytes:
    """Serialize one datagram frame."""
    src = source.marshal()
    dst = dest.marshal()
    return (
        _HEADER.pack(_MAGIC, sent_at, len(src), len(dst), flags)
        + src + dst + payload
    )


def decode_frame(
    data: bytes,
) -> Tuple[EndpointAddress, EndpointAddress, float, bytes, int]:
    """Parse one datagram frame; raises :class:`NetworkError` if malformed."""
    if len(data) < _HEADER.size:
        raise NetworkError("datagram shorter than frame header")
    magic, sent_at, src_len, dst_len, flags = _HEADER.unpack_from(data)
    if magic != _MAGIC:
        raise NetworkError(f"bad frame magic {magic!r}")
    offset = _HEADER.size
    if len(data) < offset + src_len + dst_len:
        raise NetworkError("truncated frame addresses")
    source = EndpointAddress.unmarshal(data[offset : offset + src_len])
    offset += src_len
    dest = EndpointAddress.unmarshal(data[offset : offset + dst_len])
    offset += dst_len
    return source, dest, sent_at, data[offset:], flags


class _NodeProtocol(asyncio.DatagramProtocol):
    """Receives datagrams for one bound node socket."""

    def __init__(self, owner: "UdpTransport") -> None:
        self._owner = owner

    def datagram_received(self, data: bytes, addr) -> None:
        self._owner._on_datagram(data)

    def error_received(self, exc: Exception) -> None:
        # ICMP port-unreachable etc.: best-effort substrate, ignore —
        # reliability layers above recover exactly as they do from loss.
        pass


class UdpTransport(_NetworkBase):
    """Best-effort datagram transport over real OS UDP sockets.

    Drop-in for the ``network`` slot of a world: endpoints
    :meth:`attach` with a callback, the COM layer calls :meth:`unicast`
    / :meth:`multicast`, counters land in :attr:`stats`.

    Crashes and partitions are emulated: the sockets stay open and real
    UDP keeps flowing underneath, and the transport drops what a dead
    node or a component boundary would have — partitions on both the
    send and the receive path, so in a multi-process deployment
    installing the same partition on every transport cuts the link in
    both directions.
    """

    def __init__(
        self,
        engine: RealtimeEngine,
        mtu: int = DEFAULT_MTU,
        name: str = "udp-os",
        metrics=None,
        rng: Optional[random.Random] = None,
    ) -> None:
        super().__init__(name)
        self.engine = engine
        self.mtu = mtu
        self.stats = TransportStats(metrics, component=name)
        #: node name -> (host, port) for every known node, local or remote.
        self.peers: Dict[str, Tuple[str, int]] = {}
        #: Optional software fault injection applied before the socket
        #: write.  ``None`` (the default) keeps the hot path untouched:
        #: no rng draw, no extra allocation, straight to ``sendto``.
        self.fault_model: Optional[FaultModel] = None
        self.rng = rng or random.Random(derive_seed(0, f"transport.{name}"))
        self._socks: Dict[str, asyncio.DatagramTransport] = {}
        self._closed = False

    # ------------------------------------------------------------------
    # Socket lifecycle
    # ------------------------------------------------------------------

    async def bind(
        self, node: str, host: str = "127.0.0.1", port: int = 0
    ) -> Tuple[str, int]:
        """Open the UDP socket for local ``node``; returns the bound address.

        ``port=0`` lets the OS pick a free port (tests); fixed ports are
        what real deployments advertise to their peers.
        """
        if node in self._socks:
            raise AddressError(f"node {node!r} already bound on {self.name}")
        transport, _ = await self.engine.loop.create_datagram_endpoint(
            lambda: _NodeProtocol(self), local_addr=(host, port)
        )
        sockaddr = transport.get_extra_info("sockname")
        bound = (sockaddr[0], sockaddr[1])
        self._socks[node] = transport
        self.peers[node] = bound
        return bound

    def bind_sync(
        self, node: str, host: str = "127.0.0.1", port: int = 0
    ) -> Tuple[str, int]:
        """Blocking :meth:`bind` for synchronous setup code."""
        return self.engine.sync(self.bind(node, host, port))

    def add_peer(self, node: str, host: str, port: int) -> None:
        """Teach the transport where remote ``node`` listens."""
        self.peers[node] = (host, port)

    def close(self) -> None:
        """Close every bound socket.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        for transport in self._socks.values():
            transport.close()
        self._socks.clear()

    def set_faults(self, model: Optional[FaultModel]) -> None:
        """Install software fault injection; ``None`` restores passthrough.

        With a model installed every send runs through
        :meth:`FaultModel.plan_deliveries` — loss, duplication,
        garbling, and extra delay are applied *before* the socket write,
        on top of whatever the real path already does.
        """
        self.fault_model = model

    # ------------------------------------------------------------------
    # Transmission (Network contract)
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
        sock = self._socks.get(source.node)
        if sock is None:
            raise AddressError(f"node {source.node!r} has no socket on {self.name}")
        if not self.node_alive(source.node):
            raise NetworkError(f"node {source.node} has crashed and cannot send")
        self.stats.note_send(source.node, len(payload))
        if not self.partitions.reachable(source.node, dest.node):
            self.stats.packets_partitioned += 1
            return
        target = self.peers.get(dest.node)
        if target is None:
            self.stats.packets_unroutable += 1
            return
        if self.fault_model is None:
            frame = encode_frame(source, dest, payload, time.monotonic())
            sock.sendto(frame, target)
            return
        deliveries = self.fault_model.plan_deliveries(self.rng, payload)
        if not deliveries:
            self.stats.packets_lost += 1
            return
        if len(deliveries) > 1:
            self.stats.packets_duplicated += 1
        for delay, data, garbled in deliveries:
            flags = FLAG_GARBLED if garbled else 0
            if garbled:
                # Counted at the injection point; the frame also carries
                # the flag so the receiver can validate eagerly, exactly
                # like the DES network's Packet.garbled.
                self.stats.packets_garbled += 1
            if delay > 0:
                self.engine.call_after(
                    delay, self._emit_frame, source, dest, data, target, flags
                )
            else:
                self._emit_frame(source, dest, data, target, flags)

    def _emit_frame(
        self,
        source: EndpointAddress,
        dest: EndpointAddress,
        payload: bytes,
        target: Tuple[str, int],
        flags: int = 0,
    ) -> None:
        """Late socket write for fault-injected (possibly delayed) frames."""
        if self._closed:
            return
        sock = self._socks.get(source.node)
        if sock is None or sock.is_closing() or not self.node_alive(source.node):
            return
        sock.sendto(
            encode_frame(source, dest, payload, time.monotonic(), flags), target
        )

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------

    def _on_datagram(self, data: bytes) -> None:
        """Socket receive path: decode the frame, demux to the endpoint."""
        try:
            source, dest, sent_at, payload, flags = decode_frame(data)
        except NetworkError:
            self.stats.packets_undecodable += 1
            return
        if not self.node_alive(dest.node):
            self.stats.packets_to_dead += 1
            return
        if not self.partitions.reachable(source.node, dest.node):
            self.stats.packets_partitioned += 1
            return
        callback = self._endpoints.get(dest)
        if callback is None:
            self.stats.packets_lost += 1
            return
        latency = time.monotonic() - sent_at
        self.stats.note_delivery(len(payload), latency)
        callback(
            Packet(
                source=source,
                dest=dest,
                payload=payload,
                sent_at=sent_at,
                garbled=bool(flags & FLAG_GARBLED),
            )
        )

    def __repr__(self) -> str:
        return (
            f"<UdpTransport {self.name!r} nodes={sorted(self._socks)} "
            f"endpoints={len(self._endpoints)} mtu={self.mtu}>"
        )

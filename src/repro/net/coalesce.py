"""COM-seam datagram coalescing.

Small application messages dominate the Section 7 and Section 10
workloads, and each one normally pays the full per-datagram cost:
scheduler events and fault-model draws on the DES, a syscall on the
realtime substrate.  :class:`Coalescer` sits between the COM layer and
either substrate and amortises that cost by batching several marshalled
messages travelling between the same (source, destination set) pair into
one datagram.

Batch frame
-----------

A batch reuses the wire magic of the header registry so a receiver can
tell the two apart from the first three bytes::

    0x4852 (">H", the "HR" magic)
    0xB0   batch mode byte (disjoint from header wire modes 0..3)
    count  (">B", number of sub-payloads, >= 2)
    count * [ ">H" length | payload bytes ]

Singleton flushes skip the frame entirely — the lone payload is sent
raw, so un-batched traffic is byte-identical to an uncoalesced world.

Flush policy
------------

A buffered batch is flushed when any of these holds:

* appending the next payload would exceed the substrate MTU;
* the batch reached ``max_batch`` sub-payloads (or 255, the count
  field's ceiling);
* its :class:`~repro.runtime.clock.FlushPacer` deadline arrives: the
  end of the current turn when nothing left for these destinations in
  the last ``max_delay`` seconds of Clock time (a lone message is not
  held for company that never comes, yet everything one handler
  produces — the runs of one large FRAG message, a burst of casts —
  still shares datagrams),
  else ``max_delay`` after the previous flush.  No payload waits longer
  than ``max_delay`` and the deadline sends at most one datagram per
  ``max_delay`` per destination set; it runs on whichever Clock seam
  the world uses, so the DES stays deterministic.

Payloads that cannot gain from batching (``payload + overhead > mtu``)
bypass the buffer after flushing it, preserving per-destination FIFO
order; the inner substrate still enforces its own MTU check so oversize
sends fail exactly as they would uncoalesced.

Fault interplay
---------------

Loss, duplication and partition happen *below* the coalescer, to whole
datagrams — losing a batch loses all its sub-messages, exactly like a
larger packet.  A garbled or structurally truncated batch is rejected
whole (counted in ``batches_rejected``), never partially delivered, so
the NAK layer sees a clean gap and recovers every sub-message.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import AddressError, NetworkError, PacketTooLargeError
from repro.net.address import EndpointAddress
from repro.net.packet import Packet
from repro.runtime.clock import FlushPacer

DeliveryCallback = Callable[[Packet], None]

#: Same magic the header registry writes, so the first two bytes of any
#: repro datagram are "HR" whether or not it is a batch.
_MAGIC = 0x4852
#: Batch discriminator — disjoint from header wire-mode bytes (0..3), so
#: a batch frame handed to a non-coalescing endpoint fails unmarshal
#: cleanly instead of mis-decoding.
_MODE_BATCH = 0xB0

_PREAMBLE = struct.Struct(">HBB")   # magic, mode byte, sub-payload count
_SUBLEN = struct.Struct(">H")       # per-sub-payload length prefix

#: Hard ceiling from the one-byte count field.
_MAX_COUNT = 255


def decode_batch(payload: bytes) -> Optional[List[bytes]]:
    """Split a batch frame into its sub-payloads.

    Returns ``None`` when ``payload`` is not a batch frame at all (wrong
    magic or mode byte) — the caller should deliver it unchanged.
    Raises :class:`ValueError` when the frame *is* a batch but is
    structurally corrupt (truncated length, trailing garbage, bad
    count): corrupt batches are rejected whole.
    """
    if len(payload) < _PREAMBLE.size:
        return None
    magic, mode, count = _PREAMBLE.unpack_from(payload, 0)
    if magic != _MAGIC or mode != _MODE_BATCH:
        return None
    if count < 2:
        raise ValueError(f"batch frame with count={count}")
    subs: List[bytes] = []
    offset = _PREAMBLE.size
    for _ in range(count):
        if offset + _SUBLEN.size > len(payload):
            raise ValueError("truncated batch frame (length prefix)")
        (length,) = _SUBLEN.unpack_from(payload, offset)
        offset += _SUBLEN.size
        if offset + length > len(payload):
            raise ValueError("truncated batch frame (sub-payload)")
        subs.append(payload[offset:offset + length])
        offset += length
    if offset != len(payload):
        raise ValueError("trailing bytes after batch frame")
    return subs


class _Buffer:
    """One pending batch: reused bytearray plus its flush deadline."""

    __slots__ = ("buf", "count", "pacer")

    def __init__(self, pacer: Optional[FlushPacer]) -> None:
        self.buf = bytearray()
        self.count = 0
        #: None when ``max_delay`` is 0 (every payload leaves at once).
        self.pacer = pacer


#: Buffer key: cast kind, sender, ordered destination tuple.
_Key = Tuple[str, EndpointAddress, Tuple[EndpointAddress, ...]]


class Coalescer:
    """Batch outgoing payloads per (source, destinations) over a substrate.

    Wraps any object with the network contract (``attach`` / ``detach``
    / ``unicast`` / ``multicast`` / ``mtu``).  Send-side methods buffer;
    the receive side unwraps batch frames back into individual
    :class:`~repro.net.packet.Packet` deliveries.  Every other
    attribute (fault plane, stats, peers, ...) is delegated to the
    wrapped substrate, so a world can expose the coalescer as its
    ``network`` without the layers noticing.
    """

    def __init__(
        self,
        inner,
        clock,
        max_delay: float = 0.0005,
        max_batch: int = 16,
    ) -> None:
        if max_delay < 0:
            raise ValueError("max_delay must be >= 0")
        self.inner = inner
        self.clock = clock
        self.max_delay = max_delay
        self.max_batch = min(int(max_batch), _MAX_COUNT)
        self._buffers: Dict[_Key, _Buffer] = {}
        #: Counters, mirrored nowhere else: the inner substrate's stats
        #: keep counting *datagrams*, these count the seam's work.
        self.batches_sent = 0
        self.messages_batched = 0
        self.batches_rejected = 0
        #: Deadline flushes, by which half of the pacer's rule sent them:
        #: at the end of the turn (quiet wire) or spaced after the last.
        self.flushes_idle = 0
        self.flushes_paced = 0

    # -- send path ----------------------------------------------------------

    def unicast(
        self,
        source: EndpointAddress,
        dest: EndpointAddress,
        payload: bytes,
    ) -> None:
        self._enqueue(("u", source, (dest,)), source, payload)

    def multicast(
        self,
        source: EndpointAddress,
        dests: Iterable[EndpointAddress],
        payload: bytes,
    ) -> None:
        self._enqueue(("m", source, tuple(dests)), source, payload)

    def _enqueue(self, key: _Key, source: EndpointAddress, payload: bytes) -> None:
        overhead = _PREAMBLE.size + _SUBLEN.size
        if len(payload) + overhead > self.inner.mtu or len(payload) > 0xFFFF:
            # Cannot share a datagram: flush what is pending (FIFO per
            # destination set) and hand the payload straight down, where
            # the substrate's own MTU check applies unchanged.
            self.flush(key)
            self._send_raw(key, payload)
            return
        entry = self._buffers.get(key)
        if entry is None:
            pacer = (
                FlushPacer(self.clock, self.max_delay, self._deadline_flush, key)
                if self.max_delay > 0 else None
            )
            entry = self._buffers[key] = _Buffer(pacer)
        if entry.count and len(entry.buf) + _SUBLEN.size + len(payload) > self.inner.mtu:
            self.flush(key)
        if entry.count == 0:
            entry.buf += _PREAMBLE.pack(_MAGIC, _MODE_BATCH, 0)
            if entry.pacer is not None:
                entry.pacer.batch_started()
        entry.buf += _SUBLEN.pack(len(payload))
        entry.buf += payload
        entry.count += 1
        if entry.count >= self.max_batch or entry.pacer is None:
            self.flush(key)

    def _deadline_flush(self, key: _Key, trigger: str) -> None:
        if trigger == "idle":
            self.flushes_idle += 1
        else:
            self.flushes_paced += 1
        try:
            self.flush(key)
        except (NetworkError, AddressError, PacketTooLargeError):
            # The sender crashed or detached while the batch sat in the
            # buffer (``flush`` emptied it before sending); a real NIC
            # would drop the queue the same way.
            pass

    def flush(self, key: _Key) -> None:
        """Send ``key``'s pending batch now (no-op when empty)."""
        entry = self._buffers.get(key)
        if entry is None or entry.count == 0:
            return
        if entry.count == 1:
            # Unwrap the singleton: skip preamble and length prefix so a
            # lone message costs exactly what it would uncoalesced.
            start = _PREAMBLE.size + _SUBLEN.size
            payload = bytes(entry.buf[start:])
        else:
            entry.buf[3] = entry.count
            payload = bytes(entry.buf)
            self.batches_sent += 1
            self.messages_batched += entry.count
        entry.buf.clear()
        entry.count = 0
        if entry.pacer is not None:
            entry.pacer.flushed()
        self._send_raw(key, payload)

    def flush_all(self) -> None:
        """Flush every pending batch (teardown / end-of-run hook)."""
        for key in list(self._buffers):
            self.flush(key)

    def _send_raw(self, key: _Key, payload: bytes) -> None:
        kind, source, dests = key
        if kind == "u":
            self.inner.unicast(source, dests[0], payload)
        else:
            self.inner.multicast(source, dests, payload)

    # -- receive path -------------------------------------------------------

    def attach(self, address: EndpointAddress, deliver: DeliveryCallback) -> None:
        """Register ``address``, unwrapping batch frames on delivery."""

        def unwrap(packet: Packet) -> None:
            try:
                subs = decode_batch(packet.payload)
            except ValueError:
                # Structurally corrupt batch: reject whole — the NAK
                # layer sees one clean gap per lost sub-message.
                self.batches_rejected += 1
                return
            if subs is None:
                deliver(packet)
                return
            if packet.garbled:
                # A bit flip anywhere in a batch could have landed in a
                # length prefix, silently shifting every later boundary.
                # Rejecting the whole datagram keeps corruption handling
                # identical to the single-message path: drop, gap, NAK.
                self.batches_rejected += 1
                return
            for sub in subs:
                deliver(
                    Packet(
                        source=packet.source,
                        dest=packet.dest,
                        payload=sub,
                        sent_at=packet.sent_at,
                        garbled=packet.garbled,
                    )
                )

        self.inner.attach(address, unwrap)

    # -- everything else is the substrate's ---------------------------------

    def __getattr__(self, name: str):
        # detach/attached/addresses, the fault plane, stats, mtu, peers,
        # bind_sync, close, ... — all delegated unchanged.
        return getattr(self.inner, name)

    def __repr__(self) -> str:
        pending = sum(b.count for b in self._buffers.values())
        return (
            f"<Coalescer over {self.inner!r} pending={pending} "
            f"max_batch={self.max_batch} max_delay={self.max_delay}>"
        )

"""NFRAG — network-level fragmentation (Table 3).

Unlike FRAG, which sits above a FIFO layer and spends a single header
bit, NFRAG sits directly over best-effort delivery: fragments may
arrive in any order or not at all, so each carries a message id and an
index, and reassembly is loss-tolerant (an incomplete message times out
and is discarded — the whole layer is still best effort, which is why a
retransmission layer above recovers the *message*, not the fragment).

Properties (Table 3): requires P1, P10, P11; provides P12.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core import headers as hdr
from repro.core.events import Downcall, DowncallType, Upcall, UpcallType
from repro.core.layer import Layer
from repro.core.message import Message
from repro.core.stack import register_layer
from repro.net.address import EndpointAddress

hdr.register(
    "NFRAG", wire_id=15,
    fields=[
        ("msgid", hdr.U32),
        ("index", hdr.U16),
        ("count", hdr.U16),
    ],
)

_BufferKey = Tuple[EndpointAddress, int]


class _Reassembly:
    __slots__ = ("parts", "count", "born")

    def __init__(self, count: int, born: float) -> None:
        self.parts: Dict[int, List[bytes]] = {}
        self.count = count
        self.born = born


@register_layer
class NetworkFragLayer(Layer):
    """Indexed fragmentation over unordered best-effort delivery.

    Config:
        max_size (int): maximum fragment body size (default 1024).
        reassembly_timeout (float): partial messages older than this are
            discarded (default 2.0 s).
    """

    name = "NFRAG"
    reshapes_body = True

    def __init__(self, context, **config) -> None:
        super().__init__(context, **config)
        self.max_size = int(config.get("max_size", 1024))
        self.reassembly_timeout = float(config.get("reassembly_timeout", 2.0))
        if self.max_size <= 0:
            raise ValueError(f"max_size must be positive, got {self.max_size}")
        self._next_msgid = 0
        self._buffers: Dict[_BufferKey, _Reassembly] = {}
        self._gc_timer = None
        self.fragments_sent = 0
        self.messages_reassembled = 0
        self.reassembly_expired = 0

    def start(self) -> None:
        self._gc_timer = self.periodic(self.reassembly_timeout, self._gc)
        self._gc_timer.start()

    # ------------------------------------------------------------------

    def handle_down(self, downcall: Downcall) -> None:
        message = downcall.message
        if (
            downcall.type not in (DowncallType.CAST, DowncallType.SEND)
            or message is None
        ):
            self.pass_down(downcall)
            return
        size = message.body_size
        count = max(1, -(-size // self.max_size)) if size else 1
        if count > 0xFFFF:
            raise ValueError(f"message of {size} bytes needs too many fragments")
        self._next_msgid = (self._next_msgid + 1) & 0xFFFFFFFF
        msgid = self._next_msgid
        # Leading fragments are bare slice carriers; the original
        # message (with all higher headers) travels as the final one.
        for index in range(count - 1):
            fragment = Message()
            lo = index * self.max_size
            for segment in message.slice_body(lo, lo + self.max_size):
                fragment.add_segment(segment)
            fragment.push_header(
                self.name, {"msgid": msgid, "index": index, "count": count}
            )
            self.fragments_sent += 1
            self.pass_down(
                Downcall(downcall.type, message=fragment, members=downcall.members)
            )
        tail = message.slice_body((count - 1) * self.max_size, size)
        message._segments[:] = tail
        message.push_header(
            self.name, {"msgid": msgid, "index": count - 1, "count": count}
        )
        self.fragments_sent += 1
        self.pass_down(downcall)

    # ------------------------------------------------------------------

    def handle_up(self, upcall: Upcall) -> None:
        message = upcall.message
        if (
            upcall.type not in (UpcallType.CAST, UpcallType.SEND)
            or message is None
            or message.peek_header(self.name) is None
        ):
            self.pass_up(upcall)
            return
        header = message.pop_header(self.name)
        msgid, index, count = header["msgid"], header["index"], header["count"]
        if count <= 1:
            self.pass_up(upcall)
            return
        key = (upcall.source, msgid)
        if index == count - 1:
            # The final fragment carries the real message object; stash
            # the upcall so the full body can be rebuilt around it.
            entry = self._buffers.setdefault(key, _Reassembly(count, self.now))
            entry.parts[index] = ("FINAL", upcall)  # type: ignore[assignment]
        else:
            entry = self._buffers.setdefault(key, _Reassembly(count, self.now))
            entry.parts[index] = list(message.segments)
        if len(entry.parts) < count:
            return
        final_marker = entry.parts.pop(count - 1)
        _, final_upcall = final_marker
        final_message = final_upcall.message
        prefix: List[bytes] = []
        for i in range(count - 1):
            prefix.extend(entry.parts[i])
        final_message._segments[:0] = prefix
        del self._buffers[key]
        self.messages_reassembled += 1
        self.pass_up(final_upcall)

    def _gc(self) -> None:
        cutoff = self.now - self.reassembly_timeout
        for key in [k for k, v in self._buffers.items() if v.born < cutoff]:
            del self._buffers[key]
            self.reassembly_expired += 1

    def dump(self):
        info = super().dump()
        info.update(
            max_size=self.max_size,
            fragments_sent=self.fragments_sent,
            messages_reassembled=self.messages_reassembled,
            reassembly_expired=self.reassembly_expired,
            partial_buffers=len(self._buffers),
        )
        return info

"""CHKSUM — checksumming for garbling detection (Figure 1, Section 2).

"A simple protocol that adds a (large enough) checksum to each message
could be used to reduce the garbling problem to a statistically
insignificant rate.  Such a protocol has functionality on both the
sending side, where it adds the checksum, and on the receive side,
where it drops the message if the checksum does not match the contents
of the message."

The checksum is a CRC-32 over the datagram's own bytes: every byte
ahead of the sum — the preamble (magic, mode byte, header count) and
every header above this layer, frames, lengths and padding included —
and the body frame (the body's length and the body).  The layer encodes
nothing: it pushes its seal hook, and the marshaller sums the two spans
once the datagram is laid out and patches the sum in
(:mod:`repro.core.headers.codecs`).  A receiver sums the same two spans
of the datagram that arrived, decoding nothing.  A message looped back
to its sender never left the process and carries the hook, not a sum:
it has nothing to verify.  Stack CHKSUM directly above COM so as much
of the packet as possible is protected; a stack with CHKSUM above a
layer that rewrites or splits the body (CRYPT, COMPRESS, FRAG, NFRAG)
is refused when built.
"""

from __future__ import annotations

import struct
from zlib import crc32

from repro.core import headers as hdr
from repro.core.events import Downcall, DowncallType, Upcall, UpcallType
from repro.core.headers import SealedHeader
from repro.core.layer import Layer
from repro.core.stack import register_layer

hdr.register("CHKSUM", wire_id=4, fields=[("sum", hdr.U32)], sealed=True)

_pack_sum = struct.Struct(">I").pack


def _seal(head, tail) -> bytes:
    """The seal hook: CRC-32 of the covered spans, as the field's bytes."""
    return _pack_sum(crc32(tail, crc32(head)))


@register_layer
class ChecksumLayer(Layer):
    """CRC-32 over the covered bytes of the datagram; mismatches are dropped."""

    name = "CHKSUM"
    seals_datagram = True

    def __init__(self, context, **config) -> None:
        super().__init__(context, **config)
        self.garbled_dropped = 0
        self.verified = 0

    def handle_down(self, downcall: Downcall) -> None:
        if (
            downcall.type in (DowncallType.CAST, DowncallType.SEND)
            and downcall.message is not None
        ):
            downcall.message.push_owned_header(self.name, {"sum": _seal})
        self.pass_down(downcall)

    def handle_up(self, upcall: Upcall) -> None:
        message = upcall.message
        if upcall.type not in (UpcallType.CAST, UpcallType.SEND) or message is None:
            self.pass_up(upcall)
            return
        # A message whose top header is not ours carries no sum: it
        # cannot be verified, so it is dropped like a mismatch.
        entry = message.pop_entry(self.name)
        if type(entry) is SealedHeader:
            if entry.span == _seal(entry.head, entry.tail):
                self.verified += 1
                self.pass_up(upcall)
                return
        elif entry is not None and entry.get("sum") is _seal:
            self.pass_up(upcall)  # our own, looped back: it never left
            return
        self.garbled_dropped += 1
        self.trace("garbled_dropped", source=upcall.source)
        # "drops the message if the checksum does not match"

    def dump(self):
        info = super().dump()
        info.update(garbled_dropped=self.garbled_dropped, verified=self.verified)
        return info

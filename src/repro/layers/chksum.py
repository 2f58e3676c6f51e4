"""CHKSUM — checksumming for garbling detection (Figure 1, Section 2).

"A simple protocol that adds a (large enough) checksum to each message
could be used to reduce the garbling problem to a statistically
insignificant rate.  Such a protocol has functionality on both the
sending side, where it adds the checksum, and on the receive side,
where it drops the message if the checksum does not match the contents
of the message."

The checksum covers everything the layer can see: the body plus every
header pushed above it, canonically encoded with each owner name
length-prefixed so distinct (owner, header) stacks can never collapse
to the same covered bytes (:func:`repro.core.headers.content_chunks`
defines them).  A receiver folds the header spans of the datagram that
arrived — it decodes only its own header.  Stack it directly above COM
so as much of the packet as possible is protected.
"""

from __future__ import annotations

from zlib import crc32

from repro.core import headers as hdr
from repro.core.events import Downcall, DowncallType, Upcall, UpcallType
from repro.core.headers import content_chunks
from repro.core.layer import Layer
from repro.core.message import Message
from repro.core.stack import register_layer

hdr.register("CHKSUM", fields=[("sum", hdr.U32)])


@register_layer
class ChecksumLayer(Layer):
    """CRC-32 over headers-above plus body; mismatches are dropped."""

    name = "CHKSUM"

    def __init__(self, context, **config) -> None:
        super().__init__(context, **config)
        self.garbled_dropped = 0
        self.verified = 0

    def _sum(self, message: Message) -> int:
        crc = 0
        for chunk in content_chunks(self.context.registry, message):
            crc = crc32(chunk, crc)
        return crc

    def handle_down(self, downcall: Downcall) -> None:
        if (
            downcall.type in (DowncallType.CAST, DowncallType.SEND)
            and downcall.message is not None
        ):
            downcall.message.push_owned_header(
                self.name, {"sum": self._sum(downcall.message)}
            )
        self.pass_down(downcall)

    def handle_up(self, upcall: Upcall) -> None:
        message = upcall.message
        if upcall.type not in (UpcallType.CAST, UpcallType.SEND) or message is None:
            self.pass_up(upcall)
            return
        # A message whose top header is not ours carries no sum: it
        # cannot be verified, so it is dropped like a mismatch.
        header = (
            message.pop_header(self.name)
            if message.top_owner() == self.name else None
        )
        if header is None or header["sum"] != self._sum(message):
            self.garbled_dropped += 1
            self.trace("garbled_dropped", source=upcall.source)
            return  # "drops the message if the checksum does not match"
        self.verified += 1
        self.pass_up(upcall)

    def dump(self):
        info = super().dump()
        info.update(garbled_dropped=self.garbled_dropped, verified=self.verified)
        return info

"""COMPRESS — body compression "to improve bandwidth use" (Figure 1).

Compresses the body with zlib when doing so actually shrinks it; tiny
or incompressible bodies travel untouched (one header bit records the
choice, so the receive side never guesses).
"""

from __future__ import annotations

import zlib

from repro.core import headers as hdr
from repro.core.events import Downcall, DowncallType, Upcall, UpcallType
from repro.core.layer import Layer
from repro.core.stack import register_layer

hdr.register("COMPRESS", wire_id=6, fields=[("packed", hdr.BOOL)])


@register_layer
class CompressionLayer(Layer):
    """zlib body compression with an incompressibility escape hatch.

    Config:
        level (int): zlib compression level 1-9 (default 6).
        min_size (int): bodies smaller than this skip compression
            (default 64 bytes).
    """

    name = "COMPRESS"
    reshapes_body = True

    def __init__(self, context, **config) -> None:
        super().__init__(context, **config)
        self.level = int(config.get("level", 6))
        self.min_size = int(config.get("min_size", 64))
        self.bytes_in = 0
        self.bytes_out = 0

    def handle_down(self, downcall: Downcall) -> None:
        message = downcall.message
        if (
            downcall.type in (DowncallType.CAST, DowncallType.SEND)
            and message is not None
        ):
            body = message.body_bytes()
            packed = False
            if len(body) >= self.min_size:
                squeezed = zlib.compress(body, self.level)
                if len(squeezed) < len(body):
                    message._segments[:] = [squeezed]
                    packed = True
            self.bytes_in += len(body)
            self.bytes_out += message.body_size
            message.push_header(self.name, {"packed": packed})
        self.pass_down(downcall)

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
        if header["packed"]:
            message._segments[:] = [zlib.decompress(message.body_bytes())]
        self.pass_up(upcall)

    @property
    def ratio(self) -> float:
        """Compressed-to-original byte ratio so far (1.0 = no gain)."""
        if self.bytes_in == 0:
            return 1.0
        return self.bytes_out / self.bytes_in

    def dump(self):
        info = super().dump()
        info.update(
            bytes_in=self.bytes_in, bytes_out=self.bytes_out, ratio=self.ratio
        )
        return info

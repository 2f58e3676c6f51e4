"""SIGN — cryptographic message authentication (Figure 1, Section 2).

"More interestingly, the checksum could be made cryptographic (i.e.,
dependent on a secret key), making it impossible for a malignant
intruder to impersonate a member process of the application."

A keyed HMAC (SHA-256, truncated) over the covered bytes — body plus
the headers above this layer, with owner names length-prefixed so no
two header stacks share an encoding (the same bytes CHKSUM covers,
:func:`repro.core.headers.content_chunks`; a receiver reads them from
the datagram that arrived).  All group members share the key
(group-key distribution is the KEYDIST protocol type of Figure 1; here
the key arrives via layer config).
"""

from __future__ import annotations

import hmac
import hashlib

from repro.core import headers as hdr
from repro.core.events import Downcall, DowncallType, Upcall, UpcallType
from repro.core.headers import content_chunks
from repro.core.layer import Layer
from repro.core.stack import register_layer

hdr.register("SIGN", fields=[("mac", hdr.VARBYTES)])

_MAC_BYTES = 8


@register_layer
class SigningLayer(Layer):
    """HMAC authentication; forged or corrupted messages are dropped.

    Config:
        key (str|bytes): the shared group secret (default "horus-demo-key";
            real deployments must configure their own).
    """

    name = "SIGN"

    def __init__(self, context, **config) -> None:
        super().__init__(context, **config)
        key = config.get("key", "horus-demo-key")
        self.key = key.encode("utf-8") if isinstance(key, str) else bytes(key)
        self.rejected = 0
        self.verified = 0

    def _mac(self, message) -> bytes:
        mac = hmac.new(self.key, digestmod=hashlib.sha256)
        for chunk in content_chunks(self.context.registry, message):
            mac.update(chunk)
        return mac.digest()[:_MAC_BYTES]

    def handle_down(self, downcall: Downcall) -> None:
        if (
            downcall.type in (DowncallType.CAST, DowncallType.SEND)
            and downcall.message is not None
        ):
            downcall.message.push_owned_header(
                self.name, {"mac": self._mac(downcall.message)}
            )
        self.pass_down(downcall)

    def handle_up(self, upcall: Upcall) -> None:
        message = upcall.message
        if upcall.type not in (UpcallType.CAST, UpcallType.SEND) or message is None:
            self.pass_up(upcall)
            return
        # A message whose top header is not ours carries no MAC: passing
        # it up would let anyone impersonate a member by omitting the
        # header, so it is rejected like a bad one.
        header = (
            message.pop_header(self.name)
            if message.top_owner() == self.name else None
        )
        if header is None or not hmac.compare_digest(
            bytes(header["mac"]), self._mac(message)
        ):
            self.rejected += 1
            self.trace("signature_rejected", source=upcall.source)
            return
        self.verified += 1
        self.pass_up(upcall)

    def dump(self):
        info = super().dump()
        info.update(rejected=self.rejected, verified=self.verified)
        return info

"""SIGN — cryptographic message authentication (Figure 1, Section 2).

"More interestingly, the checksum could be made cryptographic (i.e.,
dependent on a secret key), making it impossible for a malignant
intruder to impersonate a member process of the application."

A keyed HMAC (SHA-256, truncated to a fixed eight bytes) over the same
covered bytes CHKSUM sums: every byte of the datagram ahead of the MAC
— the preamble and every header above this layer, frames, lengths and
padding included — and the body frame, as it travels.  The layer pushes
a seal hook holding its key; the marshaller computes the MAC over the
laid-out datagram and patches it in (:mod:`repro.core.headers.codecs`),
and a receiver recomputes it over the same two spans of the datagram
that arrived.  The body is covered as it travels, so SIGN must sit
*below* a layer that rewrites or splits it (CRYPT, COMPRESS, FRAG,
NFRAG), and that layer's header is covered too — encrypt-then-MAC; a
stack with SIGN above one is refused when built.  All group members share the key
(group-key distribution is the KEYDIST protocol type of Figure 1; here
the key arrives via layer config).
"""

from __future__ import annotations

import hmac
import hashlib

from repro.core import headers as hdr
from repro.core.events import Downcall, DowncallType, Upcall, UpcallType
from repro.core.headers import SealedHeader
from repro.core.layer import Layer
from repro.core.stack import register_layer

hdr.register("SIGN", wire_id=22, fields=[("mac", hdr.BYTES8)], sealed=True)

_MAC_BYTES = 8


@register_layer
class SigningLayer(Layer):
    """HMAC authentication; forged or corrupted messages are dropped.

    Config:
        key (str|bytes): the shared group secret (default "horus-demo-key";
            real deployments must configure their own).
    """

    name = "SIGN"
    seals_datagram = True

    def __init__(self, context, **config) -> None:
        super().__init__(context, **config)
        key = config.get("key", "horus-demo-key")
        self.key = key.encode("utf-8") if isinstance(key, str) else bytes(key)
        self.rejected = 0
        self.verified = 0

        def seal(head, tail, key=self.key) -> bytes:
            mac = hmac.new(key, head, hashlib.sha256)
            mac.update(tail)
            return mac.digest()[:_MAC_BYTES]

        #: The seal hook this layer pushes; it holds the key.
        self._seal = seal

    def handle_down(self, downcall: Downcall) -> None:
        if (
            downcall.type in (DowncallType.CAST, DowncallType.SEND)
            and downcall.message is not None
        ):
            downcall.message.push_owned_header(self.name, {"mac": self._seal})
        self.pass_down(downcall)

    def handle_up(self, upcall: Upcall) -> None:
        message = upcall.message
        if upcall.type not in (UpcallType.CAST, UpcallType.SEND) or message is None:
            self.pass_up(upcall)
            return
        # A message whose top header is not ours carries no MAC: passing
        # it up would let anyone impersonate a member by omitting the
        # header, so it is rejected like a bad one.
        entry = message.pop_entry(self.name)
        if type(entry) is SealedHeader:
            if hmac.compare_digest(entry.span, self._seal(entry.head, entry.tail)):
                self.verified += 1
                self.pass_up(upcall)
                return
        elif entry is not None and entry.get("mac") is self._seal:
            self.pass_up(upcall)  # our own, looped back: it never left
            return
        self.rejected += 1
        self.trace("signature_rejected", source=upcall.source)

    def dump(self):
        info = super().dump()
        info.update(rejected=self.rejected, verified=self.verified)
        return info

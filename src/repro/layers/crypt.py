"""CRYPT — body encryption for private communication (Figure 1).

Encrypts the message *body* with a keystream derived from a shared
group key and a per-message nonce (SHA-256 in counter mode).  Headers
pushed by layers below remain in the clear, like any layered transport
encryption; stack SIGN below CRYPT for authenticated encryption
(encrypt-then-MAC: SIGN covers the body as it travels, ciphertext, and
CRYPT's nonce and key id with it).  A stack with SIGN or CHKSUM above
CRYPT is refused when built (:meth:`repro.core.stack.StackConfig.build`).

The cipher here demonstrates the code path (key handling, nonce
management, exact-length keystreams) — a production system would slot
an AEAD in the same place.
"""

from __future__ import annotations

import hashlib
import zlib

from repro.core import headers as hdr
from repro.core.events import Downcall, DowncallType, Upcall, UpcallType
from repro.core.layer import Layer
from repro.core.stack import register_layer

hdr.register(
    "CRYPT", wire_id=8,
    fields=[("nonce", hdr.U64), ("kid", hdr.U32)],
    defaults={"kid": 0},
)


def _keystream(key: bytes, nonce: int, length: int) -> bytes:
    """SHA-256 counter-mode keystream of exactly ``length`` bytes."""
    out = bytearray()
    counter = 0
    seed = key + nonce.to_bytes(8, "big")
    while len(out) < length:
        out += hashlib.sha256(seed + counter.to_bytes(4, "big")).digest()
        counter += 1
    return bytes(out[:length])


@register_layer
class EncryptionLayer(Layer):
    """XOR-keystream body encryption with per-message nonces.

    When a KEYDIST layer above publishes a group key source in the
    stack's shared context, bodies are encrypted under the *current
    view key* (key id in the header); otherwise — and before the first
    view key arrives — the static config key (key id 0) is used.
    Messages arriving under a view key we have not yet received are
    held briefly and retried.

    Config:
        key (str|bytes): static shared secret (default "horus-demo-key").
    """

    name = "CRYPT"
    reshapes_body = True

    def __init__(self, context, **config) -> None:
        super().__init__(context, **config)
        key = config.get("key", "horus-demo-key")
        self.key = key.encode("utf-8") if isinstance(key, str) else bytes(key)
        self._nonce = 0
        self.encrypted = 0
        self.decrypted = 0
        self.dropped_no_key = 0

    def _key_for(self, kid: int):
        if kid == 0:
            return self.key
        source = self.context.shared.get("group_key_source")
        if source is None:
            return None
        return source.key_for(kid)

    def _current_key(self):
        source = self.context.shared.get("group_key_source")
        if source is not None:
            current = source.current()
            if current is not None:
                return current
        return 0, self.key

    def _apply(self, message, key: bytes, nonce: int) -> None:
        body = message.body_bytes()
        if not body:
            return
        stream = _keystream(key, nonce, len(body))
        transformed = bytes(b ^ s for b, s in zip(body, stream))
        message._segments[:] = [transformed]

    def handle_down(self, downcall: Downcall) -> None:
        if (
            downcall.type in (DowncallType.CAST, DowncallType.SEND)
            and downcall.message is not None
        ):
            # Derive distinct nonces per endpoint so concurrent senders
            # sharing a key never reuse a (key, nonce) pair.
            self._nonce += 1
            endpoint_tag = zlib.crc32(str(self.endpoint).encode()) & 0xFFFFFF
            nonce = endpoint_tag << 32 | self._nonce
            if downcall.type is DowncallType.CAST:
                kid, key = self._current_key()
            else:
                # Unicast control traffic (joins, installs, the wrapped
                # view keys themselves, retransmissions) must stay
                # readable by endpoints that do not hold the view key
                # yet — it uses the static/pairwise key.
                kid, key = 0, self.key
            self._apply(downcall.message, key, nonce)
            downcall.message.push_header(self.name, {"nonce": nonce, "kid": kid})
            self.encrypted += 1
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
        self._decrypt_or_hold(upcall, header, attempts_left=20)

    def _decrypt_or_hold(self, upcall: Upcall, header, attempts_left: int) -> None:
        key = self._key_for(header["kid"])
        if key is None:
            if attempts_left <= 0:
                self.dropped_no_key += 1
                self.trace("crypt_no_key", kid=header["kid"])
                return
            # The view key may still be in flight from the coordinator.
            self.context.scheduler.call_after(
                0.05, self._decrypt_or_hold, upcall, header, attempts_left - 1
            )
            return
        self._apply(upcall.message, key, header["nonce"])
        self.decrypted += 1
        self.pass_up(upcall)

    def dump(self):
        info = super().dump()
        info.update(
            encrypted=self.encrypted,
            decrypted=self.decrypted,
            dropped_no_key=self.dropped_no_key,
        )
        return info

"""KEYDIST — group key distribution (Figure 1: "key distribution, security").

Section 11: "A security architecture for Horus provides for
authentication and encryption of messages, using a novel approach that
combines security features with fault-tolerance."  The combination here
is exactly that: key distribution rides the membership machinery — the
*coordinator* of each view generates a fresh group key and unicasts it
to every member, wrapped under that member's individual key.  A member
excluded from a view never learns later keys (forward secrecy across
membership changes), and a joiner never learns earlier ones.

Composes with the CRYPT layer below: KEYDIST publishes a key source in
the stack's shared context, and CRYPT encrypts under the current view
key (falling back to its static key until the first view key arrives).
Stack as ``KEYDIST:MBRSHIP:...:CRYPT:COM``? No — CRYPT must be *below*
the membership control traffic it protects:
``KEYDIST:MBRSHIP:FRAG:NAK:CRYPT:COM``.

Per-member wrapping keys are derived from a deployment master secret
(config ``master_secret``), standing in for the per-member PKI a real
deployment would use.
"""

from __future__ import annotations

import hashlib
import hmac
from typing import Dict, Optional

from repro.core import headers as hdr
from repro.core.events import Downcall, DowncallType, Upcall, UpcallType
from repro.core.layer import Layer
from repro.core.message import Message
from repro.core.stack import register_layer
from repro.core.view import View
from repro.net.address import EndpointAddress

_KEY = 0  # coordinator -> member: the wrapped view key

hdr.register(
    "KEYDIST", wire_id=11,
    fields=[
        ("kind", hdr.U8),
        ("kid", hdr.U32),
        ("wrapped", hdr.VARBYTES),
    ],
)

_KEY_BYTES = 32


def _member_key(master: bytes, member: EndpointAddress) -> bytes:
    """The per-member wrapping key (PKI stand-in)."""
    return hmac.new(master, member.marshal(), hashlib.sha256).digest()


def _wrap(wrapping_key: bytes, key: bytes, kid: int) -> bytes:
    pad = hashlib.sha256(wrapping_key + kid.to_bytes(4, "big")).digest()
    return bytes(a ^ b for a, b in zip(key, pad))


class GroupKeySource:
    """What KEYDIST publishes for CRYPT: kid-indexed view keys."""

    def __init__(self) -> None:
        self._keys: Dict[int, bytes] = {}
        self._current_kid = 0

    def install(self, kid: int, key: bytes) -> None:
        self._keys[kid] = key
        self._current_kid = max(self._current_kid, kid)

    def current(self) -> Optional[tuple]:
        """``(kid, key)`` for encryption, or None before the first key."""
        if not self._current_kid:
            return None
        return self._current_kid, self._keys[self._current_kid]

    def key_for(self, kid: int) -> Optional[bytes]:
        """Decryption lookup; None if we never learned this view's key."""
        return self._keys.get(kid)


@register_layer
class KeyDistributionLayer(Layer):
    """Per-view group keys, distributed by the coordinator.

    Config:
        master_secret (str|bytes): deployment secret from which per-member
            wrapping keys derive (default "horus-master"; configure it).
    """

    name = "KEYDIST"

    def __init__(self, context, **config) -> None:
        super().__init__(context, **config)
        secret = config.get("master_secret", "horus-master")
        self.master = (
            secret.encode("utf-8") if isinstance(secret, str) else bytes(secret)
        )
        self.key_source = GroupKeySource()
        self.view: Optional[View] = None
        self.keys_generated = 0
        self.keys_installed = 0

    def start(self) -> None:
        # Publish for a CRYPT layer anywhere below (it looks this up lazily).
        self.context.shared["group_key_source"] = self.key_source

    def handle_up(self, upcall: Upcall) -> None:
        if upcall.type is UpcallType.VIEW and upcall.view is not None:
            self.view = upcall.view
            if upcall.view.members[0] == self.endpoint:
                self._distribute(upcall.view)
            self.pass_up(upcall)
            return
        message = upcall.message
        if (
            upcall.type is not UpcallType.SEND
            or message is None
            or message.peek_header(self.name) is None
        ):
            self.pass_up(upcall)
            return
        header = message.pop_header(self.name)
        if header["kind"] == _KEY:
            wrapping = _member_key(self.master, self.endpoint)
            key = _wrap(wrapping, bytes(header["wrapped"]), header["kid"])
            self.key_source.install(header["kid"], key)
            self.keys_installed += 1

    def _distribute(self, view: View) -> None:
        """Coordinator: fresh key for this view, wrapped per member."""
        kid = view.view_id.epoch
        key = bytes(
            self.context.rng.getrandbits(8) for _ in range(_KEY_BYTES)
        )
        self.key_source.install(kid, key)
        self.keys_generated += 1
        self.keys_installed += 1
        for member in view.members:
            if member == self.endpoint:
                continue
            wrapped = _wrap(_member_key(self.master, member), key, kid)
            message = Message()
            message.push_header(
                self.name, {"kind": _KEY, "kid": kid, "wrapped": wrapped}
            )
            self.pass_down(
                Downcall(DowncallType.SEND, message=message, members=[member])
            )

    def dump(self):
        info = super().dump()
        current = self.key_source.current()
        info.update(
            current_kid=current[0] if current else None,
            keys_generated=self.keys_generated,
            keys_installed=self.keys_installed,
        )
        return info

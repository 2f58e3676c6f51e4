"""FLUSH — the message-cut microprotocol (Table 3).

The second half of what the fused MBRSHIP layer does, expressed as an
independent layer over BMS (+VSS): it upgrades consistent views with
semi-synchrony (P8) to full virtual synchrony (P9) by enforcing the
*cut* — every survivor delivers the same per-origin prefix of messages
before accepting the next view.

Protocol (one instance per member, coordinator chosen by the membership
layer below and learned from its FLUSH upcall):

1. The layer buffers a copy of every cast delivered or sent in the
   current view.
2. On a FLUSH upcall from below, each member returns its buffered
   messages to the coordinator, followed by its delivery vector (VEC).
3. The membership layer below installs the new view on its own
   schedule; this layer *holds* the VIEW upcall.
4. The coordinator, once it has a VEC from every survivor of the held
   view, computes the final vector, relays to each member exactly the
   messages its vector lacks, and sends SYNC with the final vector.
5. A member releases the held VIEW upward only when its deliveries
   match the final vector — the cut.

This is deliberately the expensive, obviously-correct version (members
return their whole buffer): the paper's Section 8 notes that reference
microprotocols get combined and optimized into production layers, which
is exactly what MBRSHIP is relative to BMS:VSS:FLUSH.

Properties (Table 3): requires P3, P4, P8, P10, P11, P12, P15;
provides P9.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core import headers as hdr
from repro.core.events import Downcall, DowncallType, Upcall, UpcallType
from repro.core.layer import Layer
from repro.core.message import Message
from repro.core.stack import register_layer
from repro.core.view import View
from repro.net.address import EndpointAddress

_DATA = 0  # a cast with (vid, seq, origin); relays are re-sent copies
_VEC = 1  # member -> coordinator: delivery vector for the ending view
_SYNC = 2  # coordinator -> member: the final vector (the cut)

_NOBODY = EndpointAddress("", 0)

hdr.register(
    "FLUSH", wire_id=9,
    fields=[
        ("kind", hdr.U8),
        ("vid", hdr.U32),
        ("seq", hdr.U64),
        ("origin", hdr.ADDRESS),
        ("vector", hdr.MapOf(hdr.ADDRESS, hdr.U64)),
    ],
    defaults={"vid": 0, "seq": 0, "origin": _NOBODY, "vector": {}},
)


@register_layer
class FlushLayer(Layer):
    """Virtual synchrony's delivery cut as a standalone microprotocol.

    Config:
        release_timeout (float): how long to hold a new view waiting for
            the cut before releasing it anyway (default 3.0 s) — a
            missing coordinator is repaired by the membership layer
            below, so this is a last-resort valve.
    """

    name = "FLUSH"

    def __init__(self, context, **config) -> None:
        super().__init__(context, **config)
        self.release_timeout = float(config.get("release_timeout", 3.0))
        self.view: Optional[View] = None
        self.my_seq = 0
        self.delivered: Dict[EndpointAddress, int] = {}
        self.pending: Dict[EndpointAddress, Dict[int, Upcall]] = {}
        self.store: Dict[Tuple[EndpointAddress, int], Message] = {}
        self.coordinator: Optional[EndpointAddress] = None
        self.flush_seen = False
        self.vectors: Dict[EndpointAddress, Dict[EndpointAddress, int]] = {}
        self.wait_vector: Optional[Dict[EndpointAddress, int]] = None
        self._held_view: Optional[Upcall] = None
        self._release_timer = self.one_shot(self.release_timeout, self._force_release)
        self.cuts_completed = 0
        self.relays_sent = 0
        self.stale_dropped = 0

    # ------------------------------------------------------------------
    # Down: tag and buffer casts
    # ------------------------------------------------------------------

    def handle_down(self, downcall: Downcall) -> None:
        if (
            downcall.type is DowncallType.CAST
            and downcall.message is not None
            and self.view is not None
        ):
            self.my_seq += 1
            downcall.message.push_header(
                self.name,
                {
                    "kind": _DATA,
                    "vid": self.view.view_id.epoch,
                    "seq": self.my_seq,
                    "origin": self.endpoint,
                },
            )
            self.store[(self.endpoint, self.my_seq)] = downcall.message.shallow_copy()
        self.pass_down(downcall)

    # ------------------------------------------------------------------
    # Up: data, flush choreography, held views
    # ------------------------------------------------------------------

    def handle_up(self, upcall: Upcall) -> None:
        utype = upcall.type
        if utype is UpcallType.FLUSH:
            self._on_flush(upcall)
            return
        if utype is UpcallType.VIEW and upcall.view is not None:
            self._on_view(upcall)
            return
        if utype in (UpcallType.CAST, UpcallType.SEND) and upcall.message is not None:
            header = upcall.message.peek_header(self.name)
            if header is None:
                self.pass_up(upcall)
                return
            upcall.message.pop_header(self.name)
            kind = header["kind"]
            if kind == _DATA:
                self._on_data(header, upcall)
            elif kind == _VEC:
                self._on_vec(header)
            elif kind == _SYNC:
                self._on_sync(header)
            return
        self.pass_up(upcall)

    def _on_data(self, header: Dict, upcall: Upcall) -> None:
        if self.view is None or header["vid"] != self.view.view_id.epoch:
            self.stale_dropped += 1
            return
        origin, seq = header["origin"], header["seq"]
        if seq <= self.delivered.get(origin, 0):
            return  # duplicate (direct + relay)
        slot = self.pending.setdefault(origin, {})
        if seq in slot:
            return
        # Rebuild a storable copy (header re-pushed) for future relays.
        copy = upcall.message.copy()
        copy.push_header(self.name, dict(header))
        slot[seq] = (upcall, copy)
        self._drain(origin)
        self._try_release()

    def _drain(self, origin: EndpointAddress) -> None:
        slot = self.pending.get(origin)
        if not slot:
            return
        next_seq = self.delivered.get(origin, 0) + 1
        while next_seq in slot:
            upcall, copy = slot.pop(next_seq)
            self.delivered[origin] = next_seq
            self.store[(origin, next_seq)] = copy
            upcall.type = UpcallType.CAST  # relays arrive as SENDs
            self.pass_up(upcall)
            next_seq += 1

    def _on_flush(self, upcall: Upcall) -> None:
        self.flush_seen = True
        self.coordinator = upcall.source
        if self.view is not None and self.coordinator is not None:
            # Return the whole buffer: the obviously-correct cut.  The
            # coordinator dedups; MBRSHIP is the optimized fusion.
            for (origin, seq) in sorted(self.store, key=lambda k: (k[0], k[1])):
                self.pass_down(
                    Downcall(
                        DowncallType.SEND,
                        message=self.store[(origin, seq)].copy(),
                        members=[self.coordinator],
                    )
                )
            vector = dict(self.delivered)
            vector[self.endpoint] = self.my_seq
            self._control(
                _VEC,
                [self.coordinator],
                vid=self.view.view_id.epoch,
                origin=self.endpoint,
                vector=vector,
            )
        self.pass_up(upcall)

    def _on_vec(self, header: Dict) -> None:
        if self.view is None or header["vid"] != self.view.view_id.epoch:
            return
        self.vectors[header["origin"]] = dict(header["vector"])
        self._maybe_complete_cut()

    def _on_view(self, upcall: Upcall) -> None:
        new_view = upcall.view
        joiner = self.view is None or not self.view.contains(self.endpoint)
        if not self.flush_seen or joiner:
            # First view, or we are joining: nothing to cut.
            self._release(upcall)
            return
        self._held_view = upcall
        self._release_timer.start()
        self._maybe_complete_cut()
        self._try_release()

    def _maybe_complete_cut(self) -> None:
        """Coordinator side: compute and distribute the final vector."""
        if self._held_view is None or self.view is None:
            return
        new_view = self._held_view.view
        if new_view.members[0] != self.endpoint:
            return  # not the coordinator of the new view
        survivors = [m for m in new_view.members if self.view.contains(m)]
        if any(m not in self.vectors for m in survivors):
            return  # still waiting for vectors
        final: Dict[EndpointAddress, int] = {}
        for vector in (self.vectors[m] for m in survivors):
            for origin, count in vector.items():
                final[origin] = max(final.get(origin, 0), count)
        for member in survivors:
            vector = self.vectors[member]
            for (origin, seq) in sorted(self.store, key=lambda k: (k[0], k[1])):
                if vector.get(origin, 0) < seq <= final.get(origin, 0):
                    self.relays_sent += 1
                    self.pass_down(
                        Downcall(
                            DowncallType.SEND,
                            message=self.store[(origin, seq)].copy(),
                            members=[member],
                        )
                    )
            self._control(
                _SYNC,
                [member],
                vid=self.view.view_id.epoch,
                origin=self.endpoint,
                vector=final,
            )

    def _on_sync(self, header: Dict) -> None:
        if self.view is None or header["vid"] != self.view.view_id.epoch:
            return
        self.wait_vector = dict(header["vector"])
        self._try_release()

    def _try_release(self) -> None:
        if self._held_view is None or self.wait_vector is None:
            return
        members = set(self.view.members) if self.view else set()
        for origin, needed in self.wait_vector.items():
            if origin not in members and origin != self.endpoint:
                continue
            if self.delivered.get(origin, 0) < needed:
                return
        self.cuts_completed += 1
        self._release(self._held_view)

    def _force_release(self) -> None:
        if self._held_view is not None:
            self.trace("flush_cut_timeout")
            self._release(self._held_view)

    def _release(self, view_upcall: Upcall) -> None:
        """Install the new view upward and reset per-view state."""
        self.view = view_upcall.view
        self.my_seq = 0
        self.delivered = {}
        self.pending = {}
        self.store = {}
        self.vectors = {}
        self.wait_vector = None
        self.flush_seen = False
        self.coordinator = None
        self._held_view = None
        self._release_timer.cancel()
        self.pass_up(view_upcall)

    def _control(self, kind: int, targets: List[EndpointAddress], **fields) -> None:
        message = Message()
        header = {"kind": kind}
        header.update(fields)
        message.push_header(self.name, header)
        self.pass_down(
            Downcall(DowncallType.SEND, message=message, members=list(targets))
        )

    def dump(self):
        info = super().dump()
        info.update(
            my_seq=self.my_seq,
            holding_view=self._held_view is not None,
            cuts_completed=self.cuts_completed,
            relays_sent=self.relays_sent,
            stale_dropped=self.stale_dropped,
            store_size=len(self.store),
        )
        return info

"""SAFE — ORDER(safe): deliver only stable messages (Table 3).

"Safe delivery" (property P7) hands a message to the application only
once every member of the view holds a copy — so no delivered message
can ever be lost to a minority of crashes.  The layer composes with a
stability layer below (STABLE or PINWHEEL, property P14): it
acknowledges each message on receipt, waits for the stability frontier
to cover it, and releases messages in deterministic (origin rank,
stability id) order.

The price is latency (at least one stability-gossip round trip), which
is exactly the STABLE-vs-PINWHEEL trade Section 10 invites applications
to make.

Properties (Table 3): requires P3, P8, P9, P14, P15; provides P5, P7.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.events import Downcall, DowncallType, Upcall, UpcallType
from repro.core.layer import Layer
from repro.core.stack import register_layer
from repro.core.view import View
from repro.net.address import EndpointAddress


@register_layer
class SafeOrderLayer(Layer):
    """Holds deliveries until the stability layer confirms every member
    has the message (safe delivery, P7)."""

    name = "SAFE"

    def __init__(self, context, **config) -> None:
        super().__init__(context, **config)
        self.view: Optional[View] = None
        #: Held messages: (origin, sid) -> upcalls.  Several casts share
        #: one id when TOTAL packs them above STABLE.
        self._held: Dict[Tuple[EndpointAddress, int], List[Upcall]] = {}
        self._released: Dict[EndpointAddress, int] = {}
        self.delivered_safe = 0

    def handle_up(self, upcall: Upcall) -> None:
        utype = upcall.type
        if utype is UpcallType.VIEW and upcall.view is not None:
            self._release_all()  # VS below: every survivor holds the same set
            self.view = upcall.view
            self._released = {}
            self.pass_up(upcall)
            return
        if utype is UpcallType.STABLE:
            frontier = upcall.extra.get("frontier", {})
            self._release_stable(frontier)
            self.pass_up(upcall)
            return
        if utype is UpcallType.CAST and "stable_id" in upcall.extra:
            origin, sid = upcall.extra["stable_id"]
            self._held.setdefault((origin, sid), []).append(upcall)
            # "Processed" here means "safely received": ack immediately
            # so the frontier can advance without application help.
            self.pass_down(
                Downcall(
                    DowncallType.ACK, extra={"stable_id": (origin, sid)}
                )
            )
            return
        self.pass_up(upcall)

    def _release_stable(self, frontier: Dict[EndpointAddress, int]) -> None:
        """Release held messages covered by the frontier, in order."""
        ready: List[Tuple[int, int, Tuple[EndpointAddress, int]]] = []
        for (origin, sid) in self._held:
            if frontier.get(origin, 0) >= sid:
                rank = self.view.rank_of(origin) if self.view else 0
                ready.append((rank, sid, (origin, sid)))
        for _, _, key in sorted(ready):
            origin, sid = key
            self._released[origin] = max(self._released.get(origin, 0), sid)
            self._deliver(self._held.pop(key))

    def _release_all(self) -> None:
        """View change: everything still held is now safe by VS."""
        ready = sorted(
            self._held,
            key=lambda key: (
                self.view.rank_of(key[0]) if self.view and self.view.contains(key[0]) else 999,
                key[1],
            ),
        )
        for key in ready:
            self._deliver(self._held.pop(key))

    def _deliver(self, upcalls: List[Upcall]) -> None:
        for upcall in upcalls:
            upcall.extra["safe"] = True
            self.delivered_safe += 1
            self.pass_up(upcall)

    def dump(self):
        info = super().dump()
        info.update(held=sum(map(len, self._held.values())),
                    delivered_safe=self.delivered_safe)
        return info

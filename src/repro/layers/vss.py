"""VSS — virtually semi-synchronous delivery (Table 3).

A microprotocol over a consistent-views layer (BMS): it tags every cast
with the view it was sent in and (a) drops deliveries whose view tag
does not match the receiver's current view, and (b) holds new casts
while a flush is in progress, releasing them into the next view.  The
result is property P8 — messages are delivered only in the view they
were sent in — without the full same-set guarantee (that is the FLUSH
layer's job).
"""

from __future__ import annotations

from typing import List, Optional

from repro.core import headers as hdr
from repro.core.events import Downcall, DowncallType, Upcall, UpcallType
from repro.core.layer import Layer
from repro.core.stack import register_layer
from repro.core.view import View

hdr.register("VSS", wire_id=25, fields=[("vid", hdr.U32)])


@register_layer
class ViewSemiSyncLayer(Layer):
    """View-scoped delivery plus send-blocking during flushes (P8)."""

    name = "VSS"

    def __init__(self, context, **config) -> None:
        super().__init__(context, **config)
        self.view: Optional[View] = None
        self.blocked = False
        self._queued: List[Downcall] = []
        self.cross_view_dropped = 0

    def handle_down(self, downcall: Downcall) -> None:
        if downcall.type is DowncallType.CAST and downcall.message is not None:
            if self.view is None or self.blocked:
                self._queued.append(downcall)
                return
            downcall.message.push_header(
                self.name, {"vid": self.view.view_id.epoch}
            )
        self.pass_down(downcall)

    def handle_up(self, upcall: Upcall) -> None:
        if upcall.type is UpcallType.FLUSH:
            self.blocked = True  # a view change is in motion
            self.pass_up(upcall)
            return
        if upcall.type is UpcallType.VIEW and upcall.view is not None:
            self.view = upcall.view
            self.blocked = False
            self.pass_up(upcall)
            queued, self._queued = self._queued, []
            for downcall in queued:
                self.handle_down(downcall)
            return
        if upcall.type is UpcallType.CAST and upcall.message is not None:
            header = upcall.message.peek_header(self.name)
            if header is not None:
                upcall.message.pop_header(self.name)
                if self.view is None or header["vid"] != self.view.view_id.epoch:
                    self.cross_view_dropped += 1
                    return
        self.pass_up(upcall)

    def dump(self):
        info = super().dump()
        info.update(
            blocked=self.blocked,
            queued=len(self._queued),
            cross_view_dropped=self.cross_view_dropped,
        )
        return info

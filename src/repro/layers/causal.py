"""Causal ordering as two microprotocols (Table 3's ORDER(causal)).

Table 3 splits causality in two, and so do we, because it showcases the
paper's thesis that complex protocols decompose into stackable
microprotocols:

* :class:`CausalTimestampLayer` (``CAUSAL_TS``) stamps every cast with
  a vector timestamp — it *provides* property P13 (causal timestamps)
  and orders nothing.
* :class:`CausalOrderLayer` (``CAUSAL``) *requires* P13 from below and
  delays deliveries until their causal predecessors have been
  delivered — providing P5 (causal delivery).

Stack them as ``CAUSAL:CAUSAL_TS:MBRSHIP:...``.  Virtual synchrony
underneath makes the buffers safe: causality never crosses a view
boundary, and every causal predecessor of a delivered message is
guaranteed to arrive within the same view.
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

hdr.register(
    "CAUSAL_TS",
    fields=[("vc", hdr.MapOf(hdr.ADDRESS, hdr.U64))],
    defaults={"vc": {}},
)


@register_layer
class CausalTimestampLayer(Layer):
    """Pushes a vector timestamp on each cast (provides P13).

    The vector counts, per member, the casts this endpoint had received
    (or sent) when the message departed.  Over-approximation relative to
    what the application truly "saw" is safe: it can only strengthen the
    ordering the layer above enforces.
    """

    name = "CAUSAL_TS"

    def __init__(self, context, **config) -> None:
        super().__init__(context, **config)
        self.vc: Dict[EndpointAddress, int] = {}

    def handle_down(self, downcall: Downcall) -> None:
        if downcall.type is DowncallType.CAST and downcall.message is not None:
            self.vc[self.endpoint] = self.vc.get(self.endpoint, 0) + 1
            downcall.message.push_header(self.name, {"vc": dict(self.vc)})
        self.pass_down(downcall)

    def handle_up(self, upcall: Upcall) -> None:
        if upcall.type is UpcallType.VIEW and upcall.view is not None:
            self.vc = {}  # causality does not cross view boundaries
            self.pass_up(upcall)
            return
        if upcall.type is UpcallType.CAST and upcall.message is not None:
            header = upcall.message.peek_header(self.name)
            if header is not None:
                upcall.message.pop_header(self.name)
                source = upcall.source
                if source != self.endpoint:
                    self.vc[source] = self.vc.get(source, 0) + 1
                upcall.extra["vc"] = header["vc"]
        self.pass_up(upcall)

    def dump(self):
        info = super().dump()
        info.update(vc={str(k): v for k, v in self.vc.items()})
        return info


@register_layer
class CausalOrderLayer(Layer):
    """Delays deliveries until causal predecessors arrive (provides P5).

    Uses the P13 timestamps attached by a CAUSAL_TS layer below.  A
    message m from s is deliverable when ``vc_m[s] == delivered[s] + 1``
    and ``vc_m[t] <= delivered[t]`` for every other member t.  With
    TOTAL stacked between the two, the casts of one pack share a stamp:
    ``vc_m[s] == delivered[s]`` is then deliverable and counts nothing.
    """

    name = "CAUSAL"

    def __init__(self, context, **config) -> None:
        super().__init__(context, **config)
        self.view: Optional[View] = None
        self.delivered: Dict[EndpointAddress, int] = {}
        self._held: List[Tuple[Upcall, Dict[EndpointAddress, int]]] = []
        self.causally_delayed = 0

    def handle_up(self, upcall: Upcall) -> None:
        if upcall.type is UpcallType.VIEW and upcall.view is not None:
            self._flush_holds()
            self.view = upcall.view
            self.delivered = {}
            self.pass_up(upcall)
            return
        if upcall.type is not UpcallType.CAST or "vc" not in upcall.extra:
            self.pass_up(upcall)
            return
        vc = upcall.extra["vc"]
        if self._deliverable(upcall.source, vc):
            self._deliver(upcall, vc)
            self._retry_held()
        else:
            self.causally_delayed += 1
            self._held.append((upcall, vc))

    def _deliverable(
        self, source: EndpointAddress, vc: Dict[EndpointAddress, int]
    ) -> bool:
        for member, count in vc.items():
            if member == source:
                # The stamp already counted is a pack-mate's: TOTAL
                # between CAUSAL_TS and here sends a burst as one pack.
                if count - self.delivered.get(member, 0) not in (0, 1):
                    return False
            elif count > self.delivered.get(member, 0):
                return False
        return True

    def _deliver(self, upcall: Upcall, vc: Dict[EndpointAddress, int]) -> None:
        source = upcall.source
        seen = self.delivered.get(source, 0)
        self.delivered[source] = seen if vc.get(source) == seen else seen + 1
        self.pass_up(upcall)

    def _retry_held(self) -> None:
        progress = True
        while progress:
            progress = False
            for index, (upcall, vc) in enumerate(self._held):
                if self._deliverable(upcall.source, vc):
                    del self._held[index]
                    self._deliver(upcall, vc)
                    progress = True
                    break

    def _flush_holds(self) -> None:
        """Before a view change, release anything still held.

        With virtual synchrony below this cannot normally trigger; it
        defends against mis-stacked configurations, delivering in a
        deterministic order rather than dropping messages.
        """
        if not self._held:
            return
        self.trace("causal_flush_on_view", held=len(self._held))
        self._held.sort(key=lambda item: (str(item[0].source), sorted(item[1].values())))
        for upcall, vc in self._held:
            self.pass_up(upcall)
        self._held = []

    def dump(self):
        info = super().dump()
        info.update(
            held=len(self._held),
            causally_delayed=self.causally_delayed,
            delivered={str(k): v for k, v in self.delivered.items()},
        )
        return info

"""PRIO — prioritized effort delivery (property P2).

Reorders *deliveries* by priority: incoming messages are held for one
short batching window and released highest-priority-first.  Senders tag
casts via ``handle.cast(data, priority=5)``; untagged traffic gets the
default priority.

Note the property algebra consequence (Table 3 row): PRIO *destroys*
every ordering property (P3-P7) — by design, priority and FIFO are
mutually exclusive.  The well-formedness checker will flag stacks that
put ordering consumers above PRIO.
"""

from __future__ import annotations

import heapq
import itertools
from typing import List, Tuple

from repro.core import headers as hdr
from repro.core.events import Downcall, DowncallType, Upcall, UpcallType
from repro.core.layer import Layer
from repro.core.stack import register_layer

hdr.register("PRIO", wire_id=19, fields=[("priority", hdr.U8)])


@register_layer
class PriorityLayer(Layer):
    """Priority-ordered delivery with a small batching window.

    Config:
        default_priority (int): used when the sender gives none (default 4).
        window (float): batching delay in seconds (default 0.002).
            Larger windows reorder more aggressively at more latency.
    """

    name = "PRIO"

    def __init__(self, context, **config) -> None:
        super().__init__(context, **config)
        self.default_priority = int(config.get("default_priority", 4))
        self.window = float(config.get("window", 0.002))
        self._heap: List[Tuple[int, int, Upcall]] = []
        self._tiebreak = itertools.count()
        self._release_scheduled = False
        self.reordered = 0

    def handle_down(self, downcall: Downcall) -> None:
        if (
            downcall.type in (DowncallType.CAST, DowncallType.SEND)
            and downcall.message is not None
        ):
            priority = int(downcall.extra.get("priority", self.default_priority))
            downcall.message.push_header(
                self.name, {"priority": max(0, min(priority, 255))}
            )
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
        upcall.extra["priority"] = header["priority"]
        # Lower number = higher priority (heapq pops smallest first).
        heapq.heappush(
            self._heap, (header["priority"], next(self._tiebreak), upcall)
        )
        if not self._release_scheduled:
            self._release_scheduled = True
            self.context.scheduler.call_after(self.window, self._release)

    def _release(self) -> None:
        self._release_scheduled = False
        batch = len(self._heap)
        if batch > 1:
            self.reordered += batch
        while self._heap:
            _, _, upcall = heapq.heappop(self._heap)
            self.pass_up(upcall)

    def dump(self):
        info = super().dump()
        info.update(
            window=self.window, held=len(self._heap), reordered=self.reordered
        )
        return info

"""REALTIME — delivery deadlines (Figure 1: "real-time, guaranteed time bounds").

Senders attach a latency bound to each cast (``handle.cast(data,
deadline=0.05)`` or the layer's configured default); receivers check the
bound on delivery.  Two policies, per the two things real-time systems
do with late data:

* ``policy='drop'`` — late messages are worthless (sensor samples); they
  are discarded and counted.
* ``policy='flag'`` — late messages still matter but the application
  must know (``info["late"] = True``).

Section 11 lists "guarantees of throughput and low latency" as future
work requiring resource reservation; this layer supplies the
*observation* half (bound checking) that any such reservation scheme
needs, using the virtual clock shared by the simulation.
"""

from __future__ import annotations

from repro.core import headers as hdr
from repro.core.events import Downcall, DowncallType, Upcall, UpcallType
from repro.core.layer import Layer
from repro.core.stack import register_layer

hdr.register(
    "REALTIME", wire_id=20,
    fields=[("deadline", hdr.F64)],
)


@register_layer
class RealTimeLayer(Layer):
    """Deadline tagging and late-delivery handling.

    Config:
        bound (float): default latency bound in seconds (default 0.1).
        policy (str): "drop" (default) or "flag".
    """

    name = "REALTIME"

    def __init__(self, context, **config) -> None:
        super().__init__(context, **config)
        self.bound = float(config.get("bound", 0.1))
        self.policy = str(config.get("policy", "drop"))
        if self.policy not in ("drop", "flag"):
            raise ValueError(f"unknown policy {self.policy!r}")
        self.on_time = 0
        self.late = 0

    def handle_down(self, downcall: Downcall) -> None:
        if (
            downcall.type in (DowncallType.CAST, DowncallType.SEND)
            and downcall.message is not None
        ):
            bound = float(downcall.extra.get("deadline", self.bound))
            downcall.message.push_header(
                self.name, {"deadline": self.now + bound}
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
        if self.now <= header["deadline"]:
            self.on_time += 1
            self.pass_up(upcall)
            return
        self.late += 1
        if self.policy == "flag":
            upcall.extra["late"] = True
            upcall.extra["lateness"] = self.now - header["deadline"]
            self.pass_up(upcall)
        else:
            self.trace("deadline_missed", lateness=self.now - header["deadline"])

    def dump(self):
        info = super().dump()
        info.update(
            bound=self.bound, policy=self.policy,
            on_time=self.on_time, late=self.late,
        )
        return info

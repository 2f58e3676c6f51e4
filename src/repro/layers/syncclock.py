"""SYNC — clock synchronization (Figure 1: "synchronization, e.g. of clocks").

Every simulated process has its own drifting wall clock
(:meth:`repro.core.process.Process.local_time`).  The SYNC layer runs
Cristian's algorithm against the group coordinator: members
periodically ask the coordinator for its time, halve the measured round
trip, and maintain a smoothed offset estimate.  Applications read
:meth:`SyncClockLayer.synchronized_time` for a group-consistent clock.

Accuracy is bounded by round-trip asymmetry — on the simulated LAN
(symmetric sub-millisecond links) the residual error is microseconds,
which the tests assert.
"""

from __future__ import annotations

from typing import Optional

from repro.core import headers as hdr
from repro.core.events import Downcall, DowncallType, Upcall, UpcallType
from repro.core.layer import Layer
from repro.core.message import Message
from repro.core.stack import register_layer
from repro.core.view import View

_REQ = 0
_RESP = 1

hdr.register(
    "SYNC", wire_id=23,
    fields=[
        ("kind", hdr.U8),
        ("t0", hdr.F64),  # requester's clock at send (echoed back)
        ("server", hdr.F64),  # coordinator's clock at reply
    ],
    defaults={"t0": 0.0, "server": 0.0},
)


@register_layer
class SyncClockLayer(Layer):
    """Cristian's algorithm against the view coordinator.

    Config:
        period (float): synchronization round period (default 0.5 s).
        smoothing (float): EMA factor for the offset estimate, 0..1,
            higher = snappier (default 0.4).
    """

    name = "SYNC"

    def __init__(self, context, **config) -> None:
        super().__init__(context, **config)
        self.period = float(config.get("period", 0.5))
        self.smoothing = float(config.get("smoothing", 0.4))
        self.view: Optional[View] = None
        #: Current estimate of (coordinator clock - local clock).
        self.offset = 0.0
        self.synchronized = False
        self.rounds_completed = 0
        self._timer = None

    def start(self) -> None:
        self._timer = self.periodic(self.period, self._sync_round)
        self._timer.start()

    # ------------------------------------------------------------------

    def local_time(self) -> float:
        """This process's raw (drifting) clock."""
        process = self.context.process
        if process is None:
            return self.now
        return process.local_time()

    def synchronized_time(self) -> float:
        """The group-consistent clock: local time plus learned offset."""
        return self.local_time() + self.offset

    # ------------------------------------------------------------------

    def _coordinator(self):
        if self.view is None:
            return None
        return self.view.members[0]

    def _sync_round(self) -> None:
        coordinator = self._coordinator()
        if coordinator is None or coordinator == self.endpoint:
            # The coordinator is the time source by definition.
            self.offset = 0.0
            self.synchronized = self.view is not None
            return
        request = Message()
        request.push_header(
            self.name, {"kind": _REQ, "t0": self.local_time()}
        )
        self.pass_down(
            Downcall(DowncallType.SEND, message=request, members=[coordinator])
        )

    def handle_up(self, upcall: Upcall) -> None:
        if upcall.type is UpcallType.VIEW and upcall.view is not None:
            self.view = upcall.view
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
        if header["kind"] == _REQ:
            reply = Message()
            reply.push_header(
                self.name,
                {"kind": _RESP, "t0": header["t0"], "server": self.local_time()},
            )
            self.pass_down(
                Downcall(DowncallType.SEND, message=reply, members=[upcall.source])
            )
            return
        # A response: Cristian's estimate.
        t2 = self.local_time()
        rtt = t2 - header["t0"]
        if rtt < 0:
            return  # clock stepped mid-round; discard the sample
        estimate = header["server"] + rtt / 2.0 - t2
        if self.synchronized:
            self.offset += self.smoothing * (estimate - self.offset)
        else:
            self.offset = estimate
            self.synchronized = True
        self.rounds_completed += 1

    def dump(self):
        info = super().dump()
        info.update(
            offset=self.offset,
            synchronized=self.synchronized,
            rounds_completed=self.rounds_completed,
        )
        return info

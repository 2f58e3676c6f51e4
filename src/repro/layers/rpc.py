"""RPC — client/server interactions over a group (Figure 1).

The x-kernel comparison in Section 12 notes that "even simple
request-response style communication is not always easy to map down" to
a point-to-point composition framework; in Horus it is just another
layer.  RPCL matches requests to replies with correlation ids over the
group's reliable subset sends, adds timeout/retry, and — because the
group is the addressing unit — supports *anycast* calls served by
whichever member currently owns the role.

Application interface (via ``focus("RPC")``)::

    rpc = handle.focus("RPC")
    rpc.register_handler(lambda method, body, caller: body.upper())
    rpc.call(server_address, "echo", b"hi", on_reply=print)
"""

from __future__ import annotations

import zlib
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core import headers as hdr
from repro.core.events import Downcall, DowncallType, Upcall, UpcallType
from repro.core.layer import Layer
from repro.core.message import Message
from repro.core.stack import register_layer
from repro.net.address import EndpointAddress

_REQUEST = 0
_REPLY = 1
_ERROR = 2

hdr.register(
    "RPC", wire_id=21,
    fields=[
        ("kind", hdr.U8),
        ("call_id", hdr.U64),
        ("method", hdr.TEXT),
    ],
    defaults={"method": ""},
)

#: handler(method, body, caller) -> bytes (reply body) or raises.
RpcHandler = Callable[[str, bytes, EndpointAddress], bytes]
ReplyCallback = Callable[[Optional[bytes], Optional[str]], Any]


class _PendingCall:
    __slots__ = (
        "on_reply", "timer", "target", "method", "body", "retries", "anycast"
    )

    def __init__(
        self, on_reply, timer, target, method, body, retries, anycast=False
    ) -> None:
        self.on_reply = on_reply
        self.timer = timer
        self.target = target
        self.method = method
        self.body = body
        self.retries = retries
        self.anycast = anycast


@register_layer
class RpcLayer(Layer):
    """Correlated request/reply with timeout and retry.

    Config:
        timeout (float): per-attempt reply deadline (default 1.0 s).
        retries (int): re-sends before reporting failure (default 2).
    """

    name = "RPC"

    def __init__(self, context, **config) -> None:
        super().__init__(context, **config)
        self.timeout = float(config.get("timeout", 1.0))
        self.retries = int(config.get("retries", 2))
        self._next_call_id = 0
        self._pending: Dict[int, _PendingCall] = {}
        self._handler: Optional[RpcHandler] = None
        self._view = None
        self.calls_sent = 0
        self.replies_served = 0
        self.timeouts = 0

    # ------------------------------------------------------------------
    # Application surface (reached via the focus downcall)
    # ------------------------------------------------------------------

    def register_handler(self, handler: RpcHandler) -> None:
        """Install the server-side request handler for this member."""
        self._handler = handler

    def call(
        self,
        target: EndpointAddress,
        method: str,
        body: bytes,
        on_reply: ReplyCallback,
        _anycast: bool = False,
    ) -> int:
        """Invoke ``method`` on ``target``; ``on_reply(body, error)``
        fires exactly once (reply, error string, or ``'timeout'``)."""
        self._next_call_id += 1
        call_id = self._next_call_id
        timer = self.one_shot(self.timeout, self._on_timeout, call_id)
        self._pending[call_id] = _PendingCall(
            on_reply, timer, target, method, bytes(body), self.retries,
            anycast=_anycast,
        )
        self._transmit(call_id)
        return call_id

    def call_anycast(
        self, method: str, body: bytes, on_reply: ReplyCallback
    ) -> Optional[int]:
        """Invoke ``method`` on whichever member currently serves it.

        The server is the view member whose rank is ``hash(method)``
        modulo the group size — every member computes the same owner
        (consistent views, P15), so role assignment needs no directory.
        When the owner crashes, the next view re-maps the role and the
        retry machinery redirects automatically.
        """
        target = self.anycast_owner(method)
        if target is None:
            on_reply(None, "no view yet")
            return None
        return self.call(target, method, body, on_reply, _anycast=True)

    def anycast_owner(self, method: str):
        """The member currently responsible for ``method`` (or None)."""
        if self._view is None or self._view.size == 0:
            return None
        rank = zlib.crc32(method.encode("utf-8")) % self._view.size
        return self._view.members[rank]

    def _transmit(self, call_id: int) -> None:
        pending = self._pending.get(call_id)
        if pending is None:
            return
        request = Message(pending.body)
        request.push_header(
            self.name,
            {"kind": _REQUEST, "call_id": call_id, "method": pending.method},
        )
        self.calls_sent += 1
        self.pass_down(
            Downcall(DowncallType.SEND, message=request, members=[pending.target])
        )
        pending.timer.start()

    def _on_timeout(self, call_id: int) -> None:
        pending = self._pending.get(call_id)
        if pending is None:
            return
        if pending.retries > 0:
            pending.retries -= 1
            # Anycast calls re-map to the method's current owner when
            # the original target left the view; direct-addressed calls
            # keep their target (the caller chose it explicitly).
            if (
                pending.anycast
                and self._view is not None
                and not self._view.contains(pending.target)
            ):
                owner = self.anycast_owner(pending.method)
                if owner is not None:
                    pending.target = owner
            self._transmit(call_id)
            return
        del self._pending[call_id]
        self.timeouts += 1
        pending.on_reply(None, "timeout")

    # ------------------------------------------------------------------
    # Wire handling
    # ------------------------------------------------------------------

    def handle_up(self, upcall: Upcall) -> None:
        if upcall.type is UpcallType.VIEW and upcall.view is not None:
            self._view = upcall.view
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
        kind = header["kind"]
        if kind == _REQUEST:
            self._serve(header, message, upcall.source)
        else:
            self._complete(header, message, kind)

    def _serve(self, header: Dict[str, Any], message: Message,
               caller: EndpointAddress) -> None:
        if self._handler is None:
            self._respond(caller, header["call_id"], _ERROR, b"no handler")
            return
        try:
            reply_body = self._handler(
                header["method"], message.body_bytes(), caller
            )
            self.replies_served += 1
            self._respond(caller, header["call_id"], _REPLY, bytes(reply_body))
        except Exception as exc:  # the error crosses the wire, typed
            self._respond(
                caller, header["call_id"], _ERROR, str(exc).encode("utf-8")
            )

    def _respond(self, caller, call_id: int, kind: int, body: bytes) -> None:
        reply = Message(body)
        reply.push_header(self.name, {"kind": kind, "call_id": call_id})
        self.pass_down(
            Downcall(DowncallType.SEND, message=reply, members=[caller])
        )

    def _complete(self, header: Dict[str, Any], message: Message, kind: int) -> None:
        pending = self._pending.pop(header["call_id"], None)
        if pending is None:
            return  # duplicate reply after a retry — already answered
        pending.timer.cancel()
        if kind == _REPLY:
            pending.on_reply(message.body_bytes(), None)
        else:
            pending.on_reply(None, message.body_bytes().decode("utf-8"))

    def dump(self):
        info = super().dump()
        info.update(
            pending=len(self._pending),
            calls_sent=self.calls_sent,
            replies_served=self.replies_served,
            timeouts=self.timeouts,
        )
        return info

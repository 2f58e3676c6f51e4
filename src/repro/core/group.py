"""The application-facing group handle.

Section 2: "The top-most module is the only one to deviate from the
Horus interface standard: it converts the Horus protocol abstraction
into one matching the needs and expectations of a user."  The
:class:`GroupHandle` is that top-most module: it turns method calls
into downcalls and upcalls into Python callbacks (or a pollable inbox).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional

from repro.core.events import (
    Downcall,
    DowncallType,
    FlowVerdict,
    Upcall,
    UpcallType,
)
from repro.core.message import Message
from repro.core.stack import Stack
from repro.core.view import View
from repro.errors import GroupError
from repro.net.address import EndpointAddress, GroupAddress


@dataclass
class DeliveredMessage:
    """One message as delivered to the application.

    Attributes:
        data: the flattened message body.
        source: the sending endpoint.
        was_cast: True for multicasts, False for subset sends.
        view: the view in which the message was delivered (None for
            stacks without a membership layer).
        info: extra per-message facts contributed by layers on the way
            up — e.g. ``stable_id`` from the STABLE layer (pass it to
            :meth:`GroupHandle.ack`) or ``total_seq`` from TOTAL.
        message: the underlying message object.
    """

    data: bytes
    source: EndpointAddress
    was_cast: bool
    view: Optional[View]
    info: Dict[str, Any] = field(default_factory=dict)
    message: Optional[Message] = None


class GroupHandle:
    """A joined group, as seen by the application.

    Created by :meth:`repro.core.endpoint.Endpoint.join`; do not
    construct directly.  Callbacks are invoked from the event loop:

    * ``on_message(delivered)`` for each incoming cast/send (if absent,
      messages accumulate in :attr:`inbox` for :meth:`receive`),
    * ``on_view(view)`` for each view installation,
    * ``on_stable(matrix)`` for stability updates,
    * ``on_problem(member)`` for communication-problem reports,
    * ``on_exit()`` when the endpoint has fully left the group.
    """

    def __init__(
        self,
        endpoint_address: EndpointAddress,
        group: GroupAddress,
        on_message: Optional[Callable[[DeliveredMessage], None]] = None,
        on_view: Optional[Callable[[View], None]] = None,
        on_stable: Optional[Callable[[Dict[Any, Any]], None]] = None,
        on_problem: Optional[Callable[[EndpointAddress], None]] = None,
        on_exit: Optional[Callable[[], None]] = None,
    ) -> None:
        self.endpoint_address = endpoint_address
        self.group = group
        self.on_message = on_message
        self.on_view = on_view
        self.on_stable = on_stable
        self.on_problem = on_problem
        self.on_exit = on_exit
        #: Pollable message queue, used when ``on_message`` is not given.
        self.inbox: Deque[DeliveredMessage] = deque()
        #: The most recently installed view (None before the first VIEW).
        self.view: Optional[View] = None
        #: All views this member has installed, in order.
        self.view_history: List[View] = []
        #: All messages delivered, in delivery order (for verification).
        self.delivery_log: List[DeliveredMessage] = []
        self.left = False
        self._stack: Optional[Stack] = None

    # ------------------------------------------------------------------
    # Wiring (called by Endpoint)
    # ------------------------------------------------------------------

    def attach_stack(self, stack: Stack) -> None:
        """Connect the protocol stack under this handle."""
        self._stack = stack

    @property
    def stack(self) -> Stack:
        """The protocol stack beneath this handle."""
        if self._stack is None:
            raise GroupError("group handle has no stack attached")
        return self._stack

    # ------------------------------------------------------------------
    # Downcalls (Table 1, application side)
    # ------------------------------------------------------------------

    def cast(self, data: bytes, **info: Any) -> Optional[FlowVerdict]:
        """Multicast ``data`` to the group's current view.

        Extra keyword arguments ride down with the call for layers that
        understand them (e.g. ``priority=3`` for a PRIO layer).

        Returns the :class:`~repro.core.events.FlowVerdict` stamped by a
        flow-control layer (``None`` when no such layer is stacked, or
        from inside an upcall handler: the stack admits the cast when
        the handler returns).  A ``SHED``/``BLOCKED`` verdict means the
        message will not be sent; the caller decides whether to retry,
        back off, or drop.

        Under TOTAL the cast leaves at the end of the turn that made it
        (from outside the stack, one scheduler step after this returns),
        in one ordered message with the other casts of that turn; a
        CREDIT verdict is still returned here, synchronously.
        """
        self._check_open()
        message = Message(bytes(data))
        downcall = Downcall(DowncallType.CAST, message=message, extra=info)
        self.stack.down(downcall)
        return downcall.extra.get("flow_verdict")

    def send(
        self, members: List[EndpointAddress], data: bytes
    ) -> Optional[FlowVerdict]:
        """Send ``data`` to a subset of the view.

        Returns the flow verdict, like :meth:`cast`.
        """
        self._check_open()
        if not members:
            raise GroupError("send needs at least one destination")
        message = Message(bytes(data))
        downcall = Downcall(
            DowncallType.SEND, message=message, members=list(members)
        )
        self.stack.down(downcall)
        return downcall.extra.get("flow_verdict")

    def ack(self, delivered: DeliveredMessage) -> None:
        """Tell the stability layer this message ``has been processed``.

        This is the paper's ``horus_ack(m)`` end-to-end mechanism
        (Section 9): what "processed" means — displayed, logged, safe to
        delete — is entirely up to the application.
        """
        self._check_open()
        stable_id = delivered.info.get("stable_id")
        if stable_id is None:
            raise GroupError(
                "message carries no stable_id; is a STABLE/PINWHEEL layer stacked?"
            )
        self.stack.down(
            Downcall(DowncallType.ACK, extra={"stable_id": stable_id})
        )

    def set_destinations(self, members: List[EndpointAddress]) -> None:
        """Manually install a destination set (the ``view`` downcall).

        For stacks *without* a membership layer, "a view ... is nothing
        but the set of destination endpoints for multicast messages"
        (Section 7); this is how the application supplies it.
        """
        self._check_open()
        self.stack.down(Downcall(DowncallType.VIEW, members=list(members)))

    def merge_with(self, contact: EndpointAddress) -> None:
        """Ask the membership layer to merge our view with ``contact``'s."""
        self._check_open()
        self.stack.down(
            Downcall(DowncallType.MERGE, extra={"contact": contact})
        )

    def leave(self) -> None:
        """Leave the group gracefully."""
        if self.left:
            return
        self.stack.down(Downcall(DowncallType.LEAVE))

    def dump(self) -> List[Dict[str, Any]]:
        """The ``dump`` downcall: introspection of every layer."""
        return self.stack.dump()

    def focus(self, layer_name: str, topmost: bool = False):
        """The ``focus`` downcall: a handle on one layer by name.

        Raises when the name is ambiguous unless ``topmost=True``; see
        :meth:`repro.core.stack.Stack.focus`.
        """
        return self.stack.focus(layer_name, topmost=topmost)

    def focus_all(self, layer_name: str):
        """Every instance of one layer, top first (may be empty)."""
        return self.stack.focus_all(layer_name)

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------

    def receive(self) -> Optional[DeliveredMessage]:
        """Pop the next delivered message, or ``None`` if the inbox is empty."""
        if self.inbox:
            return self.inbox.popleft()
        return None

    def deliver_upcall(self, upcall: Upcall) -> None:
        """Stack exit point: translate upcalls into application effects."""
        if upcall.type in (UpcallType.CAST, UpcallType.SEND):
            delivered = DeliveredMessage(
                data=upcall.message.body_bytes() if upcall.message else b"",
                source=upcall.source,
                was_cast=upcall.type is UpcallType.CAST,
                view=self.view,
                info=dict(upcall.extra),
                message=upcall.message,
            )
            self.delivery_log.append(delivered)
            if self.on_message is not None:
                self.on_message(delivered)
            else:
                self.inbox.append(delivered)
        elif upcall.type is UpcallType.VIEW:
            self.view = upcall.view
            if upcall.view is not None:
                self.view_history.append(upcall.view)
            if self.on_view is not None and upcall.view is not None:
                self.on_view(upcall.view)
        elif upcall.type is UpcallType.STABLE:
            if self.on_stable is not None:
                self.on_stable(upcall.extra.get("matrix", {}))
        elif upcall.type is UpcallType.PROBLEM:
            if self.on_problem is not None and upcall.source is not None:
                self.on_problem(upcall.source)
        elif upcall.type is UpcallType.EXIT:
            self.left = True
            self.stack.stop()
            if self.on_exit is not None:
                self.on_exit()
        # LOST_MESSAGE, MERGE_REQUEST/DENIED, FLUSH, FLUSH_OK, LEAVE,
        # DESTROY, SYSTEM_ERROR are informational at the application
        # edge; they are observable via the delivery/trace logs.

    def _check_open(self) -> None:
        if self.left:
            raise GroupError(f"endpoint has left group {self.group}")

    def __repr__(self) -> str:
        state = "left" if self.left else "joined"
        return f"<GroupHandle {self.endpoint_address} in {self.group} ({state})>"

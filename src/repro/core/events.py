"""The Horus Common Protocol Interface (HCPI) event vocabulary.

Tables 1 and 2 of the paper define the complete sets of downcalls and
upcalls.  Every layer speaks exactly this interface on both its top and
bottom edges — that uniformity is what lets layers stack in any order
"like LEGO blocks".

Downcalls travel toward the network, upcalls toward the application.
Both are small value objects; layers either handle them, transform
them, or pass them through unchanged.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, TYPE_CHECKING

from repro.core.message import Message
from repro.net.address import EndpointAddress

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.view import View


class DowncallType(enum.Enum):
    """Table 1: the complete HCPI downcall set."""

    ENDPOINT = "endpoint"  # create a communication endpoint
    JOIN = "join"  # join group and return handle
    MERGE = "merge"  # merge with other view
    MERGE_DENIED = "merge_denied"  # deny merge request
    MERGE_GRANTED = "merge_granted"  # grant merge request
    VIEW = "view"  # install a group view
    CAST = "cast"  # multicast a message
    SEND = "send"  # send message to subset
    ACK = "ack"  # acknowledge a message
    STABLE = "stable"  # message is stable
    LEAVE = "leave"  # leave group
    FLUSH = "flush"  # remove members and flush
    FLUSH_OK = "flush_ok"  # go along with flush
    DESTROY = "destroy"  # clean up endpoint
    FOCUS = "focus"  # focus on layer and return handle
    DUMP = "dump"  # dump layer information


class FlowVerdict(enum.Enum):
    """Outcome of a CAST/SEND downcall under flow control.

    Not a new HCPI call — Tables 1 and 2 are the paper's frozen
    vocabulary — but a verdict a flow-control layer stamps into
    ``Downcall.extra["flow_verdict"]`` on the way down, so backpressure
    propagates up to the caller instead of vanishing into an unbounded
    queue.  :meth:`~repro.core.group.GroupHandle.cast` returns it.
    """

    ACCEPTED = "accepted"  # charged and passed down immediately
    QUEUED = "queued"  # held in the bounded queue awaiting credit
    SHED = "shed"  # dropped by the shed policy (will never be sent)
    BLOCKED = "blocked"  # refused outright; the caller should retry later


class UpcallType(enum.Enum):
    """Table 2: the complete HCPI upcall set."""

    MERGE_REQUEST = "merge_request"  # request to merge
    MERGE_DENIED = "merge_denied"  # request denied
    FLUSH = "flush"  # view flush started
    FLUSH_OK = "flush_ok"  # flush completed
    VIEW = "view"  # view installation
    CAST = "cast"  # received multicast message
    SEND = "send"  # received subset message
    LEAVE = "leave"  # member leaves
    DESTROY = "destroy"  # endpoint destroyed
    LOST_MESSAGE = "lost_message"  # message was lost
    STABLE = "stable"  # stability update
    PROBLEM = "problem"  # communication problem
    SYSTEM_ERROR = "system_error"  # system error report
    EXIT = "exit"  # close down event


@dataclass(slots=True)
class Downcall:
    """One downcall travelling toward the network.

    Only the fields relevant to the call type are populated; the rest
    stay ``None`` (the HCPI is a narrow waist, not a kitchen sink).
    """

    type: DowncallType
    message: Optional[Message] = None
    #: Destination subset for SEND; member list for VIEW/FLUSH.
    members: Optional[List[EndpointAddress]] = None
    view: Optional["View"] = None
    #: Extra call-specific data (e.g. a merge contact address).
    extra: Dict[str, Any] = field(default_factory=dict)

    def __repr__(self) -> str:
        bits = [self.type.name]
        if self.message is not None:
            bits.append(repr(self.message))
        if self.members is not None:
            bits.append(f"members={[str(m) for m in self.members]}")
        return f"<Downcall {' '.join(bits)}>"


@dataclass(slots=True)
class Upcall:
    """One upcall travelling toward the application."""

    type: UpcallType
    message: Optional[Message] = None
    source: Optional[EndpointAddress] = None
    members: Optional[List[EndpointAddress]] = None
    view: Optional["View"] = None
    #: Extra call-specific data (e.g. a stability matrix, an error reason).
    extra: Dict[str, Any] = field(default_factory=dict)

    def __repr__(self) -> str:
        bits = [self.type.name]
        if self.source is not None:
            bits.append(f"from={self.source}")
        if self.message is not None:
            bits.append(repr(self.message))
        if self.view is not None:
            bits.append(repr(self.view))
        return f"<Upcall {' '.join(bits)}>"


def cast_down(message: Message) -> Downcall:
    """Shorthand for the hot-path CAST downcall."""
    return Downcall(DowncallType.CAST, message=message)


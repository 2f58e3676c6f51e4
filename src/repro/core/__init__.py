"""The Horus object model and Common Protocol Interface.

Section 3 of the paper: Horus provides four classes of objects —
endpoints, groups, messages, and threads.  Here:

* :class:`~repro.core.endpoint.Endpoint` — the communicating entity.
* :class:`~repro.core.group.GroupHandle` — the application's view of a
  joined group (the local "group object").
* :class:`~repro.core.message.Message` — header push/pop plus iovec body.
* :class:`~repro.core.process.World` / ``Process`` — the event-queue
  execution model standing in for Horus threads.

Plus the composition machinery: :class:`~repro.core.layer.Layer` (the
protocol abstract data type), :class:`~repro.core.stack.Stack`
(run-time LEGO stacking), and the HCPI event vocabulary in
:mod:`repro.core.events` (Tables 1 and 2).
"""

from repro.core.endpoint import DEFAULT_STACK, Endpoint
from repro.core.events import (
    Downcall,
    DowncallType,
    FlowVerdict,
    Upcall,
    UpcallType,
    cast_down,
)
from repro.core.group import DeliveredMessage, GroupHandle
from repro.core.headers import (
    DEFAULT_REGISTRY,
    HeaderCodec,
    HeaderRegistry,
    packed_bit_size,
)
from repro.core.layer import Layer, LayerContext
from repro.core.message import Message
from repro.core.process import GuardedScheduler, Process, World
from repro.core.stack import (
    Stack,
    StackConfig,
    format_stack_spec,
    known_layers,
    parse_stack_spec,
    register_layer,
)
from repro.core.view import View, ViewId

__all__ = [
    "DEFAULT_REGISTRY",
    "DEFAULT_STACK",
    "DeliveredMessage",
    "Downcall",
    "DowncallType",
    "FlowVerdict",
    "Endpoint",
    "GroupHandle",
    "GuardedScheduler",
    "HeaderCodec",
    "HeaderRegistry",
    "Layer",
    "LayerContext",
    "Message",
    "Process",
    "Stack",
    "StackConfig",
    "Upcall",
    "UpcallType",
    "View",
    "ViewId",
    "World",
    "cast_down",
    "format_stack_spec",
    "known_layers",
    "packed_bit_size",
    "parse_stack_spec",
    "register_layer",
]

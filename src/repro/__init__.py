"""Reproduction of "A Framework for Protocol Composition in Horus".

(van Renesse, Birman, Friedman, Hayden, Karr — PODC 1995.)

Horus treats a communication protocol as an abstract data type: a layer
with standardized top and bottom interfaces, stackable at run time like
LEGO blocks.  This package reproduces the whole system in Python over a
deterministic discrete-event simulation:

* :mod:`repro.core` — the object model (endpoints, groups, messages)
  and the Horus Common Protocol Interface (HCPI).
* :mod:`repro.layers` — the protocol library: COM, NAK, FRAG, MBRSHIP,
  TOTAL, STABLE, and the rest of the paper's Figure 1 / Table 3 set.
* :mod:`repro.properties` — Tables 3 and 4 as an executable algebra:
  well-formedness checking and stack synthesis.
* :mod:`repro.net` / :mod:`repro.sim` — simulated networks (ATM, UDP,
  LAN) and the event-queue execution substrate.
* :mod:`repro.runtime` — the real-time execution substrate: a
  wall-clock asyncio engine and an OS-UDP transport behind the same
  seams, so the identical stacks serve real traffic
  (:class:`RealtimeWorld` is the drop-in sibling of :class:`World`).
* :mod:`repro.membership` — directory, failure detectors, and the
  Section 9 partition policies.
* :mod:`repro.verify` — executable specifications (the reference-
  implementation methodology of Section 8).
* :mod:`repro.chaos` — declarative, seed-deterministic failure
  scenarios over the unified :class:`FaultPlane`, verified against the
  executable specs and shrinkable to minimal repros.
* :mod:`repro.toolkit` — the Isis-like tools of Section 1: replicated
  state machines and data, locks, primary-backup, load balancing, and
  guaranteed execution.

Quickstart::

    from repro import World

    world = World(seed=1)
    a = world.process("a").endpoint()
    b = world.process("b").endpoint()
    ga = a.join("chat", stack="MBRSHIP:FRAG:NAK:COM")
    gb = b.join("chat", stack="MBRSHIP:FRAG:NAK:COM")
    world.run(2.0)                    # let membership settle
    ga.cast(b"hello group")
    world.run(1.0)
    print(gb.receive().data)          # b'hello group'
"""

from repro._lazy import lazy_exports
from repro.core import (
    DEFAULT_STACK,
    DeliveredMessage,
    Downcall,
    DowncallType,
    Endpoint,
    FlowVerdict,
    GroupHandle,
    Layer,
    LayerContext,
    Message,
    Process,
    Stack,
    StackConfig,
    Upcall,
    UpcallType,
    View,
    ViewId,
    World,
    known_layers,
    parse_stack_spec,
)
from repro.net import EndpointAddress, FaultModel, GroupAddress
from repro.obs import MetricsRegistry, ObsOptions, SpanRecorder

_LAZY_EXPORTS = {
    # Realtime substrate: loaded on first touch so `import repro` stays
    # light and asyncio-free for pure-simulation users.
    "RealtimeEngine": "repro.runtime.engine",
    "RealtimeWorld": "repro.runtime.world",
    "UdpTransport": "repro.runtime.transport",
    # Chaos engine: same treatment — most users never soak.
    "FaultPlane": "repro.chaos",
    "Scenario": "repro.chaos",
    "ScenarioRunner": "repro.chaos",
    "generate_scenario": "repro.chaos",
    "shrink_scenario": "repro.chaos",
}


__getattr__, __dir__ = lazy_exports(__name__, _LAZY_EXPORTS)

__version__ = "1.0.0"

__all__ = [
    "DEFAULT_STACK",
    "DeliveredMessage",
    "Downcall",
    "DowncallType",
    "Endpoint",
    "EndpointAddress",
    "FaultModel",
    "FaultPlane",
    "FlowVerdict",
    "GroupAddress",
    "GroupHandle",
    "Layer",
    "LayerContext",
    "Message",
    "MetricsRegistry",
    "ObsOptions",
    "Process",
    "RealtimeEngine",
    "RealtimeWorld",
    "Scenario",
    "ScenarioRunner",
    "SpanRecorder",
    "Stack",
    "StackConfig",
    "UdpTransport",
    "Upcall",
    "UpcallType",
    "View",
    "ViewId",
    "World",
    "__version__",
    "generate_scenario",
    "known_layers",
    "parse_stack_spec",
    "shrink_scenario",
]

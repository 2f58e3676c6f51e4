"""The protocol-layer abstract data type.

This is the paper's central abstraction: "a protocol as an abstract
data type: a software module with standardized top and bottom
interfaces" (Section 1).  Every layer receives :class:`Downcall` events
from above via :meth:`Layer.down` and :class:`Upcall` events from below
via :meth:`Layer.up`; the default implementation of each is a pure
pass-through, so a layer only writes code for the events it transforms.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field as dataclass_field
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.core.events import Downcall, Upcall
from repro.core.headers import DEFAULT_REGISTRY, HeaderRegistry
from repro.errors import HeaderError
from repro.net.address import EndpointAddress, GroupAddress
from repro.net.network import Network
from repro.obs import MetricsRegistry, ObsOptions, SpanRecorder
from repro.runtime.clock import PeriodicTimer, Timer
from repro.sim.trace import TraceRecorder


@dataclass
class LayerContext:
    """Everything a layer instance may need from its environment.

    One context is shared by all layers of one (endpoint, group) stack.
    Layers must reach the outside world only through the context; that
    is what keeps them composable and testable in isolation.
    """

    #: A :class:`repro.runtime.clock.Clock` (usually behind a
    #: process-guarded proxy): virtual time on the DES, wall-clock time
    #: on the realtime engine.  Layers must not assume which.
    scheduler: Any
    #: Anything satisfying the network attach/unicast/multicast contract
    #: (:class:`repro.net.network.Network` or
    #: :class:`repro.runtime.transport.UdpTransport`).
    network: Network
    endpoint: EndpointAddress
    group: GroupAddress
    rng: random.Random
    trace: TraceRecorder
    registry: HeaderRegistry = dataclass_field(default_factory=lambda: DEFAULT_REGISTRY)
    wire_mode: str = "aligned"
    directory: Any = None  # membership.GroupDirectory, if the world has one
    process: Any = None  # owning Process, for liveness checks
    #: Cross-layer blackboard for one stack (e.g. KEYDIST publishes the
    #: group key source here for a CRYPT layer lower in the stack).
    shared: Dict[str, Any] = dataclass_field(default_factory=dict)
    #: The world's shared metrics registry (``None`` for bare contexts;
    #: network counters and the per-layer seam both feed it).
    metrics: Optional[MetricsRegistry] = None
    #: The world's message-path span recorder, if it keeps one.
    spans: Optional[SpanRecorder] = None
    #: The world's durable-store domain
    #: (:class:`~repro.store.store.MemoryStoreDomain` on the DES,
    #: :class:`~repro.store.store.FileStoreDomain` on the realtime
    #: substrate; ``None`` for bare contexts).  Layers obtain their own
    #: store with ``context.store.store(node, namespace)``.
    store: Any = None
    #: What the world observes; a stack built on this context installs
    #: a :class:`~repro.obs.StackObserver` only when it asks for any.
    obs: ObsOptions = dataclass_field(default_factory=ObsOptions)

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self.scheduler.now


#: A stack is idle, carrying a traversal down or up, or running a
#: timer/callback body (every crossing made from one turns around).
IDLE, DOWN, UP, BODY = range(4)


class Turn:
    """One stack's run-to-completion discipline (Section 3: "one logical
    scheduling thread", events queued at layer entry points).

    The rule: *a layer is never entered while its own code is on the
    call stack*.  A crossing that continues the running traversal's
    direction is a plain call and never comes here.  One that turns
    around (an upcall made while a downcall is being handled, or the
    reverse), and every crossing made from a timer or callback body,
    waits in the FIFO until the handler that made it has returned.
    Whoever finds the stack idle is the outermost entry and drains the
    FIFO before returning: no scheduler event is spent on dispatch.
    """

    __slots__ = ("direction", "undecodable", "_queue")

    def __init__(self) -> None:
        self.direction = IDLE
        #: Crossings abandoned on a corrupt lazily-decoded header.
        self.undecodable = 0
        self._queue: Deque[Tuple[Callable[..., Any], int, tuple]] = deque()

    def cross(self, fn: Callable[..., Any], direction: int, *args: Any) -> None:
        """Run ``fn(*args)`` now if the stack is idle, else after the
        running handler; either way before the outermost entry returns."""
        if self.direction != IDLE:
            self._queue.append((fn, direction, args))
            return
        queue = self._queue
        self.direction = direction
        try:
            try:
                fn(*args)
            except HeaderError:
                # Hostile bytes come from below; an application downcall
                # that cannot encode is for the application to see.
                if direction != UP:
                    raise
                self.undecodable += 1
            while queue:
                fn, self.direction, args = queue.popleft()
                try:
                    fn(*args)
                except HeaderError:
                    self.undecodable += 1
        finally:
            # Any other exception unwinds to the outermost caller as it
            # would out of nested calls, the unrun remainder with it.
            queue.clear()
            self.direction = IDLE


class Layer:
    """Base class for all protocol layers.

    Subclasses override :meth:`handle_down` and/or :meth:`handle_up` for
    the events they care about and call :meth:`pass_down` /
    :meth:`pass_up` to forward everything else.  The framework wires
    ``above`` and ``below`` when the stack is composed.

    Class attributes:
        name: the layer's registry name (also its header tag).
    """

    name = "LAYER"

    def __init__(self, context: LayerContext, **config: Any) -> None:
        self.context = context
        self.config = config
        self.above: Optional["Layer"] = None
        self.below: Optional["Layer"] = None
        self._turn = Turn()  # the stack's shared one, once wired
        self._timers: List[Any] = []
        self.stopped = False

    # ------------------------------------------------------------------
    # The HCPI edges (a StackObserver shadows both when asked to observe)
    # ------------------------------------------------------------------

    def down(self, downcall: Downcall) -> None:
        """Entry point for downcalls from the layer above."""
        if not self.stopped:
            self.handle_down(downcall)

    def up(self, upcall: Upcall) -> None:
        """Entry point for upcalls from the layer below."""
        if not self.stopped:
            self.handle_up(upcall)

    def handle_down(self, downcall: Downcall) -> None:
        """Override to process downcalls; default is pass-through."""
        self.pass_down(downcall)

    def handle_up(self, upcall: Upcall) -> None:
        """Override to process upcalls; default is pass-through."""
        self.pass_up(upcall)

    def pass_down(self, downcall: Downcall) -> None:
        """Forward a downcall to the layer below (see :class:`Turn`)."""
        if self._turn.direction == DOWN:
            self.below.down(downcall)
        else:
            self._turn.cross(self.below.down, DOWN, downcall)

    def pass_up(self, upcall: Upcall) -> None:
        """Forward an upcall to the layer above (see :class:`Turn`)."""
        if self._turn.direction == UP:
            self.above.up(upcall)
        else:
            self._turn.cross(self.above.up, UP, upcall)

    def _enter(self, callback: Callable[..., Any], *args: Any) -> None:
        """Run layer code the outside was handed (timer, scheduled call,
        subscription, completion callback) as part of a turn."""
        self._turn.cross(callback, BODY, *args)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Called once after the stack is fully wired; start timers here."""

    def stop(self) -> None:
        """Shut the layer down; cancels every timer it created."""
        self.stopped = True
        for timer in self._timers:
            if isinstance(timer, Timer):
                timer.cancel()
            else:
                timer.stop()
        self._timers.clear()

    def _collectors(self) -> List[Callable[[], None]]:
        """Export-time collectors over this layer's own state (see
        :meth:`~repro.obs.MetricsRegistry.add_collector`): levels are
        computed when the registry is read, never on a per-message path.
        The stack registers them while it runs and removes them when it
        stops."""
        return []

    # ------------------------------------------------------------------
    # Conveniences for subclasses
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self.context.now

    @property
    def endpoint(self) -> EndpointAddress:
        """This stack's endpoint address."""
        return self.context.endpoint

    @property
    def group(self) -> GroupAddress:
        """This stack's group address."""
        return self.context.group

    def one_shot(self, interval: float, callback: Callable[..., Any], *args: Any) -> Timer:
        """Create a (not yet armed) restartable one-shot timer."""
        timer = Timer(self.context.scheduler, interval, self._enter, callback, *args)
        self._timers.append(timer)
        return timer

    def periodic(self, period: float, callback: Callable[..., Any], *args: Any) -> PeriodicTimer:
        """Create a (not yet started) periodic timer."""
        timer = PeriodicTimer(
            self.context.scheduler, period, self._enter, callback, *args
        )
        self._timers.append(timer)
        return timer

    def trace(self, category: str, **detail: Any) -> None:
        """Record a trace event attributed to this layer's endpoint.

        Returns at once while the world's trace is off, so call sites
        pass raw values and need no guard: addresses, alone or in a
        list, are recorded as their strings.
        """
        recorder = self.context.trace
        if not recorder.enabled:
            return
        for key, value in detail.items():
            if isinstance(value, EndpointAddress):
                detail[key] = str(value)
            elif isinstance(value, (list, tuple)):
                detail[key] = [
                    str(item) if isinstance(item, EndpointAddress) else item
                    for item in value
                ]
        recorder.record(
            self.now, category, str(self.endpoint), layer=self.name, **detail
        )

    def dump(self) -> Dict[str, Any]:
        """Layer introspection for the ``dump`` downcall (Table 1)."""
        return {"name": self.name}

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name} at {self.endpoint}/{self.group}>"

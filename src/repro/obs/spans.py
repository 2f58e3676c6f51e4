"""Message-path spans: where a message spends its time, per layer.

A *span* covers one traversal of a protocol stack — a downcall sinking
from the application toward the network, or an upcall rising from the
wire.  Because every layer speaks the same HCPI top and bottom
interface, one wrapper installed over each layer's ``down``/``up``
entry points (see :class:`StackObserver`) observes all ~25 layers the
same way: per-layer entry/exit timestamps and header bytes pushed and
popped.

Timestamps come from whatever clock the owning stack's context holds:
virtual time on the DES (spans are then deterministic per seed), the
engine's monotonic wall clock on the realtime substrate.

Self-time accounting: a traversal nests calls (``TOTAL.down`` runs
``MBRSHIP.down`` inside it, and so on), so a frame stack attributes to
each layer only the time not spent in the layers it called — the
per-layer numbers sum to the traversal's total instead of multiply
counting it.  A crossing that turns around (an acknowledgement sent
down from an upcall handler) runs after that handler returned, as the
root of a span of its own.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional

from repro.obs.registry import MetricsRegistry, SIZE_BUCKETS, TIME_BUCKETS


class SpanEvent:
    """One layer crossing inside a span."""

    __slots__ = ("layer", "direction", "enter", "exit", "self_time",
                 "depth_in", "depth_out", "body_in", "body_out",
                 "header_bytes")

    def __init__(self, layer: str, direction: str, enter: float,
                 depth_in: int, body_in: int) -> None:
        self.layer = layer
        self.direction = direction
        self.enter = enter
        self.exit: float = enter
        #: Seconds inside this layer, excluding nested layer calls.
        self.self_time: float = 0.0
        self.depth_in = depth_in
        self.depth_out: int = depth_in
        self.body_in = body_in
        self.body_out: int = body_in
        #: Wire bytes of headers pushed (down) or popped (up) here.
        self.header_bytes: int = 0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able form, used by the JSONL exporter."""
        return {
            "layer": self.layer,
            "direction": self.direction,
            "enter": self.enter,
            "exit": self.exit,
            "self_time": self.self_time,
            "depth_in": self.depth_in,
            "depth_out": self.depth_out,
            "body_in": self.body_in,
            "body_out": self.body_out,
            "header_bytes": self.header_bytes,
        }

    def __repr__(self) -> str:
        return (
            f"<SpanEvent {self.layer}.{self.direction} "
            f"[{self.enter:.6f},{self.exit:.6f}] hdr={self.header_bytes}B>"
        )


class MessageSpan:
    """One stack traversal: the ordered layer crossings of one message."""

    __slots__ = ("span_id", "endpoint", "group", "kind", "direction",
                 "started", "finished", "events")

    def __init__(self, span_id: int, endpoint: str, group: str, kind: str,
                 direction: str, started: float) -> None:
        self.span_id = span_id
        self.endpoint = endpoint
        self.group = group
        #: HCPI event type of the root crossing (e.g. ``"CAST"``).
        self.kind = kind
        #: Direction of the root crossing (``"down"`` or ``"up"``).
        self.direction = direction
        self.started = started
        self.finished: float = started
        self.events: List[SpanEvent] = []

    @property
    def duration(self) -> float:
        """Wall (or virtual) seconds from first entry to last exit."""
        return self.finished - self.started

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able form, used by the JSONL exporter."""
        # "root_kind", not "kind": the JSONL record discriminator uses
        # "kind" for the record type ("span").
        return {
            "span_id": self.span_id,
            "endpoint": self.endpoint,
            "group": self.group,
            "root_kind": self.kind,
            "direction": self.direction,
            "started": self.started,
            "finished": self.finished,
            "events": [event.to_dict() for event in self.events],
        }

    def __repr__(self) -> str:
        return (
            f"<MessageSpan #{self.span_id} {self.kind} {self.direction} "
            f"events={len(self.events)} {self.duration * 1e6:.1f}us>"
        )


class SpanRecorder:
    """Bounded store of completed :class:`MessageSpan` objects.

    One recorder serves a whole world; stacks append through their
    observers.  The bound evicts oldest-first, so long realtime runs
    keep the most recent traffic without growing without limit.
    """

    def __init__(self, max_spans: int = 10_000) -> None:
        self.max_spans = max_spans
        self._spans: Deque[MessageSpan] = deque(maxlen=max_spans)
        self._next_id = 0
        #: Total spans ever recorded (evictions do not decrement).
        self.recorded = 0

    def new_id(self) -> int:
        """Allocate the next span id (monotone per recorder)."""
        span_id = self._next_id
        self._next_id += 1
        return span_id

    def add(self, span: MessageSpan) -> None:
        """Store one completed span."""
        self._spans.append(span)
        self.recorded += 1

    def spans(self) -> List[MessageSpan]:
        """Snapshot of retained spans, oldest first."""
        return list(self._spans)

    def __len__(self) -> int:
        return len(self._spans)

    def __iter__(self):
        return iter(self._spans)

    def __repr__(self) -> str:
        return f"<SpanRecorder retained={len(self._spans)} total={self.recorded}>"


class _Frame:
    """One active layer crossing on the observer's frame stack."""

    __slots__ = ("layer", "direction", "enter", "child_time", "event",
                 "pending_pop", "pushed")

    def __init__(self, layer: str, direction: str, enter: float,
                 event: Optional[SpanEvent], pending_pop: int) -> None:
        self.layer = layer
        self.direction = direction
        self.enter = enter
        self.child_time = 0.0
        self.event = event
        #: Wire size of the header this layer is about to pop (up path).
        self.pending_pop = pending_pop
        #: Wire size of the header this layer pushed (down path),
        #: credited by the next lower layer's entry — by this layer's
        #: own exit the header has already been consumed further down.
        self.pushed = 0


class StackObserver:
    """The single instrumentation hook for one protocol stack.

    :meth:`install` wraps every layer's ``down``/``up`` so each crossing
    is counted and bracketed with :meth:`enter`/:meth:`exit`; a stack
    nobody observes carries no wrapper at all.  Feeds per-layer metrics
    into a shared :class:`MetricsRegistry` and, when a
    :class:`SpanRecorder` is given, full message-path spans.
    """

    __slots__ = ("clock", "spans", "header_registry", "endpoint", "group",
                 "skipping", "wire_mode",
                 "_frames", "_span", "_events", "_self_time", "_hdr_bytes",
                 "_span_count", "_span_children",
                 "_children", "_codecs",
                 "_sample", "_span_seq", "_skip_direction")

    def __init__(
        self,
        clock: Any,
        *,
        metrics: Optional[MetricsRegistry] = None,
        spans: Optional[SpanRecorder] = None,
        header_registry: Any = None,
        endpoint: str = "",
        group: str = "",
        sample: int = 1,
        wire_mode: str = "aligned",
    ) -> None:
        self.clock = clock
        #: The world's wire mode, so header-byte accounting reflects
        #: what the mode actually puts on the wire (see
        #: :meth:`_header_wire_size`).
        self.wire_mode = wire_mode
        self.spans = spans
        self._sample = max(1, int(sample))
        self._span_seq = 0
        #: True while a sampled-out traversal is in flight.  The
        #: installed wrappers consult this before calling enter/exit at
        #: all, so the nested crossings of an unsampled message cost one
        #: attribute read each; only the traversal root pays the
        #: enter/exit pair.
        self.skipping = False
        self._skip_direction = ""
        self.header_registry = header_registry
        self.endpoint = endpoint
        self.group = group
        self._frames: List[_Frame] = []
        self._span: Optional[MessageSpan] = None
        # Hot-path caches: label-child tuples per (direction, layer) and
        # header codecs per layer.  Both resolve through dict lookups
        # that would otherwise repeat on every single crossing.
        self._children: Dict[tuple, tuple] = {}
        self._codecs: Dict[str, Any] = {}
        if metrics is not None:
            self._events = metrics.counter(
                "stack_layer_events_total",
                "HCPI boundary crossings, per layer and direction",
                labels=("direction", "layer"),
            )
            self._self_time = metrics.histogram(
                "stack_layer_self_seconds",
                "Time spent inside a layer itself, excluding nested layers",
                labels=("direction", "layer"),
                buckets=TIME_BUCKETS,
            )
            self._hdr_bytes = metrics.counter(
                "stack_header_bytes_total",
                "Wire bytes of headers pushed (down) or popped (up)",
                labels=("direction", "layer"),
            )
            self._span_count = metrics.counter(
                "stack_spans_total",
                "Completed message-path traversals",
                labels=("direction",),
            )
            # labels() costs microseconds and this counter is bumped
            # once per traversal, so resolve both children up front.
            self._span_children = {
                "down": self._span_count.labels(direction="down"),
                "up": self._span_count.labels(direction="up"),
            }
        else:
            self._events = None
            self._self_time = None
            self._hdr_bytes = None
            self._span_count = None
            self._span_children = None

    # ------------------------------------------------------------------
    # The seam: a wrapper over every layer's down / up
    # ------------------------------------------------------------------

    def install(self, layers: List[Any]) -> None:
        """Observe every crossing of ``layers`` from now on.

        Each layer's ``down``/``up`` is shadowed by an instance attribute
        over its handler, the way the benchmark harness traces a stack
        from outside: every caller reaches a layer through those names.
        Each events series is created here, so snapshots list it before
        any traffic.
        """
        for layer in layers:
            layer.down = self._seam(layer, "down", layer.handle_down)
            layer.up = self._seam(layer, "up", layer.handle_up)

    def _seam(self, layer: Any, direction: str,
              handle: Callable[[Any], None]) -> Callable[[Any], None]:
        """One crossing of ``layer``: a stopped layer is neither entered
        nor counted; any other is counted, then bracketed unless a
        sampled-out traversal is in flight."""
        name = layer.name
        events = None
        if self._events is not None:
            events = self._events.labels(direction=direction, layer=name)
        enter, exit_ = self.enter, self.exit

        def crossing(event: Any) -> None:
            if layer.stopped:
                return
            if events is not None:
                events.value += 1
            if self.skipping:
                handle(event)
                return
            frame = enter(name, direction, event)
            try:
                handle(event)
            finally:
                exit_(frame, event)

        return crossing

    def enter(self, layer: str, direction: str, event: Any) -> Optional[_Frame]:
        """Record entry of one crossing; returns the frame for :meth:`exit`.

        This runs once per layer per message on the realtime hot path,
        so it trades a little readability for locals and flat branches;
        the companion :meth:`exit` does the same.  On sampled-out
        traversals (``sample`` > 1) it returns ``None`` after a couple
        of integer operations — no clock read, no frame, no sizing:
        head-based sampling, decided once at the traversal root.  Exact
        per-layer event counts are unaffected because the installed
        wrapper counts each crossing before it decides to call this.
        """
        frames = self._frames
        if not frames:
            # Root of a traversal: the sampling decision covers every
            # nested crossing until the stack unwinds.
            self._span_seq += 1
            if self._span_seq % self._sample:
                self.skipping = True
                self._skip_direction = direction
                return None
        now = self.clock.now
        message = event.message
        pending_pop = 0
        if message is not None:
            if direction == "up":
                # The header this layer will pop (if any) is gone by
                # exit time, so its wire size is measured on the way in.
                if message.top_owner() == layer:
                    pending_pop = self._header_wire_size(
                        layer, message.peek_header()
                    )
            else:
                # Symmetric problem on the way down: the header the
                # layer above just pushed is consumed (marshaled and
                # sent) before that layer's exit runs, so size it at the
                # first entry below the pusher.  A header whose owner is
                # neither this layer nor the parent frame was already
                # credited higher up.
                owner = message.top_owner()
                if owner is not None and owner != layer:
                    parent = frames[-1] if frames else None
                    if (parent is not None and parent.layer == owner
                            and parent.direction == "down"):
                        if not parent.pushed:
                            parent.pushed = self._header_wire_size(
                                owner, message.peek_header()
                            )
                    elif parent is None or parent.layer == owner:
                        # Pushed outside an observed down frame: a timer
                        # or an up-path handler originated this send
                        # (e.g. a NAK retransmission).  No frame carries
                        # the credit, so feed the counter directly.
                        if self._hdr_bytes is not None:
                            size = self._header_wire_size(
                                owner, message.peek_header()
                            )
                            if size:
                                child = self._layer_children("down", owner)[2]
                                child.value += size
        span_event: Optional[SpanEvent] = None
        if self.spans is not None:
            span = self._span
            if span is None and not frames:
                kind = getattr(event.type, "name", str(event.type))
                span = MessageSpan(
                    self.spans.new_id(), self.endpoint, self.group,
                    kind, direction, now,
                )
                self._span = span
            if span is not None:
                if message is not None:
                    span_event = SpanEvent(layer, direction, now,
                                           message.header_depth,
                                           message.body_size)
                else:
                    span_event = SpanEvent(layer, direction, now, -1, 0)
                span.events.append(span_event)
        frame = _Frame(layer, direction, now, span_event, pending_pop)
        frames.append(frame)
        return frame

    def exit(self, frame: Optional[_Frame], event: Any) -> None:
        """Record exit of the crossing started by ``frame``.

        ``frame`` is ``None`` at the root of a sampled-out traversal
        (the layer seam never brackets the crossings nested in one).
        """
        if frame is None:
            self.skipping = False
            if self._span_children is not None:
                self._span_children[self._skip_direction].value += 1
            return
        frames = self._frames
        frames.pop()
        now = self.clock.now
        elapsed = now - frame.enter
        self_time = elapsed - frame.child_time
        if frames:
            frames[-1].child_time += elapsed
        message = event.message
        # Header accounting: both directions were sized when the header
        # was still on the message (see enter); the bottom layer's down
        # push is the one case still visible at exit.
        if frame.direction == "down":
            header_bytes = frame.pushed
            if (not header_bytes and message is not None
                    and message.top_owner() == frame.layer):
                header_bytes = self._header_wire_size(
                    frame.layer, message.peek_header()
                )
        else:
            header_bytes = frame.pending_pop
        if self._self_time is not None:
            key = (frame.direction, frame.layer)
            children = self._children.get(key)
            if children is None:
                children = self._layer_children(frame.direction, frame.layer)
            children[1].observe(self_time)
            # Header-byte adds inlined (plain slot adds): .inc() costs a
            # method call per crossing, which is real money here.  The
            # event counter is NOT bumped here — the installed wrapper
            # counts every crossing, sampled out or not.
            if header_bytes:
                children[2].value += header_bytes
        span_event = frame.event
        if span_event is not None:
            span_event.exit = now
            span_event.self_time = self_time
            span_event.header_bytes = header_bytes
            if message is not None:
                span_event.depth_out = message.header_depth
                span_event.body_out = message.body_size
            else:
                span_event.depth_out = -1
        if not frames:
            span = self._span
            if span is not None:
                self._span = None
                span.finished = now
                if self.spans is not None:
                    self.spans.add(span)
            if self._span_children is not None:
                self._span_children[frame.direction].value += 1

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _layer_children(self, direction: str, layer: str) -> tuple:
        """Cached (events, self_time, header_bytes) children for a series."""
        key = (direction, layer)
        children = self._children.get(key)
        if children is None:
            children = (
                self._events.labels(direction=direction, layer=layer),
                self._self_time.labels(direction=direction, layer=layer),
                self._hdr_bytes.labels(direction=direction, layer=layer),
            )
            self._children[key] = children
        return children

    def _header_wire_size(self, layer: str, header: Optional[Dict]) -> int:
        """Wire bytes of one layer's header, 0 when it cannot be sized.

        Mode-aware: ``packed`` charges the bit-packed size rounded up to
        whole bytes; every other mode charges the canonical byte
        encoding.  For ``table`` that canonical size is the honest
        *pre-compression* figure — the compressed size depends on the
        channel's dynamic-table state at marshal time, which this seam
        cannot see, so the counter stays deterministic and the bench
        reports the post-compression bytes from the network counters.
        """
        if header is None:
            return 0
        codec = self._codecs.get(layer)
        if codec is None:
            registry = self.header_registry
            if registry is None or not registry.has(layer):
                self._codecs[layer] = False
                return 0
            codec = registry.codec_for(layer)
            self._codecs[layer] = codec
        elif codec is False:
            return 0
        try:
            if self.wire_mode == "packed":
                return (codec.bit_size(header) + 7) // 8
            return codec.wire_size(header)
        except Exception:
            # A half-built header (filled in lower down) is not an
            # error; it just cannot be sized yet.
            return 0

    def __repr__(self) -> str:
        return (
            f"<StackObserver {self.endpoint}/{self.group} "
            f"frames={len(self._frames)}>"
        )


#: Buckets re-exported so callers sizing byte histograms need one import.
__all__ = [
    "MessageSpan",
    "SpanEvent",
    "SpanRecorder",
    "StackObserver",
    "SIZE_BUCKETS",
]

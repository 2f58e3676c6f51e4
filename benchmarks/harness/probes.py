"""Probes the harness installs around the program's public entry points.

Nothing under ``src/`` is instrumented for this benchmark: every number
comes from a wrapper put *around* a public call from the outside —
``Layer.down``/``Layer.up`` on each instance in ``handle.stack.layers``,
a proxy ``HeaderRegistry`` passed as ``registry=``, proxy networks set
as ``world.network`` before any endpoint exists, a store domain passed
as ``store=`` — so the program under test is byte-for-byte the one a
user runs.  The untraced repeats install none of these except the store
domain's ticket hook (it defines when an ``rsm_durable`` op is done).
"""

from __future__ import annotations

import time
from collections import defaultdict, deque
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.store.store import WAL_NAME

# The coalescer's batch frame starts "HR", 0xB0, count (see the
# repro.net.coalesce module docstring); anything else is one message.
_BATCH_MAGIC = b"HR\xb0"


class Tracer:
    """Self time and call counts per span name, plus raw spans.

    The program is single-threaded, so one stack of open frames is
    enough: a span's self time is its duration minus the durations of
    the spans opened inside it.  Raw spans ``(name, start, end, parent
    index, op)`` are kept while :attr:`keep` is true; ``op`` is the
    last op the workload identified before the span closed (the cast
    being sent, or the payload just delivered), ``None`` for protocol
    traffic no op was seen in.
    """

    def __init__(self) -> None:
        #: name -> [self seconds, calls]; zeroed in place by :meth:`reset`
        #: because the wrappers hold references to the lists.
        self.totals: Dict[str, List[float]] = {}
        self.spans: List[Optional[Tuple[str, float, float, int, Any]]] = []
        self.keep = False
        self.op: Any = None
        self._stack: List[List[float]] = []

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with a span named ``name`` around every call."""
        total = self.totals.setdefault(name, [0.0, 0])
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = -1
            if self.keep:
                index = len(spans)
                spans.append(None)
            if not stack:
                self.op = None
            frame = [clock(), 0.0, index]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - frame[0]
                total[0] += elapsed - frame[1]
                total[1] += 1
                if stack:
                    stack[-1][1] += elapsed
                if index >= 0:
                    parent = int(stack[-1][2]) if stack else -1
                    spans[index] = (name, frame[0], end, parent, self.op)

        return traced

    def reset(self) -> None:
        """Zero the aggregates (raw spans are kept)."""
        for total in self.totals.values():
            total[0], total[1] = 0.0, 0

    def snapshot(self) -> Dict[str, Tuple[float, int]]:
        """``name -> (self seconds, calls)`` since the last reset."""
        return {k: (v[0], int(v[1])) for k, v in self.totals.items()}


def trace_stack(tracer: Tracer, handle: Any) -> None:
    """Span every HCPI crossing of every layer under ``handle``.

    Neighbouring layers, the stack's application edge and its network
    edge all reach a layer through ``layer.down`` / ``layer.up``, so an
    instance attribute shadows the method for every caller.
    """
    for layer in handle.stack.layers:
        layer.down = tracer.wrap(f"layers.{layer.name}.down", layer.down)
        layer.up = tracer.wrap(f"layers.{layer.name}.up", layer.up)


class TracedRegistry:
    """``HeaderRegistry`` proxy timing marshal/unmarshal.

    Lazy unmarshal only frames the datagram; each header is decoded
    when its layer pops it, so that cost lands in the layer's self time.
    """

    def __init__(self, inner: Any, tracer: Tracer) -> None:
        self._inner = inner
        self.header_bytes = 0
        self.marshal = tracer.wrap("core.headers.marshal", self._marshal)
        self.unmarshal = tracer.wrap("core.headers.unmarshal", inner.unmarshal)

    def _marshal(self, message: Any, *args: Any, **kwargs: Any) -> bytes:
        data = self._inner.marshal(message, *args, **kwargs)
        self.header_bytes += len(data) - message.body_size
        return data

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


class CoalesceLedger:
    """What went into the coalescer and what came out, per buffer key."""

    def __init__(self) -> None:
        self.pending: Dict[Any, deque] = defaultdict(deque)
        self.holds: List[float] = []
        self.payloads = 0
        self.sends = 0

    def entered(self, key: Any) -> None:
        self.pending[key].append(time.perf_counter())

    def left(self, key: Any, payload: bytes) -> None:
        count = payload[3] if payload[:3] == _BATCH_MAGIC else 1
        self.payloads += count
        self.sends += 1
        now = time.perf_counter()
        queue = self.pending[key]
        for _ in range(min(count, len(queue))):
            self.holds.append(now - queue.popleft())

    def reset(self) -> None:
        self.holds.clear()
        self.payloads = self.sends = 0


class TracedNetwork:
    """Network-contract proxy: spans around sends and attach callbacks.

    ``ledger`` with ``side="in"`` marks this proxy as the one *above* a
    coalescer (payloads enter here), ``side="out"`` as the one below it
    (datagrams leave here); without a ledger it only times.
    """

    def __init__(
        self,
        inner: Any,
        tracer: Tracer,
        send_name: str,
        recv_name: str,
        ledger: Optional[CoalesceLedger] = None,
        side: str = "",
    ) -> None:
        self.inner = inner
        self._tracer = tracer
        self._recv_name = recv_name
        self._ledger = ledger
        self._side = side
        self.unicast = tracer.wrap(send_name, inner.unicast)
        self.multicast = tracer.wrap(send_name, inner.multicast)
        if ledger is not None:
            self.unicast = self._noting("u", self.unicast)
            self.multicast = self._noting("m", self.multicast)

    def _noting(self, kind: str, send: Callable[..., None]) -> Callable[..., None]:
        ledger, entering = self._ledger, self._side == "in"

        def noted(source: Any, dests: Any, payload: bytes) -> None:
            dests = (dests,) if kind == "u" else tuple(dests)
            key = (kind, source, dests)
            if entering:
                ledger.entered(key)
            else:
                ledger.left(key, payload)
            send(source, dests[0] if kind == "u" else dests, payload)

        return noted

    def attach(self, address: Any, deliver: Callable[..., None]) -> None:
        self.inner.attach(address, self._tracer.wrap(self._recv_name, deliver))

    def __getattr__(self, name: str) -> Any:
        return getattr(self.inner, name)


def trace_datagram_receive(loop: Any, tracer: Tracer) -> None:
    """Span the socket receive seam of every UDP socket bound later.

    The transport hands asyncio a protocol factory; wrapping the loop's
    public ``create_datagram_endpoint`` lets the harness wrap the
    protocol's ``datagram_received`` — frame decode, demux and every
    upcall it triggers — without touching the transport.
    """
    create = loop.create_datagram_endpoint

    def traced_create(protocol_factory: Callable[[], Any], *args: Any, **kwargs: Any):
        def factory() -> Any:
            protocol = protocol_factory()
            protocol.datagram_received = tracer.wrap(
                "runtime.transport.recv", protocol.datagram_received
            )
            return protocol

        return create(factory, *args, **kwargs)

    loop.create_datagram_endpoint = traced_create


class ProbedStoreDomain:
    """Store domain that delegates to a real one and hooks what it returns.

    Always: ``on_durable(node)`` fires when an append's commit ticket
    completes — an ``rsm_durable`` op is done only then.  With a tracer:
    spans around ``append``/``snapshot`` and the backend's
    ``append_many``/``sync``, commit waits, and WAL byte/fsync counts.
    """

    def __init__(
        self,
        inner: Any,
        on_durable: Callable[[str], None],
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.inner = inner
        self._on_durable = on_durable
        self._tracer = tracer
        self._hooked: set = set()
        self.commit_waits: List[float] = []
        self.records = 0
        self.wal_bytes = 0
        self.fsyncs = 0

    def store(self, node: str, namespace: str, policy: Any = None) -> Any:
        store = self.inner.store(node, namespace, policy=policy)
        if id(store) not in self._hooked:
            self._hooked.add(id(store))
            self._hook(node, store)
        return store

    def _hook(self, node: str, store: Any) -> None:
        append, tracer = store.append, self._tracer
        clock = time.perf_counter

        if tracer is None:
            def hooked_append(payload: bytes) -> Any:
                ticket = append(payload)
                ticket.add_done_callback(lambda _t: self._on_durable(node))
                return ticket

            store.append = hooked_append
            return

        def done(started: float) -> Callable[[Any], None]:
            def fire(_ticket: Any) -> None:
                self.commit_waits.append(clock() - started)
                self._on_durable(node)
            return fire

        def traced_append(payload: bytes) -> Any:
            ticket = append(payload)
            ticket.add_done_callback(done(clock()))
            return ticket

        store.append = tracer.wrap("store.append", traced_append)
        store.snapshot = tracer.wrap("store.snapshot", store.snapshot)
        backend = store.backend
        append_many, sync = backend.append_many, backend.sync

        def counted_append_many(name: str, records: Any) -> None:
            records = list(records)
            if name == WAL_NAME:
                self.records += len(records)
                self.wal_bytes += sum(len(r) for r in records)
            append_many(name, records)

        def counted_sync(name: str) -> None:
            self.fsyncs += 1
            sync(name)

        backend.append_many = tracer.wrap("store.backend.append_many", counted_append_many)
        backend.sync = tracer.wrap("store.backend.sync", counted_sync)

    def reset(self) -> None:
        self.commit_waits.clear()
        self.records = self.wal_bytes = self.fsyncs = 0

    def __getattr__(self, name: str) -> Any:
        return getattr(self.inner, name)

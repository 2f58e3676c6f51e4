"""CREDIT — windowed, receiver-granted flow control with backpressure.

The Figure 1 flow-control slot, in the HTTP/2 style: instead of a
one-sided sender token bucket, each *receiver* extends byte credit to
each sender and replenishes it
with WINDOW_UPDATE-style grants as its application consumes deliveries.
A sender may only pass traffic down while it holds credit on every
destination; when credit runs out the excess lands in a *bounded* queue
with a configurable shed policy, and the overload verdict propagates
back up the HCPI (``Downcall.extra["flow_verdict"]``) so the layer
above — ultimately the application — can block or shed instead of
queueing unboundedly.

Two credit spaces per peer, mirroring NAK's two sequence spaces:

* space 0 — the **multicast flow**: casts charge every current view
  member's account, so the slowest receiver gates the group (the
  per-group window of the ROADMAP item is the min over members);
* space 1 — the **unicast flow**: subset sends charge only their
  destinations (the per-endpoint window).

Accounting is cumulative and idempotent: the receiver advertises
``granted_total = consumed_total + window`` and the sender computes
``available = granted_total - charged_total``, so duplicated,
reordered, or superseded grants are harmless (the sender takes the
max).  Both sides start a fresh peer at ``window``, which is the
implicit initial grant (the HTTP/2 SETTINGS handshake collapsed into a
shared config — stacks in one group are homogeneous).

Placement: **above** the membership/reliability layers (e.g.
``CREDIT:MBRSHIP:FRAG:NAK:COM``).  That way only application traffic is
charged — membership flushes, NAK control, and TOTAL tokens originate
below and can never deadlock on exhausted credit — and a throttled cast
never even reaches NAK, which is what keeps NAK's retransmission buffer
bounded by the credit window rather than by the offered load.

Receiver slowness is first-class: ``consume_rate`` (bytes/second,
``None`` = consume instantly on delivery) meters how fast deliveries
turn into consumed credit, so tests and the chaos ``slow_receiver`` op
can model an application that cannot keep up without touching delivery
itself.

Grant sizing and timing are delegated to a pluggable
:class:`~repro.flow.window.WindowManager` (``fixed``, ``aimd``,
``paced``); AIMD's congestion signal is end-to-end — a sender that shed
piggybacks a congestion bit on its next data message.

Known limit: credit charged for a message the stack *permanently*
loses (a NAK ``GONE`` placeholder) is never returned.  With CREDIT
above NAK this is self-preventing — bounded senders stop NAK's buffer
evictions, which are the only source of GONEs — but on bare best-effort
stacks (``CREDIT:COM`` under loss) windows can leak; size them
generously there.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

from repro.core import headers as hdr
from repro.core.events import (
    Downcall,
    DowncallType,
    FlowVerdict,
    Upcall,
    UpcallType,
)
from repro.core.layer import Layer
from repro.core.message import Message
from repro.core.stack import register_layer
from repro.errors import ConfigurationError
from repro.flow.window import DEFAULT_WINDOW, WindowManager, make_window_manager
from repro.net.address import EndpointAddress

_DATA = 0  # charged data message
_DATA_CONGESTED = 1  # charged data + "I shed since my last send" bit
_GRANT = 2  # WINDOW_UPDATE: credit_delta = cumulative granted total

#: The multicast (cast) and unicast (subset send) credit spaces.
MCAST_SPACE = 0
UCAST_SPACE = 1

hdr.register(
    "CREDIT",
    fields=[
        ("kind", hdr.U8),
        ("flow_id", hdr.U8),
        ("credit_delta", hdr.U64),
    ],
    defaults={"flow_id": 0, "credit_delta": 0},
)

_SHED_POLICIES = ("block", "drop_newest", "drop_oldest")

FlowKey = Tuple[int, EndpointAddress]  # (space, peer)


class _Pending:
    """One queued downcall awaiting credit."""

    __slots__ = ("downcall", "space", "cost", "peers", "enqueued")

    def __init__(self, downcall, space, cost, peers, enqueued) -> None:
        self.downcall = downcall
        self.space = space
        self.cost = cost
        self.peers = peers
        self.enqueued = enqueued


class _RecvFlow:
    """Receiver-side state for one (space, peer) flow."""

    __slots__ = ("consumed", "advertised", "manager", "congested")

    def __init__(self, window: int, manager: WindowManager) -> None:
        self.consumed = 0
        self.advertised = window  # the implicit initial grant
        self.manager = manager
        self.congested = False  # shed bit seen since the last grant


@register_layer
class CreditLayer(Layer):
    """Credit-based flow control with end-to-end backpressure.

    Config:
        window (int): initial per-flow credit window in bytes
            (default 65536).
        manager (str): window-manager kind — ``fixed`` | ``aimd`` |
            ``paced`` (default ``fixed``).
        max_queue (int): bounded send-queue capacity in messages
            (default 128).
        shed_policy (str): what to do when the queue is full —
            ``block`` (refuse the new message, verdict BLOCKED),
            ``drop_newest`` (shed the new message), ``drop_oldest``
            (shed the queue head to admit the new message; forfeits
            FIFO completeness).  Default ``block``.
        grant_period (float): grant/maintenance tick period in seconds
            (default 0.05).
        consume_rate (float | None): receiver consumption rate in
            bytes/second; ``None`` consumes instantly on delivery.
        min_window / max_window / increment: AIMD manager parameters.
        rate (float): paced manager grant rate in bytes/second.
    """

    name = "CREDIT"

    def __init__(self, context, **config) -> None:
        super().__init__(context, **config)
        self.window = int(config.get("window", DEFAULT_WINDOW))
        if self.window < 1:
            raise ConfigurationError("window must be at least 1")
        self.manager_kind = str(config.get("manager", "fixed"))
        self._manager_config = {
            key: config[key]
            for key in ("min_window", "max_window", "increment", "rate")
            if key in config
        }
        # Fail fast on a bad manager kind/config (not at first delivery).
        make_window_manager(
            self.manager_kind, window=self.window, **self._manager_config
        )
        self.max_queue = int(config.get("max_queue", 128))
        if self.max_queue < 1:
            raise ConfigurationError("max_queue must be at least 1")
        self.shed_policy = str(config.get("shed_policy", "block"))
        if self.shed_policy not in _SHED_POLICIES:
            raise ConfigurationError(
                f"unknown shed_policy {self.shed_policy!r}; "
                f"known: {', '.join(_SHED_POLICIES)}"
            )
        self.grant_period = float(config.get("grant_period", 0.05))
        self.consume_rate: Optional[float] = config.get("consume_rate")
        if self.consume_rate is not None:
            self.consume_rate = float(self.consume_rate)
            if self.consume_rate <= 0:
                raise ConfigurationError("consume_rate must be positive")

        # Sender side.
        self._granted: Dict[FlowKey, int] = {}
        self._charged: Dict[FlowKey, int] = {}
        self._queue: Deque[_Pending] = deque()
        self._peers: Set[EndpointAddress] = set()
        self._congested_flag = False  # shed since my last outgoing data
        self._overloaded = False  # edge-trigger for the PROBLEM upcall

        # Receiver side.
        self._recv: Dict[FlowKey, _RecvFlow] = {}
        self._backlog: Deque[Tuple[FlowKey, int]] = deque()
        self._backlog_bytes = 0
        self._last_consume: Optional[float] = None
        self._grant_timer = None

        # Statistics (also exported as flow_* metrics).
        self.sheds = 0
        self.blocked = 0
        self.grants_sent = 0
        self.grants_received = 0
        self.data_charged = 0
        self.bytes_charged = 0
        self.max_queue_depth = 0
        self.max_backlog_bytes = 0
        self._init_metrics()

    # ------------------------------------------------------------------
    # Metrics plumbing
    # ------------------------------------------------------------------

    def _init_metrics(self) -> None:
        metrics = self.context.metrics
        self._m = None
        if metrics is None:
            return
        endpoint = str(self.endpoint)
        self._m = {
            "data": metrics.counter(
                "flow_data_messages_total",
                "Credit-charged data messages passed down, by space",
                labels=("space",),
            ),
            "bytes": metrics.counter(
                "flow_data_bytes_total",
                "Credit bytes charged for passed-down data, by space",
                labels=("space",),
            ),
            "sheds": metrics.counter(
                "flow_sheds_total",
                "Messages shed by the bounded send queue, by policy",
                labels=("policy",),
            ),
            "blocked": metrics.counter(
                "flow_blocked_total",
                "Messages refused with the BLOCKED verdict",
            ),
            "grants": metrics.counter(
                "flow_grants_total", "Credit grants sent"
            ),
            "grant_bytes": metrics.counter(
                "flow_grant_bytes_total", "Credit bytes granted"
            ),
            "queue_depth": metrics.gauge(
                "flow_queue_depth",
                "Current bounded send-queue depth",
                labels=("endpoint",),
            ).labels(endpoint=endpoint),
            "queue_high": metrics.gauge(
                "flow_queue_highwater",
                "High-water mark of the bounded send queue",
                labels=("endpoint",),
            ).labels(endpoint=endpoint),
            "outstanding": metrics.gauge(
                "flow_credit_outstanding",
                "Credit extended to peers and not yet consumed (recv role) "
                "or held against peers (send role)",
                labels=("endpoint", "role"),
            ),
            "wait": metrics.histogram(
                "flow_send_wait_seconds",
                "Time queued messages waited for credit before sending",
            ),
        }

    def _note_queue_metrics(self) -> None:
        if self._m is not None:
            self._m["queue_depth"].set(len(self._queue))
            self._m["queue_high"].set(self.max_queue_depth)

    def _note_outstanding(self) -> None:
        if self._m is None:
            return
        endpoint = str(self.endpoint)
        send_held = sum(
            self._granted[key] - self._charged.get(key, 0)
            for key in self._granted
        )
        recv_out = sum(
            flow.advertised - flow.consumed for flow in self._recv.values()
        )
        self._m["outstanding"].labels(endpoint=endpoint, role="send").set(
            send_held
        )
        self._m["outstanding"].labels(endpoint=endpoint, role="recv").set(
            recv_out
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        self._grant_timer = self.periodic(self.grant_period, self._tick)
        self._grant_timer.start()

    # ------------------------------------------------------------------
    # Sender side: charging, queueing, shedding
    # ------------------------------------------------------------------

    def handle_down(self, downcall: Downcall) -> None:
        dtype = downcall.type
        if dtype is DowncallType.VIEW:
            if downcall.members is not None:
                self._set_peers(downcall.members)
            self.pass_down(downcall)
            return
        if (
            dtype not in (DowncallType.CAST, DowncallType.SEND)
            or downcall.message is None
        ):
            self.pass_down(downcall)
            return
        space, peers = self._destinations(downcall)
        if not peers:
            # Nobody to protect (no view yet, or a self-send): pass
            # through uncharged and unheadered.
            downcall.extra["flow_verdict"] = FlowVerdict.ACCEPTED
            self.pass_down(downcall)
            return
        cost = max(1, downcall.message.body_size)
        pending = _Pending(downcall, space, cost, peers, self.now)
        if not self._queue and self._sendable(pending):
            downcall.extra["flow_verdict"] = FlowVerdict.ACCEPTED
            self._charge_and_send(pending)
            return
        self._enqueue(pending)

    def _destinations(
        self, downcall: Downcall
    ) -> Tuple[int, List[EndpointAddress]]:
        if downcall.type is DowncallType.CAST:
            peers = [p for p in self._peers if p != self.endpoint]
            return MCAST_SPACE, peers
        members = downcall.members or []
        return UCAST_SPACE, [p for p in members if p != self.endpoint]

    def _available(self, space: int, peer: EndpointAddress) -> int:
        key = (space, peer)
        if key not in self._granted:
            self._granted[key] = self.window
            self._charged[key] = 0
        return self._granted[key] - self._charged[key]

    def _sendable(self, pending: _Pending) -> bool:
        return all(
            self._available(pending.space, peer) >= pending.cost
            for peer in pending.peers
        )

    def _charge_and_send(self, pending: _Pending) -> None:
        for peer in pending.peers:
            self._charged[(pending.space, peer)] += pending.cost
        kind = _DATA_CONGESTED if self._congested_flag else _DATA
        self._congested_flag = False
        pending.downcall.message.push_header(
            self.name,
            {"kind": kind, "flow_id": pending.space,
             "credit_delta": pending.cost},
        )
        self.data_charged += 1
        self.bytes_charged += pending.cost
        if self._m is not None:
            space = str(pending.space)
            self._m["data"].labels(space=space).inc()
            self._m["bytes"].labels(space=space).inc(pending.cost)
            self._m["wait"].observe(self.now - pending.enqueued)
        self._note_outstanding()
        self.pass_down(pending.downcall)

    def _enqueue(self, pending: _Pending) -> None:
        verdict = FlowVerdict.QUEUED
        if len(self._queue) >= self.max_queue:
            if self.shed_policy == "block":
                self.blocked += 1
                self._congested_flag = True
                if self._m is not None:
                    self._m["blocked"].inc()
                verdict = FlowVerdict.BLOCKED
            elif self.shed_policy == "drop_newest":
                self.sheds += 1
                self._congested_flag = True
                if self._m is not None:
                    self._m["sheds"].labels(policy=self.shed_policy).inc()
                verdict = FlowVerdict.SHED
            else:  # drop_oldest
                self._queue.popleft()
                self._queue.append(pending)
                self.sheds += 1
                self._congested_flag = True
                if self._m is not None:
                    self._m["sheds"].labels(policy=self.shed_policy).inc()
            pending.downcall.extra["flow_verdict"] = verdict
            self._note_queue_metrics()
            self._note_overload()
            return
        self._queue.append(pending)
        self.max_queue_depth = max(self.max_queue_depth, len(self._queue))
        pending.downcall.extra["flow_verdict"] = verdict
        self._note_queue_metrics()

    def _note_overload(self) -> None:
        """Edge-triggered PROBLEM upcall when the queue first saturates."""
        if self._overloaded:
            return
        self._overloaded = True
        self.trace("overload", queue=len(self._queue), policy=self.shed_policy)
        self.pass_up(
            Upcall(
                UpcallType.PROBLEM,
                source=self.endpoint,
                extra={"reason": "overload", "layer": self.name},
            )
        )

    def _drain_queue(self) -> None:
        sent = False
        while self._queue and self._sendable(self._queue[0]):
            self._charge_and_send(self._queue.popleft())
            sent = True
        if sent:
            self._note_queue_metrics()
        if self._overloaded and len(self._queue) <= self.max_queue // 2:
            self._overloaded = False

    # ------------------------------------------------------------------
    # Receiver side: accounting, consumption, grants
    # ------------------------------------------------------------------

    def handle_up(self, upcall: Upcall) -> None:
        if upcall.type is UpcallType.VIEW:
            if upcall.members is not None:
                self._set_peers(upcall.members)
            self.pass_up(upcall)
            return
        message = upcall.message
        if message is None or message.peek_header(self.name) is None:
            self.pass_up(upcall)
            return
        header = message.pop_header(self.name)
        kind = header["kind"]
        if kind == _GRANT:
            self._on_grant(
                upcall.source, header["flow_id"], header["credit_delta"]
            )
            return  # control traffic stops here
        # DATA / DATA_CONGESTED: deliver first, account afterwards so
        # flow control never delays or reorders the delivery path.
        self.pass_up(upcall)
        if upcall.source is None or upcall.source == self.endpoint:
            return  # a local loopback copy consumes no credit
        key = (header["flow_id"], upcall.source)
        cost = int(header["credit_delta"])
        flow = self._recv_flow(key)
        if kind == _DATA_CONGESTED:
            flow.congested = True
            flow.manager.on_shed()
        if self.consume_rate is None:
            self._consume(key, cost)
        else:
            self._backlog.append((key, cost))
            self._backlog_bytes += cost
            self.max_backlog_bytes = max(
                self.max_backlog_bytes, self._backlog_bytes
            )

    def _recv_flow(self, key: FlowKey) -> _RecvFlow:
        flow = self._recv.get(key)
        if flow is None:
            flow = _RecvFlow(
                self.window,
                make_window_manager(
                    self.manager_kind,
                    window=self.window,
                    **self._manager_config,
                ),
            )
            self._recv[key] = flow
        return flow

    def _consume(self, key: FlowKey, cost: int, tail: bool = False) -> None:
        flow = self._recv_flow(key)
        flow.consumed += cost
        self._maybe_grant(key, flow, tail=tail)

    def _maybe_grant(self, key: FlowKey, flow: _RecvFlow, tail: bool) -> None:
        pending = flow.consumed + flow.manager.window - flow.advertised
        if pending <= 0:
            return
        amount = flow.manager.grant(pending, self.now, tail=tail)
        if amount <= 0:
            return
        if not flow.congested:
            flow.manager.on_ack()
        flow.congested = False
        flow.advertised += amount
        space, peer = key
        grant = Message()
        grant.push_header(
            self.name,
            {"kind": _GRANT, "flow_id": space,
             "credit_delta": flow.advertised},
        )
        self.grants_sent += 1
        if self._m is not None:
            self._m["grants"].inc()
            self._m["grant_bytes"].inc(amount)
        self._note_outstanding()
        self.pass_down(
            Downcall(DowncallType.SEND, message=grant, members=[peer])
        )

    def _on_grant(
        self, source: Optional[EndpointAddress], space: int, total: int
    ) -> None:
        if source is None:
            return
        key = (space, source)
        self._available(space, source)  # ensure the account exists
        # Cumulative totals make duplicated/reordered grants idempotent.
        if total > self._granted[key]:
            self._granted[key] = total
        self.grants_received += 1
        self._note_outstanding()
        self._drain_queue()

    # ------------------------------------------------------------------
    # The grant/consume tick
    # ------------------------------------------------------------------

    def _tick(self) -> None:
        now = self.now
        if self.consume_rate is not None and self._backlog:
            if self._last_consume is None:
                self._last_consume = now - self.grant_period
            budget = (now - self._last_consume) * self.consume_rate
            while self._backlog and budget > 0:
                key, cost = self._backlog[0]
                if cost <= budget:
                    self._backlog.popleft()
                    self._backlog_bytes -= cost
                    budget -= cost
                    self._consume(key, cost, tail=True)
                else:
                    # Split the head: consume what the budget covers.
                    taken = int(budget)
                    if taken <= 0:
                        break
                    self._backlog[0] = (key, cost - taken)
                    self._backlog_bytes -= taken
                    budget -= taken
                    self._consume(key, taken, tail=True)
        self._last_consume = now
        # Tail-flush deferred grants on every receive flow.
        for key, flow in list(self._recv.items()):
            self._maybe_grant(key, flow, tail=True)
        self._drain_queue()

    # ------------------------------------------------------------------
    # Peer tracking
    # ------------------------------------------------------------------

    def _set_peers(self, members: List[EndpointAddress]) -> None:
        new_peers = set(members)
        departed = self._peers - new_peers
        for peer in departed:
            # Endpoints are incarnation-unique: a departed peer never
            # returns under the same address, so its accounts are dead.
            for space in (MCAST_SPACE, UCAST_SPACE):
                self._granted.pop((space, peer), None)
                self._charged.pop((space, peer), None)
                self._recv.pop((space, peer), None)
        self._peers = new_peers
        if departed:
            # Slow departed members no longer gate the multicast flow.
            self._drain_queue()

    # ------------------------------------------------------------------
    # Application surface (via ``handle.focus("CREDIT")``)
    # ------------------------------------------------------------------

    def set_consume_rate(self, rate: Optional[float]) -> None:
        """Change the modeled consumption rate at runtime.

        ``None`` restores instant consumption and flushes any backlog —
        the knob the chaos ``slow_receiver`` op turns.
        """
        if rate is not None and rate <= 0:
            raise ConfigurationError("consume_rate must be positive")
        self.consume_rate = rate
        if rate is None:
            while self._backlog:
                key, cost = self._backlog.popleft()
                self._backlog_bytes -= cost
                self._consume(key, cost, tail=True)

    def available(self, space: int, peer: EndpointAddress) -> int:
        """Sender-side credit currently available toward ``peer``."""
        return self._available(space, peer)

    def min_available(self, space: int = MCAST_SPACE) -> Optional[int]:
        """The group window: min credit over current peers (None = no peers)."""
        peers = [p for p in self._peers if p != self.endpoint]
        if not peers:
            return None
        return min(self._available(space, p) for p in peers)

    @property
    def queue_depth(self) -> int:
        """Current bounded send-queue depth."""
        return len(self._queue)

    def dump(self) -> Dict[str, Any]:
        info = super().dump()
        info.update(
            window=self.window,
            manager=self.manager_kind,
            shed_policy=self.shed_policy,
            queued=len(self._queue),
            max_queue_depth=self.max_queue_depth,
            sheds=self.sheds,
            blocked=self.blocked,
            grants_sent=self.grants_sent,
            grants_received=self.grants_received,
            data_charged=self.data_charged,
            bytes_charged=self.bytes_charged,
            backlog_bytes=self._backlog_bytes,
            max_backlog_bytes=self.max_backlog_bytes,
            min_available=self.min_available(),
            recv_flows=len(self._recv),
        )
        return info

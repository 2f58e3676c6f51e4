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

No per-message path touches the metrics registry: every series is
bound when the layer is built, and levels (queue depth, credit
outstanding) are computed when the registry is read.

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

Grants are batched to half-window quanta: a receiver grants once the
credit it has earned back but not yet advertised reaches half the
window, or on the grant tick, so a chatty flow costs two grants per
window, not one per message, and a sender never stalls for more than
half a window plus one tick.

Known limit: credit charged for a message the stack *permanently*
loses (a NAK ``GONE`` placeholder) is never returned.  With CREDIT
above NAK this is self-preventing — bounded senders stop NAK's buffer
evictions, which are the only source of GONEs — but on bare best-effort
stacks (``CREDIT:COM`` under loss) windows can leak; size them
generously there.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Any, Callable, Collection, Deque, Dict, FrozenSet, List, Optional, Tuple,
)

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
from repro.net.address import EndpointAddress
from repro.obs import MetricsRegistry

_DATA = 0  # charged data message
_GRANT = 2  # WINDOW_UPDATE: credit_delta = cumulative granted total

#: Default per-flow window in credit bytes (one credit = one body byte,
#: minimum one per message).
DEFAULT_WINDOW = 64 * 1024

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

_CONFIG_KEYS = frozenset(
    ("window", "max_queue", "shed_policy", "grant_period", "consume_rate")
)

FlowKey = Tuple[int, EndpointAddress]  # (space, peer)


class _Pending:
    """One queued downcall awaiting credit."""

    __slots__ = ("downcall", "space", "cost", "enqueued")

    def __init__(self, downcall, space, cost, enqueued) -> None:
        self.downcall = downcall
        self.space = space
        self.cost = cost
        self.enqueued = enqueued


class _RecvFlow:
    """Receiver-side state for one (space, peer) flow."""

    __slots__ = ("consumed", "advertised")

    def __init__(self, window: int) -> None:
        self.consumed = 0
        self.advertised = window  # the implicit initial grant


@register_layer
class CreditLayer(Layer):
    """Credit-based flow control with end-to-end backpressure.

    Config:
        window (int): per-flow credit window in bytes (default 65536).
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

    Any other key is a :class:`~repro.errors.ConfigurationError`.
    """

    name = "CREDIT"

    def __init__(self, context, **config) -> None:
        super().__init__(context, **config)
        unknown = sorted(set(config) - _CONFIG_KEYS)
        if unknown:
            raise ConfigurationError(
                f"unknown CREDIT config {', '.join(unknown)}; "
                f"known: {', '.join(sorted(_CONFIG_KEYS))}"
            )
        self.window = int(config.get("window", DEFAULT_WINDOW))
        if self.window < 1:
            raise ConfigurationError("window must be at least 1")
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
        #: The view's members but this endpoint: whom a cast charges.
        self._peers: FrozenSet[EndpointAddress] = frozenset()
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
        """Bind every series once: no per-message path looks one up.

        A bare context (no world registry) binds into a private registry
        nobody reads, so the message paths never test for one.
        """
        metrics = self.context.metrics
        if metrics is None:
            metrics = MetricsRegistry()
        endpoint = str(self.endpoint)
        data = metrics.counter(
            "flow_data_messages_total",
            "Credit-charged data messages passed down, by space",
            labels=("space",),
        )
        data_bytes = metrics.counter(
            "flow_data_bytes_total",
            "Credit bytes charged for passed-down data, by space",
            labels=("space",),
        )
        spaces = (MCAST_SPACE, UCAST_SPACE)
        self._m_data = {s: data.labels(space=str(s)) for s in spaces}
        self._m_bytes = {s: data_bytes.labels(space=str(s)) for s in spaces}
        self._m_sheds = metrics.counter(
            "flow_sheds_total",
            "Messages shed by the bounded send queue, by policy",
            labels=("policy",),
        ).labels(policy=self.shed_policy)
        self._m_blocked = metrics.counter(
            "flow_blocked_total",
            "Messages refused with the BLOCKED verdict",
        ).labels()
        self._m_grants = metrics.counter(
            "flow_grants_total", "Credit grants sent"
        ).labels()
        self._m_grant_bytes = metrics.counter(
            "flow_grant_bytes_total", "Credit bytes granted"
        ).labels()
        self._m_wait = metrics.histogram(
            "flow_send_wait_seconds",
            "Time queued messages waited for credit before sending",
        ).labels()
        self._g_depth = metrics.gauge(
            "flow_queue_depth",
            "Current bounded send-queue depth",
            labels=("endpoint",),
        ).labels(endpoint=endpoint)
        self._g_high = metrics.gauge(
            "flow_queue_highwater",
            "High-water mark of the bounded send queue",
            labels=("endpoint",),
        ).labels(endpoint=endpoint)
        outstanding = metrics.gauge(
            "flow_credit_outstanding",
            "Credit extended to peers and not yet consumed (recv role) "
            "or held against peers (send role)",
            labels=("endpoint", "role"),
        )
        self._g_send = outstanding.labels(endpoint=endpoint, role="send")
        self._g_recv = outstanding.labels(endpoint=endpoint, role="recv")

    def _collectors(self) -> List[Callable[[], None]]:
        return [self._collect]

    def _collect(self) -> None:
        """The levels, computed from the layer's own state when read."""
        self._g_depth.set(len(self._queue))
        self._g_high.set(self.max_queue_depth)
        self._g_send.set(sum(
            granted - self._charged[key]
            for key, granted in self._granted.items()
        ))
        self._g_recv.set(sum(
            flow.advertised - flow.consumed for flow in self._recv.values()
        ))

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
        if dtype is DowncallType.CAST:
            space = MCAST_SPACE
        elif dtype is DowncallType.SEND:
            space = UCAST_SPACE
        else:
            if dtype is DowncallType.VIEW and downcall.members is not None:
                self._set_peers(downcall.members)
            self.pass_down(downcall)
            return
        if downcall.message is None:
            self.pass_down(downcall)
            return
        peers = self._payers(space, downcall)
        if not peers:
            # Nobody to protect (no view yet, a self-send, or a send
            # outside the view): pass through uncharged and unheadered.
            downcall.extra["flow_verdict"] = FlowVerdict.ACCEPTED
            self.pass_down(downcall)
            return
        cost = max(1, downcall.message.body_size)
        if not self._queue and self._try_charge(space, peers, cost):
            downcall.extra["flow_verdict"] = FlowVerdict.ACCEPTED
            self._send(downcall, space, cost, 0.0)
            return
        self._enqueue(downcall, space, cost)

    def _payers(
        self, space: int, downcall: Downcall
    ) -> FrozenSet[EndpointAddress]:
        """Whom a message is charged to, on admission and again when it
        leaves the queue: the view's members among its destinations (all
        of them for a cast), so a peer that left meanwhile is not."""
        if space == MCAST_SPACE:
            return self._peers
        return self._peers.intersection(downcall.members or ())

    def _available(self, space: int, peer: EndpointAddress) -> int:
        key = (space, peer)
        granted = self._granted.get(key)
        if granted is None:
            granted = self._granted[key] = self.window
            self._charged[key] = 0
        return granted - self._charged[key]

    def _try_charge(
        self, space: int, peers: Collection[EndpointAddress], cost: int
    ) -> bool:
        """Charge ``cost`` to ``peers`` if every one of them has the credit.

        A message larger than the window might never find that much: it
        needs only the window, which every peer has once nothing is
        outstanding to it, and its overdraft holds everything behind it
        until the receivers repay it.
        """
        available, need = self._available, min(cost, self.window)
        if not all(available(space, peer) >= need for peer in peers):
            return False
        charged = self._charged
        for peer in peers:
            charged[(space, peer)] += cost
        return True

    def _send(
        self, downcall: Downcall, space: int, cost: int, waited: float
    ) -> None:
        """Stamp and pass down a charged message."""
        downcall.message.push_header(
            self.name,
            {"kind": _DATA, "flow_id": space, "credit_delta": cost},
        )
        self.data_charged += 1
        self.bytes_charged += cost
        self._m_data[space].inc()
        self._m_bytes[space].inc(cost)
        self._m_wait.observe(waited)
        self.pass_down(downcall)

    def _enqueue(self, downcall: Downcall, space: int, cost: int) -> None:
        extra = downcall.extra
        if len(self._queue) < self.max_queue:
            self._queue.append(self._pending(downcall, space, cost))
            self.max_queue_depth = max(self.max_queue_depth, len(self._queue))
            extra["flow_verdict"] = FlowVerdict.QUEUED
            return
        if self.shed_policy == "block":
            self.blocked += 1
            self._m_blocked.inc()
            extra["flow_verdict"] = FlowVerdict.BLOCKED
        else:
            self.sheds += 1
            self._m_sheds.inc()
            if self.shed_policy == "drop_newest":
                extra["flow_verdict"] = FlowVerdict.SHED
            else:  # drop_oldest: shed the queue head to admit this one
                self._queue.popleft()
                self._queue.append(self._pending(downcall, space, cost))
                extra["flow_verdict"] = FlowVerdict.QUEUED
        self._note_overload()

    def _pending(self, downcall, space, cost) -> _Pending:
        """Only a message that really waits reads the clock."""
        return _Pending(downcall, space, cost, self.now)

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
        queue = self._queue
        while queue:
            head = queue[0]
            peers = self._payers(head.space, head.downcall)
            if not self._try_charge(head.space, peers, head.cost):
                break
            queue.popleft()
            if peers:
                self._send(head.downcall, head.space, head.cost,
                           self.now - head.enqueued)
            else:  # its peers all left: uncharged, as on admission
                self.pass_down(head.downcall)
        if self._overloaded and len(queue) <= self.max_queue // 2:
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
        # DATA: deliver first, account afterwards so flow control never
        # delays or reorders the delivery path.
        self.pass_up(upcall)
        if upcall.source is None or upcall.source == self.endpoint:
            return  # a local loopback copy consumes no credit
        key = (header["flow_id"], upcall.source)
        cost = int(header["credit_delta"])
        flow = self._recv_flow(key)
        if self.consume_rate is None:
            flow.consumed += cost
            self._maybe_grant(key, flow, tail=False)
        else:
            self._backlog.append((key, cost))
            self._backlog_bytes += cost
            self.max_backlog_bytes = max(
                self.max_backlog_bytes, self._backlog_bytes
            )

    def _recv_flow(self, key: FlowKey) -> _RecvFlow:
        flow = self._recv.get(key)
        if flow is None:
            flow = self._recv[key] = _RecvFlow(self.window)
        return flow

    def _consume(self, key: FlowKey, cost: int, tail: bool = False) -> None:
        flow = self._recv_flow(key)
        flow.consumed += cost
        self._maybe_grant(key, flow, tail=tail)

    def _maybe_grant(self, key: FlowKey, flow: _RecvFlow, tail: bool) -> None:
        """Grant what ``flow`` has earned back once that is half the
        window, or any of it on the tail tick."""
        amount = flow.consumed + self.window - flow.advertised
        if amount <= 0 or not (tail or 2 * amount >= self.window):
            return
        flow.advertised += amount
        space, peer = key
        grant = Message()
        grant.push_header(
            self.name,
            {"kind": _GRANT, "flow_id": space,
             "credit_delta": flow.advertised},
        )
        self.grants_sent += 1
        self._m_grants.inc()
        self._m_grant_bytes.inc(amount)
        self.pass_down(
            Downcall(DowncallType.SEND, message=grant, members=[peer])
        )

    def _on_grant(
        self, source: Optional[EndpointAddress], space: int, total: int
    ) -> None:
        if source is None:
            return
        key = (space, source)
        if key not in self._granted and source not in self._peers:
            return  # a departed peer's late grant opens no account
        self._available(space, source)  # ensure the account exists
        # Cumulative totals make duplicated/reordered grants idempotent.
        if total > self._granted[key]:
            self._granted[key] = total
        self.grants_received += 1
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
        new_peers = frozenset(p for p in members if p != self.endpoint)
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
        if not self._peers:
            return None
        return min(self._available(space, p) for p in self._peers)

    @property
    def queue_depth(self) -> int:
        """Current bounded send-queue depth."""
        return len(self._queue)

    def dump(self) -> Dict[str, Any]:
        info = super().dump()
        info.update(
            window=self.window,
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

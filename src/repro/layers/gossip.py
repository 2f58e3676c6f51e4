"""GOSSIP — SWIM failure detection as a protocol layer.

The scalable waist of the hourglass: where MBRSHIP's own detection
(per-member timeout scans plus flush-protocol eviction) costs O(n) per
view change, GOSSIP runs the SWIM protocol — randomized round-robin
ping, k-indirect ping-req, incarnation-refutable suspicion, and
infection-style dissemination — at constant per-member message load
regardless of group size.

The layer owns a :class:`~repro.gossip.swim.SwimCore` whose node ids
are endpoint addresses of the group's members (learned from VIEW
traffic crossing the layer in either direction).  SWIM verdicts leave
the layer two ways:

* with an ``external_fd``
  (:class:`~repro.membership.ExternalFailureDetector`) configured, each
  confirmed failure is filed as a problem report, so *every* subscribed
  MBRSHIP instance hears the same verdicts in the same order — the
  Section 5 consistency property, now fed by SWIM;
* otherwise the verdict surfaces as a ``PROBLEM`` upcall, which a
  stacked MBRSHIP above converts into suspicion directly.

Placement: just above COM (e.g. ``"MBRSHIP:FRAG:NAK:GOSSIP:COM"``), so
SWIM's probes travel best-effort — a failure detector that rode a
reliable layer would have its pings retransmitted to a corpse forever,
and its timeouts would measure the retransmission budget, not the
peer.  MBRSHIP has no scan of its own to disable: it suspects a member
on a ``PROBLEM`` upcall (NAK raises one after ``problem_timeout`` of
silence), and with an ``external_fd`` it files that upcall with the
service instead — where GOSSIP's verdicts land as well.

All timing runs on the stack's Clock and all randomness on the stack's
seeded rng stream, so DES runs remain digest-deterministic.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.core import headers as hdr
from repro.core.events import Downcall, DowncallType, Upcall, UpcallType
from repro.core.layer import Layer
from repro.core.message import Message
from repro.core.stack import register_layer
from repro.errors import ConfigurationError
from repro.gossip.detector import GossipFailureDetector
from repro.gossip.swim import SwimConfig, SwimCore
from repro.net.address import EndpointAddress

_NOBODY = EndpointAddress("", 0)

hdr.register(
    "GOSSIP",
    fields=[
        ("kind", hdr.U8),
        ("inc", hdr.U32),
        ("origin", hdr.ADDRESS),
        ("subject", hdr.ADDRESS),
        ("subject_inc", hdr.U32),
        # One membership update per index: parallel lists keep the
        # codec declarative (no nested tuple field type needed).
        ("upd_nodes", hdr.ListOf(hdr.ADDRESS)),
        ("upd_states", hdr.ListOf(hdr.U8)),
        ("upd_incs", hdr.ListOf(hdr.U32)),
    ],
    defaults={
        "inc": 0,
        "subject": _NOBODY,
        "subject_inc": 0,
        "upd_nodes": [],
        "upd_states": [],
        "upd_incs": [],
    },
)


@register_layer
class GossipLayer(Layer):
    """SWIM failure detection over the stack's unreliable send path.

    Config:
        period (float): protocol period in seconds (default 1.0).
        ping_timeout (float): direct-ack deadline (default 0.25).
        indirect_timeout (float): indirect-ack deadline (default 0.5).
        k_indirect (int): proxies per indirect probe (default 3).
        suspect_timeout (float): suspicion-to-confirmation deadline
            (default 6.0).
        piggyback (int): max updates carried per message (default 12).
        retransmit_mult (int): per-update transmit budget multiplier
            (default 3).
        sync_period (float): anti-entropy pull cadence; 0 disables
            (default 20.0).
        notify (str): which SWIM transition becomes a verdict —
            ``confirm`` (default) or ``suspect``.
        external_fd: optional
            :class:`~repro.membership.ExternalFailureDetector`; when
            given, verdicts are filed as problem reports there instead
            of surfacing as PROBLEM upcalls.
    """

    name = "GOSSIP"

    def __init__(self, context, **config) -> None:
        super().__init__(context, **config)
        self.swim_config = SwimConfig(
            period=float(config.get("period", 1.0)),
            ping_timeout=float(config.get("ping_timeout", 0.25)),
            indirect_timeout=float(config.get("indirect_timeout", 0.5)),
            k_indirect=int(config.get("k_indirect", 3)),
            suspect_timeout=float(config.get("suspect_timeout", 6.0)),
            piggyback=int(config.get("piggyback", 12)),
            retransmit_mult=int(config.get("retransmit_mult", 3)),
            sync_period=float(config.get("sync_period", 20.0)),
        )
        self.notify = str(config.get("notify", "confirm"))
        if self.notify not in ("confirm", "suspect"):
            raise ConfigurationError(
                f"notify must be confirm|suspect, got {self.notify!r}"
            )
        self.external_fd = config.get("external_fd")
        self.core = SwimCore(
            self.endpoint,
            (self.endpoint,),
            context.scheduler,
            context.rng,
            self._ship,
            self.swim_config,
            on_confirm=self._verdict if self.notify == "confirm" else None,
            on_suspect=self._verdict if self.notify == "suspect" else None,
        )
        self._tick_timer = self.periodic(self.swim_config.period, self._tick)
        self._known: List[EndpointAddress] = [self.endpoint]
        self._last_stats: Dict[str, int] = dict(self.core.stats)
        self._init_metrics()

    def _init_metrics(self) -> None:
        metrics = self.context.metrics
        self._m = None
        if metrics is None:
            return
        self._m = {
            "pings": metrics.counter(
                "gossip_pings_total", "SWIM pings sent"),
            "acks": metrics.counter(
                "gossip_acks_total", "SWIM acks sent"),
            "ping_reqs": metrics.counter(
                "gossip_ping_reqs_total", "Indirect ping requests sent"),
            "suspects": metrics.counter(
                "gossip_suspects_total", "Suspicion transitions applied"),
            "confirms": metrics.counter(
                "gossip_confirms_total", "Confirmed-dead transitions applied"),
            "refutes": metrics.counter(
                "gossip_refutes_total", "Incarnation-bump refutations"),
            "resurrections": metrics.counter(
                "gossip_resurrections_total",
                "Dead records overridden by higher incarnations"),
            "updates_sent": metrics.counter(
                "gossip_updates_piggybacked_total",
                "Membership updates piggybacked on messages"),
            "syncs": metrics.counter(
                "gossip_syncs_total", "Anti-entropy state snapshots served"),
        }

    def _collectors(self) -> List[Callable[[], None]]:
        return [self._collect]

    def _collect(self) -> None:
        """Add the SWIM counts made since the last read: exact at every
        export and after stop.  Stacks share each family, so every layer
        adds only its own delta."""
        stats = self.core.stats
        last = self._last_stats
        for key, family in self._m.items():
            delta = stats[key] - last[key]
            if delta:
                family.inc(delta)
                last[key] = stats[key]

    # ------------------------------------------------------------------
    # Lifecycle and timing
    # ------------------------------------------------------------------

    def start(self) -> None:
        # Stagger the first period so group members do not probe in
        # lock-step (they all start at join time).
        stagger = self.context.rng.uniform(0, self.swim_config.period)
        kickoff = self.one_shot(max(stagger, 1e-9), self._begin)
        kickoff.start()

    def _begin(self) -> None:
        self._tick()
        self._tick_timer.start()

    def _tick(self) -> None:
        process = self.context.process
        if process is not None and not process.alive:
            return
        self.core.tick()

    # ------------------------------------------------------------------
    # Peer tracking
    # ------------------------------------------------------------------

    def _learn_members(self, members: Optional[List[EndpointAddress]]) -> None:
        if not members:
            return
        known = set(self._known)
        grew = False
        for member in members:
            if member not in known:
                known.add(member)
                self._known.append(member)
                grew = True
        if grew:
            self.core.set_peers(tuple(self._known))

    # ------------------------------------------------------------------
    # HCPI edges
    # ------------------------------------------------------------------

    def handle_down(self, downcall: Downcall) -> None:
        if downcall.type is DowncallType.VIEW and downcall.members:
            self._learn_members(downcall.members)
        self.pass_down(downcall)

    def handle_up(self, upcall: Upcall) -> None:
        if upcall.type is UpcallType.VIEW:
            self._learn_members(upcall.members)
            self.pass_up(upcall)
            return
        message = upcall.message
        if (
            upcall.type in (UpcallType.CAST, UpcallType.SEND)
            and message is not None
            and message.top_owner() == self.name
        ):
            self._dispatch(message.pop_header(self.name))
            return
        self.pass_up(upcall)

    # ------------------------------------------------------------------
    # Wire adaptation (header dict <-> SwimCore message dict)
    # ------------------------------------------------------------------

    def _ship(self, target: EndpointAddress, msg: Dict[str, Any]) -> None:
        header: Dict[str, Any] = {
            "kind": msg["k"],
            "origin": msg["f"],
            "inc": msg.get("i", 0),
        }
        subject = msg.get("s")
        if subject is not None:
            header["subject"] = subject
            header["subject_inc"] = msg.get("si", 0)
        updates = msg.get("u")
        if updates:
            header["upd_nodes"] = [node for node, _, _ in updates]
            header["upd_states"] = [state for _, state, _ in updates]
            header["upd_incs"] = [inc for _, _, inc in updates]
        message = Message()
        message.push_header(self.name, header)
        self.pass_down(
            Downcall(DowncallType.SEND, message=message, members=[target])
        )

    def _dispatch(self, header: Dict[str, Any]) -> None:
        msg: Dict[str, Any] = {
            "k": header["kind"],
            "f": header["origin"],
            "i": header.get("inc", 0),
        }
        subject = header.get("subject", _NOBODY)
        if subject != _NOBODY:
            msg["s"] = subject
            msg["si"] = header.get("subject_inc", 0)
        nodes = header.get("upd_nodes") or []
        if nodes:
            msg["u"] = list(
                zip(nodes, header.get("upd_states", []),
                    header.get("upd_incs", []))
            )
        self._learn_members([msg["f"]])
        self.core.on_message(msg)

    # ------------------------------------------------------------------
    # Verdicts
    # ------------------------------------------------------------------

    def _verdict(self, node: EndpointAddress) -> None:
        self.trace("verdict", member=node, notify=self.notify)
        if self.external_fd is not None:
            self.external_fd.report_problem(self.endpoint, node)
            return
        self.pass_up(
            Upcall(
                UpcallType.PROBLEM,
                source=node,
                extra={"reason": "gossip", "layer": self.name},
            )
        )

    # ------------------------------------------------------------------
    # Application surface (via ``handle.focus("GOSSIP")``)
    # ------------------------------------------------------------------

    def detector(self, notify_on: str = "confirm") -> GossipFailureDetector:
        """This member's SWIM core behind the FailureDetector protocol."""
        return GossipFailureDetector(self.core, notify_on=notify_on)

    def dump(self) -> Dict[str, Any]:
        info = super().dump()
        info.update(
            incarnation=self.core.incarnation,
            known=len(self._known),
            suspects=self.core.suspect_count,
            deads=self.core.dead_count,
            stats=dict(self.core.stats),
        )
        return info

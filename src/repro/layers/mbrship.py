"""MBRSHIP — virtually synchronous group membership (Section 5).

"The MBRSHIP layer simulates an environment for the members of a group
in which members can only fail (they cannot be slow or get
disconnected) and messages do not get lost. ... Each member in the
current view is guaranteed either to accept that same view, or to be
removed from that view.  Messages sent in the current view are
delivered to the surviving members of the current view ... This is
called virtual synchrony."

At the heart of the layer is the *flush* protocol (Figure 2):

1. A member crash is detected (or a join/leave/merge arrives).  The
   coordinator — "usually the oldest surviving member of the oldest
   view", elected without any message exchange — broadcasts a FLUSH
   message to the surviving members of its view.
2. "All members first return any messages from failed members that are
   not known to have been delivered everywhere" (the *unstable*
   messages), then reply FLUSH_OK, carrying their per-source delivery
   vector.
3. "Upon receiving all FLUSH_OK replies, the coordinator broadcasts any
   messages from failed members that are still unstable.  At this point
   a new view may be installed."  The INSTALL message carries the final
   delivery vector; each member installs the view only once its own
   deliveries match the vector, which is what makes the message set per
   view identical at all survivors.
4. "If processes fail during the process, a new round of the flush
   protocol may start up immediately" — rounds are numbered, and a
   newly eligible coordinator restarts with a higher round.

Merges (after partitions heal, or plain joins) enter through the same
machinery: joiners become new members appended in the install, and a
merging view first quiesces itself with an install-less flush before
asking the older view's coordinator to absorb it.

Partition behaviour is a policy (Section 9): ``partition="primary"``
(Isis-style, minority components block), ``"evs"`` (extended virtual
synchrony, every component proceeds), or ``"relacs"``.

Properties (Table 3): requires P3, P4, P10, P11, P12; provides P8
(virtually semi-synchronous), P9 (virtually synchronous), and P15
(consistent views).
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core import headers as hdr
from repro.core.events import Downcall, DowncallType, Upcall, UpcallType
from repro.core.layer import Layer
from repro.core.message import Message
from repro.core.stack import register_layer
from repro.core.view import View, ViewId
from repro.net.address import EndpointAddress

_DATA = 0  # application multicast, sequenced per (view, origin)
_SEND_DATA = 1  # application subset send (FIFO-reliable, view-tagged)
_JOIN_REQ = 2  # a new endpoint asks to join
_FLUSH = 3  # coordinator starts a flush round
_FLUSH_OK = 4  # member reply: delivery vector (unstable msgs precede it)
_INSTALL = 5  # coordinator: new view + final vector (new_vid=0: quiesce only)
_LEAVE_REQ = 6  # graceful leave request
_SUSPECT = 7  # failure suspicion forwarded to the coordinator
_MERGE_REQ = 8  # a younger view's coordinator asks to be absorbed
_MERGE_DENIED = 9  # merge refusal
_MERGE_PROBE = 10  # reachability check before quiescing for a merge
_MERGE_PROBE_ACK = 11  # the probe's answer
_STABILITY = 12  # periodic delivery-vector gossip: prunes the store

_NOBODY = EndpointAddress("", 0)

hdr.register(
    "MBRSHIP",
    fields=[
        ("kind", hdr.U8),
        ("vid", hdr.U32),
        ("new_vid", hdr.U32),
        ("round", hdr.U32),
        ("seq", hdr.U64),
        ("origin", hdr.ADDRESS),
        ("members", hdr.ListOf(hdr.ADDRESS)),
        ("joiners", hdr.ListOf(hdr.ADDRESS)),
        ("failed", hdr.ListOf(hdr.ADDRESS)),
        ("vector", hdr.MapOf(hdr.ADDRESS, hdr.U64)),
    ],
    defaults={
        "vid": 0,
        "new_vid": 0,
        "round": 0,
        "seq": 0,
        "origin": _NOBODY,
        "members": [],
        "joiners": [],
        "failed": [],
        "vector": {},
    },
)


class _FlushState:
    """Coordinator-side bookkeeping for one flush round."""

    __slots__ = ("round", "participants", "new_members", "failed", "joiners", "vectors")

    def __init__(
        self,
        round_no: int,
        participants: List[EndpointAddress],
        new_members: List[EndpointAddress],
        failed: List[EndpointAddress],
        joiners: List[EndpointAddress],
    ) -> None:
        self.round = round_no
        self.participants = participants  # who must reply FLUSH_OK
        self.new_members = new_members  # survivors minus leavers, age order
        self.failed = failed
        self.joiners = joiners
        self.vectors: Dict[EndpointAddress, Dict[EndpointAddress, int]] = {}

    @property
    def complete(self) -> bool:
        return all(p in self.vectors for p in self.participants)


@register_layer
class MembershipLayer(Layer):
    """Virtual synchrony: consistent views plus per-view message cuts.

    Config:
        partition (str): "primary" (default), "evs", or "relacs".
        flush_timeout (float): coordinator restart interval (default 1.0 s).
        join_timeout (float): join-request retry interval (default 1.0 s).
        merge_retry (float): blocked-component merge probe period (default 1.0 s).
        auto_grant (bool): grant merge/join requests without asking the
            application (default True).
        external_fd: optional
            :class:`~repro.membership.external_fd.ExternalFailureDetector`;
            when given, local problem reports are routed through it and
            only its verdicts create suspicion (pass via ``overrides``).
    """

    name = "MBRSHIP"

    def __init__(self, context, **config) -> None:
        super().__init__(context, **config)
        from repro.membership.partition_models import partition_policy

        self.policy = partition_policy(str(config.get("partition", "primary")))
        self.flush_timeout = float(config.get("flush_timeout", 1.0))
        self.join_timeout = float(config.get("join_timeout", 1.0))
        self.merge_retry = float(config.get("merge_retry", 1.0))
        self.auto_grant = bool(config.get("auto_grant", True))
        #: With vs=False the layer agrees on views only (the BMS
        #: microprotocol): no message store, no unstable relay, no
        #: delivery-cut vector — P15 without P8/P9.
        self.vs = bool(config.get("vs", True))
        self.external_fd = config.get("external_fd")
        if self.external_fd is not None:
            self.external_fd.subscribe(partial(self._enter, self._on_fd_verdict))

        # Identity within the group.
        self.state = "init"  # init/joining/normal/flushing/blocked/left
        self.view: Optional[View] = None
        # Per-view data tracking.
        self.my_seq = 0
        self.delivered: Dict[EndpointAddress, int] = {}
        self.store: Dict[Tuple[EndpointAddress, int], Message] = {}
        self.pending: Dict[EndpointAddress, Dict[int, Tuple[Message, Message]]] = {}
        self.queued_casts: List[Downcall] = []
        #: True from an install until the callback queued behind its VIEW
        #: downcall runs: casts are held until that downcall is below.
        self._view_queued = False
        # Membership change inputs.
        self.suspected: Set[EndpointAddress] = set()
        self.leavers: Set[EndpointAddress] = set()
        self.joiners: List[EndpointAddress] = []
        self.absorb_vids: List[int] = []
        # Flush machinery.
        self.flush: Optional[_FlushState] = None
        self._responded: Tuple[int, int] = (0, 0)  # (vid, round) last answered
        self._flush_scheduled = False
        #: (view, vector to deliver up to, whether it succeeds our view
        #: through a flush we took part in).
        self._pending_install: Optional[
            Tuple[View, Dict[EndpointAddress, int], bool]
        ] = None
        self._premerge_vector: Optional[Dict[EndpointAddress, int]] = None
        self._future: Dict[int, List[Tuple[Message, EndpointAddress, UpcallType]]] = {}
        # Merge machinery.
        self._merge_target: Optional[EndpointAddress] = None
        self._merge_candidate: Optional[EndpointAddress] = None
        self._policy_blocked = False
        self._pending_merge_reqs: Dict[EndpointAddress, List[EndpointAddress]] = {}
        # Join machinery.
        self._join_candidates: List[EndpointAddress] = []
        # Stability gossip: per member, its last reported delivery
        # vector; store entries everyone delivered are pruned ("it is
        # necessary that all members log all *unstable* messages" —
        # stable ones need no logging).
        self.stability_period = float(config.get("stability_period", 1.0))
        self._peer_vectors: Dict[EndpointAddress, Dict[EndpointAddress, int]] = {}
        self._pruned_to: Dict[EndpointAddress, int] = {}  # per origin
        self.store_pruned = 0
        # Timers.
        self._join_timer = self.one_shot(self.join_timeout, self._join_retry)
        self._flush_timer = self.one_shot(self.flush_timeout, self._flush_retry)
        self._merge_timer = self.periodic(self.merge_retry, self._merge_probe)
        self._stability_timer = self.periodic(
            self.stability_period, self._stability_tick
        )
        # Statistics.
        self.views_installed = 0
        self.flushes_started = 0

    def start(self) -> None:
        self._stability_timer.start()
        self.relays_sent = 0
        self.stale_dropped = 0
        self.lost_messages = 0

    # ==================================================================
    # Downcalls
    # ==================================================================

    def handle_down(self, downcall: Downcall) -> None:
        dtype = downcall.type
        if dtype is DowncallType.CAST and downcall.message is not None:
            if self.state == "normal" and not self._view_queued:
                self._cast_now(downcall)
            else:
                self.queued_casts.append(downcall)
        elif dtype is DowncallType.SEND and downcall.message is not None:
            self._subset_send(downcall)
        elif dtype is DowncallType.JOIN:
            self.pass_down(downcall)
            self._bootstrap()
        elif dtype is DowncallType.LEAVE:
            self._start_leave()
        elif dtype is DowncallType.MERGE:
            self._start_merge(downcall.extra.get("contact"))
        elif dtype is DowncallType.FLUSH:
            # Application-forced flush: treat the listed members as failed.
            for member in downcall.members or []:
                self._suspect(member, via="application")
        elif dtype is DowncallType.MERGE_GRANTED:
            origin = downcall.extra.get("origin")
            members = self._pending_merge_reqs.pop(origin, None)
            if members is not None:
                self._absorb(origin, members, downcall.extra.get("vid", 0))
        elif dtype is DowncallType.MERGE_DENIED:
            origin = downcall.extra.get("origin")
            if origin is not None and self._pending_merge_reqs.pop(origin, None) is not None:
                self._control(
                    _MERGE_DENIED, [origin], origin=self.endpoint
                )
        elif dtype is DowncallType.VIEW:
            # The application cannot override agreed membership.
            self.trace("view_downcall_ignored")
        else:
            self.pass_down(downcall)

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------

    def _cast_now(self, downcall: Downcall) -> None:
        self.my_seq += 1
        message = downcall.message
        message.push_owned_header(
            self.name,
            {
                "kind": _DATA,
                "vid": self.view.view_id.epoch,
                "seq": self.my_seq,
                "origin": self.endpoint,
            },
        )
        if self.vs:
            self.store[(self.endpoint, self.my_seq)] = message.shallow_copy()
        self.pass_down(downcall)

    def _subset_send(self, downcall: Downcall) -> None:
        if self.view is None:
            return
        message = downcall.message
        message.push_owned_header(
            self.name,
            {
                "kind": _SEND_DATA,
                "vid": self.view.view_id.epoch,
                "origin": self.endpoint,
            },
        )
        self.pass_down(downcall)

    # ------------------------------------------------------------------
    # Bootstrap and join
    # ------------------------------------------------------------------

    def _bootstrap(self) -> None:
        directory = self.context.directory
        contacts = (
            directory.contacts(self.group, self.endpoint) if directory else []
        )
        if not contacts:
            self._install_view(View.initial(self.group, self.endpoint))
            return
        self.state = "joining"
        self._join_candidates = contacts
        self._join_attempt()

    def _join_attempt(self) -> None:
        if self.state != "joining":
            return
        if not self._join_candidates:
            # Everyone listed in the directory is unresponsive; found a
            # group of one.
            self._install_view(View.initial(self.group, self.endpoint))
            return
        target = self._join_candidates.pop(0)
        self.trace("join_request", target=target)
        self._control(_JOIN_REQ, [target], origin=self.endpoint)
        self._join_timer.start()

    def _join_retry(self) -> None:
        if self.state != "joining":
            return
        directory = self.context.directory
        if directory is not None and not self._join_candidates:
            self._join_candidates = [
                c
                for c in directory.contacts(self.group, self.endpoint)
            ]
            if not self._join_candidates:
                self._install_view(View.initial(self.group, self.endpoint))
                return
        self._join_attempt()

    # ------------------------------------------------------------------
    # Leave and merge initiation
    # ------------------------------------------------------------------

    def _start_leave(self) -> None:
        if self.state == "left":
            return
        if self.view is None or self.view.size == 1:
            self._exit()
            return
        self.leavers.add(self.endpoint)
        if self._am_coordinator():
            self._schedule_flush()
        else:
            self._control(
                _LEAVE_REQ, [self._current_coordinator()], origin=self.endpoint
            )

    def _start_merge(self, contact: Optional[EndpointAddress]) -> None:
        if contact is None or self.view is None:
            return
        if not self._am_coordinator():
            self.trace("merge_ignored", reason="not coordinator")
            return
        if self.view.size == 1:
            self._merge_target = contact
            self._send_merge_request()
            return
        # Quiescing blocks the whole view, so first make sure the other
        # side is actually reachable: probe, and only quiesce on the
        # answer.  (A probe sent into a partition simply waits in the
        # reliable unicast layer until the network heals.)
        self._merge_candidate = contact
        self._control(_MERGE_PROBE, [contact], origin=self.endpoint)

    def _send_merge_request(self) -> None:
        if self._merge_target is None or self.view is None:
            return
        self.trace("merge_request", target=self._merge_target)
        self._control(
            _MERGE_REQ,
            [self._merge_target],
            origin=self.endpoint,
            vid=self.view.view_id.epoch,
            members=list(self.view.members),
        )

    def _on_merge_probe_ack(self, contact: EndpointAddress) -> None:
        """The merge target is reachable: now it is safe to quiesce."""
        if (
            contact != self._merge_candidate
            or self.view is None
            or self.view.contains(contact)
            or not self._am_coordinator()
            or self.state != "normal"
        ):
            return
        self._merge_candidate = None
        self._merge_target = contact
        self._schedule_flush()

    def _merge_probe(self) -> None:
        """While blocked (minority partition), keep trying to rejoin.

        The members worth probing are exactly the ones we suspect: they
        are the other side of the partition, and our reliable unicast
        layer will deliver the request once connectivity returns.
        """
        if self.state != "blocked" or self.view is None:
            return
        directory = self.context.directory
        if directory is None:
            return
        for candidate in directory.lookup(self.group):
            if candidate == self.endpoint:
                continue
            if candidate in self.suspected or not self.view.contains(candidate):
                self._merge_target = candidate
                self._send_merge_request()
                return

    # ==================================================================
    # Upcalls
    # ==================================================================

    def handle_up(self, upcall: Upcall) -> None:
        utype = upcall.type
        if utype is UpcallType.VIEW:
            return  # COM's connectivity snapshot; we own real views
        if utype is UpcallType.PROBLEM:
            if upcall.source is not None:
                self._suspect(upcall.source, via="problem")
            return
        if utype is UpcallType.LOST_MESSAGE:
            self.lost_messages += 1
            self.trace("lost_message_below", detail=str(upcall.extra))
            return
        if utype in (UpcallType.CAST, UpcallType.SEND) and upcall.message is not None:
            if upcall.message.top_owner() != self.name:
                self.pass_up(upcall)
                return
            self._dispatch(upcall)
            return
        self.pass_up(upcall)

    def _dispatch(self, upcall: Upcall) -> None:
        message = upcall.message
        header = message.pop_header(self.name)
        kind = header["kind"]
        if kind in (_DATA, _SEND_DATA):
            # The retransmission precopy keeps its own header entry (a
            # relay's receiver pops it); the dict is shared — read-only
            # by convention — so no deep copy.
            precopy = message.shallow_copy()
            precopy.push_owned_header(self.name, header)
        else:
            precopy = None
        if kind == _DATA:
            self._on_data(header, message, precopy, upcall)
        elif kind == _SEND_DATA:
            self._on_send_data(header, message, precopy, upcall.source)
        elif kind == _JOIN_REQ:
            self._on_join_req(header)
        elif kind == _FLUSH:
            self._on_flush(header)
        elif kind == _FLUSH_OK:
            self._on_flush_ok(header, upcall.source)
        elif kind == _INSTALL:
            self._on_install(header)
        elif kind == _LEAVE_REQ:
            self._on_leave_req(header)
        elif kind == _SUSPECT:
            # Suspicions are only meaningful within the view they were
            # formed in; a stale one (e.g. queued during a partition and
            # delivered after the heal) must not poison the new view.
            if self.view is not None and header["vid"] == self.view.view_id.epoch:
                self._suspect(header["origin"], via="peer")
        elif kind == _MERGE_REQ:
            self._on_merge_req(header)
        elif kind == _MERGE_PROBE:
            self._control(_MERGE_PROBE_ACK, [header["origin"]], origin=self.endpoint)
        elif kind == _MERGE_PROBE_ACK:
            self._on_merge_probe_ack(header["origin"])
        elif kind == _STABILITY:
            self._on_stability(header)
        elif kind == _MERGE_DENIED:
            self.trace("merge_denied", origin=header["origin"])
            self.pass_up(
                Upcall(UpcallType.MERGE_DENIED, source=header["origin"])
            )

    # ------------------------------------------------------------------
    # Data reception
    # ------------------------------------------------------------------

    def _on_data(
        self,
        header: Dict[str, Any],
        message: Message,
        precopy: Message,
        upcall: Upcall,
    ) -> None:
        if self.view is None:
            self.stale_dropped += 1
            return
        vid = header["vid"]
        epoch = self.view.view_id.epoch
        if vid < epoch or self.state == "left":
            self.stale_dropped += 1
            return
        origin = header["origin"]
        if vid > epoch:
            self._future.setdefault(vid, []).append(
                (precopy, origin, upcall.type)
            )
            return
        if not self.view.contains(origin):
            # Epochs are only unique per component; a concurrent view in
            # another partition may share our epoch number, so data from
            # non-members must be rejected (COM's "spurious messages").
            self.stale_dropped += 1
            return
        seq = header["seq"]
        delivered = self.delivered.get(origin, 0)
        if seq > delivered + 65536:
            self.stale_dropped += 1  # garbled sequence number
            return
        if seq <= delivered:
            return  # duplicate (e.g. a relay of something we had)
        if seq == delivered + 1 and not self.pending.get(origin):
            # In-order fast path (the steady state): deliver without the
            # pending-slot round trip, reusing the incoming upcall when
            # it already is the CAST it will leave as.
            self.delivered[origin] = seq
            if self.vs:
                self.store[(origin, seq)] = precopy
            self.trace("deliver", origin=origin, seq=seq, vid=epoch)
            if upcall.type is UpcallType.CAST:
                upcall.source = origin
                self.pass_up(upcall)
            else:
                self.pass_up(
                    Upcall(UpcallType.CAST, message=message, source=origin)
                )
            if (
                self._pending_install is not None
                or self._premerge_vector is not None
            ):
                self._check_install()
            return
        slot = self.pending.setdefault(origin, {})
        if seq in slot:
            return
        slot[seq] = (message, precopy)
        self._drain_origin(origin)
        if self._pending_install is not None or self._premerge_vector is not None:
            self._check_install()

    def _drain_origin(self, origin: EndpointAddress) -> None:
        slot = self.pending.get(origin)
        if not slot:
            return
        next_seq = self.delivered.get(origin, 0) + 1
        while next_seq in slot:
            message, precopy = slot.pop(next_seq)
            self.delivered[origin] = next_seq
            if self.vs:
                self.store[(origin, next_seq)] = precopy
            self.trace("deliver", origin=origin, seq=next_seq,
                       vid=self.view.view_id.epoch)
            self.pass_up(Upcall(UpcallType.CAST, message=message, source=origin))
            next_seq += 1

    def _on_send_data(
        self,
        header: Dict[str, Any],
        message: Message,
        precopy: Message,
        source: Optional[EndpointAddress],
    ) -> None:
        if self.view is None:
            self.stale_dropped += 1
            return
        vid = header["vid"]
        epoch = self.view.view_id.epoch
        if vid > epoch:
            # Sent in a view we are about to install (e.g. the view key
            # the new coordinator dispatched immediately on installing);
            # hold it until our own install catches up.
            self._future.setdefault(vid, []).append(
                (precopy, source or header["origin"], UpcallType.SEND)
            )
            return
        if vid < epoch:
            self.stale_dropped += 1
            return
        self.pass_up(
            Upcall(UpcallType.SEND, message=message, source=header["origin"])
        )

    # ------------------------------------------------------------------
    # Suspicion
    # ------------------------------------------------------------------

    def _suspect(self, member: EndpointAddress, via: str) -> None:
        if self.view is None or member == self.endpoint:
            return
        if not self.view.contains(member) and member not in self.joiners:
            return
        if self.external_fd is not None and via == "problem":
            self.external_fd.report_problem(self.endpoint, member)
            return
        if member in self.suspected:
            return
        self.suspected.add(member)
        self.trace("suspect", member=member, via=via)
        if self._am_coordinator():
            self._schedule_flush()
        else:
            self._control(
                _SUSPECT,
                [self._current_coordinator()],
                origin=member,
                vid=self.view.view_id.epoch,
            )

    def _on_fd_verdict(self, member: EndpointAddress) -> None:
        """A consistent verdict from the external failure detector."""
        self._suspect(member, via="external")

    def _current_coordinator(self) -> EndpointAddress:
        """Oldest member of the current view we do not suspect."""
        assert self.view is not None
        for member in self.view.members:
            if member not in self.suspected:
                return member
        return self.endpoint

    def _am_coordinator(self) -> bool:
        return (
            self.view is not None
            and self.state not in ("init", "joining", "left")
            and self._current_coordinator() == self.endpoint
        )

    # ------------------------------------------------------------------
    # Requests arriving at (or forwarded to) the coordinator
    # ------------------------------------------------------------------

    def _on_join_req(self, header: Dict[str, Any]) -> None:
        joiner = header["origin"]
        if self.view is None or self.state in ("init", "joining", "left"):
            return
        if not self._am_coordinator():
            self._control(_JOIN_REQ, [self._current_coordinator()], origin=joiner)
            return
        if self.view.contains(joiner) or joiner in self.joiners:
            return
        if not self.auto_grant:
            self._pending_merge_reqs[joiner] = [joiner]
            self.pass_up(Upcall(UpcallType.MERGE_REQUEST, source=joiner))
            return
        self.joiners.append(joiner)
        self.trace("joiner_accepted", joiner=joiner)
        self._schedule_flush()

    def _on_leave_req(self, header: Dict[str, Any]) -> None:
        leaver = header["origin"]
        if self.view is None or not self.view.contains(leaver):
            return
        self.leavers.add(leaver)
        if self._am_coordinator():
            self._schedule_flush()

    def _on_merge_req(self, header: Dict[str, Any]) -> None:
        their_coord = header["origin"]
        their_members = header["members"]
        their_vid = header["vid"]
        if self.view is None or self.state in ("init", "joining", "left"):
            return
        if not self._am_coordinator():
            self._control(
                _MERGE_REQ,
                [self._current_coordinator()],
                origin=their_coord,
                vid=their_vid,
                members=their_members,
            )
            return
        theirs = ViewId(epoch=their_vid, coordinator=their_coord)
        if self._policy_blocked:
            # A minority forbidden to install views cannot absorb anyone
            # (faithful Isis semantics: without a primary component, no
            # progress); it can only ask the primary to absorb *it*.
            self._control(_MERGE_DENIED, [their_coord], origin=self.endpoint)
            return
        merging_too = (
            self._merge_target is not None or self._merge_candidate is not None
        )
        if merging_too and self.view.view_id < theirs:
            # Mutual merge race: both coordinators asked the other to
            # absorb them.  The deterministic rule — the larger ViewId
            # absorbs (a progressed primary always outranks a stale
            # minority) — must break the tie, or two quiesced sides
            # would deny each other forever.  Here *they* outrank us.
            self._control(_MERGE_DENIED, [their_coord], origin=self.endpoint)
            return
        if self.state == "flushing":
            # Mid-flush: absorb on the next round rather than now.
            self._control(_MERGE_DENIED, [their_coord], origin=self.endpoint)
            return
        # Absorb (clearing any merge attempt of our own — we won the
        # race, or there was no race at all).  Being "blocked" is no
        # obstacle: absorbing is exactly how a blocked side recovers.
        self._merge_target = None
        self._merge_candidate = None
        if not self.auto_grant:
            self._pending_merge_reqs[their_coord] = list(their_members)
            self.pass_up(
                Upcall(
                    UpcallType.MERGE_REQUEST,
                    source=their_coord,
                    members=list(their_members),
                )
            )
            return
        self._absorb(their_coord, their_members, their_vid)

    def _absorb(
        self,
        their_coord: EndpointAddress,
        their_members: List[EndpointAddress],
        their_vid: int,
    ) -> None:
        """Take every member of a (younger) view on board as joiners."""
        added = False
        for member in their_members:
            if not self.view.contains(member) and member not in self.joiners:
                self.joiners.append(member)
                added = True
        if their_vid:
            self.absorb_vids.append(their_vid)
        self.trace("merge_absorb", coordinator=their_coord,
                   members=their_members)
        if added:
            self._schedule_flush()

    # ==================================================================
    # The flush protocol
    # ==================================================================

    def _schedule_flush(self) -> None:
        if self._flush_scheduled or self.state in ("init", "joining", "left"):
            return
        self._flush_scheduled = True
        self.context.scheduler.call_soon(self._enter, self._start_flush)

    def _start_flush(self) -> None:
        self._flush_scheduled = False
        if self.view is None or not self._am_coordinator():
            return
        if self.state == "left":
            return
        failed = [m for m in self.view.members if m in self.suspected]
        participants = [m for m in self.view.members if m not in self.suspected]
        survivors = [m for m in participants if m not in self.leavers]
        joiners = [
            j
            for j in self.joiners
            if not self.view.contains(j) and j not in self.suspected
        ]
        quiescing = self._merge_target is not None
        if not failed and not joiners and not quiescing:
            if not (self.leavers & set(self.view.members)):
                return  # nothing to reconfigure
        epoch = self.view.view_id.epoch
        round_no = max(self._responded[1] + 1 if self._responded[0] == epoch else 1, 1)
        if self.flush is not None:
            round_no = max(round_no, self.flush.round + 1)
        self.flush = _FlushState(
            round_no,
            participants=participants,
            new_members=survivors,
            failed=failed,
            joiners=joiners,
        )
        self.flushes_started += 1
        self.state = "flushing"
        self.trace("flush_start", round=round_no, vid=epoch,
                   failed=failed, joiners=joiners)
        self._control(
            _FLUSH,
            participants,
            origin=self.endpoint,
            vid=epoch,
            round=round_no,
            failed=failed,
            joiners=joiners,
            members=participants,
        )
        self._flush_timer.start()

    def _flush_retry(self) -> None:
        """Coordinator watchdog: restart a flush that went quiet."""
        if self.flush is None or self.state not in ("flushing",):
            return
        if not self._am_coordinator():
            return
        self.trace("flush_restart", round=self.flush.round)
        self._schedule_flush()

    def _on_flush(self, header: Dict[str, Any]) -> None:
        if self.view is None:
            return
        vid = header["vid"]
        epoch = self.view.view_id.epoch
        if vid != epoch:
            return  # stale or premature; coordinator will retry
        key = (vid, header["round"])
        if key <= self._responded:
            return
        self._responded = key
        coordinator = header["origin"]
        failed = header["failed"]
        if self.state in ("normal", "blocked"):
            self.state = "flushing"
        self.pass_up(
            Upcall(UpcallType.FLUSH, members=list(failed), source=coordinator)
        )
        # Return unstable messages from failed members (Figure 2: C sends
        # its copy of M to the coordinator) before acknowledging.
        if self.vs:
            failed_set = set(failed)
            for (origin, seq), stored in sorted(
                self.store.items(), key=lambda item: (item[0][0], item[0][1])
            ):
                if origin in failed_set:
                    self.pass_down(
                        Downcall(
                            DowncallType.SEND,
                            message=stored.copy(),
                            members=[coordinator],
                        )
                    )
            vector = dict(self.delivered)
            vector[self.endpoint] = self.my_seq
        else:
            vector = {}
        self._control(
            _FLUSH_OK,
            [coordinator],
            origin=self.endpoint,
            vid=vid,
            round=header["round"],
            vector=vector,
        )

    def _on_flush_ok(
        self, header: Dict[str, Any], sender: Optional[EndpointAddress]
    ) -> None:
        flush = self.flush
        if flush is None or self.view is None:
            return
        if header["vid"] != self.view.view_id.epoch or header["round"] != flush.round:
            return
        member = header["origin"]
        flush.vectors[member] = dict(header["vector"])
        if flush.complete:
            self._flush_complete()

    def _flush_complete(self) -> None:
        flush = self.flush
        assert flush is not None and self.view is not None
        epoch = self.view.view_id.epoch
        # The final cut: per origin, the most anyone delivered (for the
        # origins themselves, their reported sent count).
        final: Dict[EndpointAddress, int] = {}
        for vector in flush.vectors.values():
            for origin, count in vector.items():
                final[origin] = max(final.get(origin, 0), count)
        # A member that never heard from an origin reports nothing for
        # it — that member is missing *everything* from that origin.
        low: Dict[EndpointAddress, int] = {
            origin: min(v.get(origin, 0) for v in flush.vectors.values())
            for origin in final
        }
        # Rebroadcast whatever somebody may be missing and we hold.
        # Iterating the store (rather than the numeric range) keeps this
        # bounded even if a garbled vector reported an absurd count.
        for (origin, seq) in sorted(self.store, key=lambda k: (k[0], k[1])):
            if low.get(origin, 0) < seq <= final.get(origin, 0):
                self.relays_sent += 1
                self.pass_down(
                    Downcall(
                        DowncallType.CAST, message=self.store[(origin, seq)].copy()
                    )
                )
        quiescing = self._merge_target is not None
        # The policy guards against split-brain, so it judges the whole
        # surviving component (participants) — a voluntary leaver is
        # present and consenting, and must not push its group below
        # quorum by the mere act of leaving.
        if not quiescing and not self.policy.may_install(
            self.view.members, flush.participants
        ):
            # Primary-partition policy: we are a minority component.
            # Quiesce the members and keep probing for a merge instead.
            self.trace("blocked", survivors=flush.new_members)
            self._control(
                _INSTALL,
                flush.participants,
                origin=self.endpoint,
                vid=epoch,
                new_vid=0,
                round=flush.round,
                vector=final,
            )
            self.state = "blocked"
            self._policy_blocked = True
            self._merge_timer.start()
            return
        if quiescing:
            # Pre-merge quiesce: synchronize the cut, then ask the older
            # view to absorb us; its INSTALL supersedes ours.
            self._control(
                _INSTALL,
                flush.participants,
                origin=self.endpoint,
                vid=epoch,
                new_vid=0,
                round=flush.round,
                vector=final,
            )
            self.state = "blocked"
            self._send_merge_request()
            self._merge_timer.start()
            return
        new_vid = max([epoch] + self.absorb_vids) + 1
        new_members = flush.new_members + sorted(
            j for j in flush.joiners if j not in flush.new_members
        )
        targets = list(
            dict.fromkeys(flush.participants + flush.joiners)
        )
        self.trace("install_sent", new_vid=new_vid, members=new_members)
        self._control(
            _INSTALL,
            targets,
            origin=self.endpoint,
            vid=epoch,
            new_vid=new_vid,
            round=flush.round,
            members=new_members,
            vector=final,
        )

    # ------------------------------------------------------------------
    # Install
    # ------------------------------------------------------------------

    def _on_install(self, header: Dict[str, Any]) -> None:
        if self.state == "left":
            return
        new_vid = header["new_vid"]
        vector = dict(header["vector"])
        if new_vid == 0:
            # Quiesce-only install (pre-merge or blocked minority).
            if self.view is not None and header["vid"] == self.view.view_id.epoch:
                self._premerge_vector = vector
                if self.state in ("normal", "flushing"):
                    self.state = "blocked"
                self._check_install()
            return
        members = header["members"]
        if self.endpoint not in members:
            if (
                self.view is not None
                and header["vid"] == self.view.view_id.epoch
                and self.endpoint in self.leavers
            ):
                # Our graceful leave completed.
                self._exit()
            return
        if self.view is not None and new_vid <= self.view.view_id.epoch:
            return  # stale install
        new_view = View(
            group=self.group,
            view_id=ViewId(epoch=new_vid, coordinator=members[0]),
            members=tuple(members),
        )
        own = self.view is not None and header["vid"] == self.view.view_id.epoch
        if own:
            wait_vector = vector
        else:
            # Foreign install (we are a joiner or an absorbed view); we
            # owe deliveries only against our own quiesce vector.
            wait_vector = self._premerge_vector or {}
        # Only a successor through a flush we took part in, never
        # quiesced, shares our cut of the old view.
        successor = own and self._premerge_vector is None
        self._pending_install = (new_view, wait_vector, successor)
        self._check_install()

    def _check_install(self) -> None:
        if self._pending_install is None:
            return
        new_view, wait_vector, successor = self._pending_install
        own_members = set(self.view.members) if self.view is not None else set()
        for origin, needed in wait_vector.items():
            if origin not in own_members and origin != self.endpoint:
                continue
            if self.delivered.get(origin, 0) < needed:
                return  # still catching up; NAK/relays will close the gap
        if self._premerge_vector is not None:
            for origin, needed in self._premerge_vector.items():
                if origin not in own_members and origin != self.endpoint:
                    continue
                if self.delivered.get(origin, 0) < needed:
                    return
        self._pending_install = None
        self._install_view(new_view, successor)

    def _install_view(self, new_view: View, successor: bool = False) -> None:
        previous = self.view
        self.view = new_view
        self.views_installed += 1
        epoch = new_view.view_id.epoch
        # Reset per-view machinery.
        self.my_seq = 0
        self.delivered = {}
        self.store = {}
        self.pending = {}
        self._peer_vectors = {}  # stability restarts with the view
        self._pruned_to = {}
        self.flush = None
        self._responded = (epoch, 0)
        self._premerge_vector = None
        self._pending_install = None
        self._merge_target = None
        self._merge_candidate = None
        self._policy_blocked = False
        self.absorb_vids = []
        self._flush_timer.cancel()
        self._join_timer.cancel()
        self._merge_timer.stop()
        member_set = set(new_view.members)
        # Installing a view asserts its members are alive: suspicions
        # from the previous view (e.g. across a healed partition) must
        # not carry over, or a rejoined member would immediately flush
        # the others out again.  Real deaths are re-detected promptly.
        self.suspected = set()
        self.leavers = {l for l in self.leavers if l in member_set}
        self.joiners = [j for j in self.joiners if j not in member_set]
        self.state = "normal"
        self.trace("view", vid=epoch, members=new_view.members)
        # Tell the layers below (destination set + era) and above.
        self.pass_down(
            Downcall(
                DowncallType.VIEW,
                members=list(new_view.members),
                extra={"epoch": epoch},
            )
        )
        # A cast admitted into this view must not get below ahead of that
        # downcall.  Inside an upcall or a timer body it waits in the turn
        # FIFO, possibly behind casts made earlier in this turn, which
        # would reach NAK stamped with this view but sequenced in the
        # last era: hold every cast until a callback queued right behind
        # it releases them.
        self._view_queued = True
        self._enter(self._release_casts, epoch)
        if previous is not None:
            self.pass_up(Upcall(UpcallType.FLUSH_OK, view=new_view))
        for leaver in set(previous.members) - member_set if previous else set():
            self.pass_up(Upcall(UpcallType.LEAVE, source=leaver))
        self.pass_up(
            Upcall(
                UpcallType.VIEW, view=new_view, members=list(new_view.members),
                extra={"successor": successor},
            )
        )
        # Replay data that raced ahead of this install.
        for precopy, origin, utype in self._future.pop(epoch, []):
            self._dispatch(Upcall(utype, message=precopy, source=origin))
        for vid in list(self._future):
            if vid <= epoch:
                del self._future[vid]
        # More work pending (e.g. joiners who arrived mid-flush)?
        if self._am_coordinator() and (
            self.suspected or self.joiners or (self.leavers & member_set)
        ):
            self._schedule_flush()

    def _release_casts(self, epoch: int) -> None:
        """Casts queued while the view was in motion go out in view
        ``epoch`` — unless a later install armed its own release, or a
        flush that began since must keep them past the cut it reported."""
        if self.view is None or self.view.view_id.epoch != epoch:
            return
        self._view_queued = False
        if self.state == "normal":
            queued, self.queued_casts = self.queued_casts, []
            for downcall in queued:
                self._cast_now(downcall)

    # ------------------------------------------------------------------
    # Leaving
    # ------------------------------------------------------------------

    # ------------------------------------------------------------------
    # Stability gossip and store pruning
    # ------------------------------------------------------------------

    def _stability_tick(self) -> None:
        if self.view is None or self.state != "normal" or self.view.size < 2:
            return
        if not self.store:
            return
        vector = dict(self.delivered)
        vector[self.endpoint] = self.my_seq
        # One cast, not a send per member: it takes no ``my_seq`` and is
        # never stored (our own copy looping back is harmless).
        message = Message()
        message.push_owned_header(
            self.name,
            {
                "kind": _STABILITY,
                "origin": self.endpoint,
                "vid": self.view.view_id.epoch,
                "vector": vector,
            },
        )
        self.pass_down(Downcall(DowncallType.CAST, message=message))
        self._prune_store()

    def _on_stability(self, header: Dict[str, Any]) -> None:
        if self.view is None or header["vid"] != self.view.view_id.epoch:
            return
        self._peer_vectors[header["origin"]] = dict(header["vector"])
        self._prune_store()

    def _prune_store(self) -> None:
        """Drop stored messages every view member is known to have.

        A message delivered everywhere can never be needed by a flush
        relay, so logging it serves nobody (the paper's point that only
        *unstable* messages need logging).

        The store holds each origin's deliveries above its pruned-to
        floor, so a call pops only what the floor passes over.  What we
        delivered is in the minimum: a garbled peer vector cannot lift a
        floor past it, and a delivery never re-stores below a floor.
        """
        if self.view is None or not self.store:
            return
        vectors = []
        for member in self.view.members:
            if member != self.endpoint:
                vector = self._peer_vectors.get(member)
                if vector is None:
                    return  # no full picture yet; keep everything
                vectors.append(vector)
        store, floors = self.store, self._pruned_to
        for origin in self.view.members:
            stable = self.delivered.get(origin, 0)
            for vector in vectors:
                stable = min(stable, vector.get(origin, 0))
            floor = floors.get(origin, 0)
            if stable > floor:
                floors[origin] = stable
                for seq in range(floor + 1, stable + 1):
                    if store.pop((origin, seq), None) is not None:
                        self.store_pruned += 1

    def _exit(self) -> None:
        if self.state == "left":
            return
        self.state = "left"
        self._flush_timer.cancel()
        self._join_timer.cancel()
        self._merge_timer.stop()
        self.trace("exit")
        # COM unregisters us and raises the EXIT upcall.
        self.pass_down(Downcall(DowncallType.LEAVE))

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _control(
        self,
        kind: int,
        targets: List[EndpointAddress],
        **fields: Any,
    ) -> None:
        """Send one control message reliably to each target (self included:
        the COM loopback path delivers it like any other message)."""
        if not targets:
            return
        message = Message()
        header = {"kind": kind}
        header.update(fields)
        message.push_header(self.name, header)
        self.pass_down(
            Downcall(DowncallType.SEND, message=message, members=list(targets))
        )

    def dump(self):
        info = super().dump()
        info.update(
            state=self.state,
            view=str(self.view) if self.view else None,
            my_seq=self.my_seq,
            views_installed=self.views_installed,
            flushes_started=self.flushes_started,
            relays_sent=self.relays_sent,
            suspected=[str(s) for s in sorted(self.suspected)],
            joiners=[str(j) for j in self.joiners],
            stale_dropped=self.stale_dropped,
            store_size=len(self.store),
            store_pruned=self.store_pruned,
        )
        return info

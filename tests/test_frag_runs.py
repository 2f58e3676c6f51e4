"""FRAG runs: consecutive fragments of one message as one message below FRAG.

Over a coalescing network, FRAG hands NAK each run of fragments as one
message; NAK numbers every fragment of it (one ``_DATA`` header carries
``seq .. hi``) and retransmits them one at a time.  Every world here but
the last class's is the DES with a 65,000 B MTU and a coalescer, the
shape under which runs form; the chaos families' payloads fit one
fragment, so none reaches this path.
"""

from __future__ import annotations

import random

import pytest

from repro import FaultModel, World
from repro.core.events import Upcall, UpcallType
from repro.core.headers import DEFAULT_REGISTRY
from repro.core.message import Message
from repro.net.address import GroupAddress
from repro.layers.nak import _DATA_M, _DATA_U, _NAK_M, _NAK_U
from repro.verify import (
    check_fifo_per_source,
    check_total_order,
    check_virtual_synchrony,
)

from conftest import drain, manual_destinations

MTU = 65000
COALESCE = {"max_delay": 0.0005, "max_batch": 16}
BIG = bytes(range(256)) * 64  # 16 KiB: 16 fragments of FRAG's default 1,024 B


def world_of(seed=5, **faults):
    return World(seed=seed, network="lan", trace=False, mtu=MTU,
                 coalesce=COALESCE, fault_model=FaultModel(**faults))


def pair(world, stack="FRAG:NAK:COM", names="ab"):
    handles = {n: world.process(n).endpoint().join("grp", stack=stack)
               for n in names}
    manual_destinations(handles)
    world.run(0.9)
    return handles


def nak_of(payload):
    """The NAK header of one un-batched datagram payload."""
    return dict(DEFAULT_REGISTRY.unmarshal(payload).headers())["NAK"]


def is_run(nak):
    """Whether a NAK header numbers a FRAG run (data with ``hi`` set)."""
    return nak["kind"] in (_DATA_M, _DATA_U) and nak["hi"] != 0


class Wire:
    """Every payload the coalescer is handed (before batching), with a
    hook that drops the ones it returns true for."""

    def __init__(self, world):
        self.payloads, self.drop = [], None
        for kind in ("unicast", "multicast"):
            self._tap(world.network, kind)

    def _tap(self, network, kind):
        send = getattr(network, kind)

        def tapped(source, dests, payload):
            self.payloads.append((source.node, payload))
            if self.drop is None or not self.drop(source, dests, payload):
                send(source, dests, payload)

        setattr(network, kind, tapped)

    def naks(self, node, kinds, runs=None):
        """``node``'s NAK headers of ``kinds``; with ``runs`` true only
        runs, false only the rest."""
        return [nak for source, p in self.payloads
                if source == node
                for nak in [nak_of(p)]
                if nak["kind"] in kinds
                and (runs is None or is_run(nak) == runs)]


class TestOneRun:
    def test_a_16k_cast_is_one_datagram_and_one_nak_range(self):
        world = world_of()
        handles = pair(world)
        wire = Wire(world)
        stats = world.network.inner.stats
        sent = stats.packets_sent
        handles["a"].cast(BIG)
        world.run(0.0)
        assert stats.packets_sent == sent + 1
        (nak,) = wire.naks("a", (_DATA_M,), runs=True)
        assert nak["hi"] - nak["seq"] + 1 == 16
        world.run(1.0)
        assert drain(handles["b"]) == [BIG]
        assert drain(handles["a"]) == [BIG]
        frag, layer = handles["a"].focus("FRAG"), handles["a"].focus("NAK")
        assert (frag.fragments_sent, frag.runs_sent) == (16, 1)
        assert (layer.dump()["send_seq"], layer.runs_sent) == (16, 1)
        # One run carried the whole cast: FRAG joined nothing.
        assert handles["b"].focus("FRAG").messages_reassembled == 0

    def test_a_fragment_shares_its_parents_buffer(self):
        world = world_of()
        handles = pair(world)
        sent = []
        nak = handles["a"].focus("NAK")
        handle_down = nak.handle_down
        nak.handle_down = lambda d: (sent.append(d), handle_down(d))
        handles["a"].cast(BIG)
        world.run(1.0)
        (downcall,) = [d for d in sent if "frag_run" in d.extra]
        segment = downcall.extra["frag_run"].fragment(3).segments[0]
        assert type(segment) is memoryview and segment.obj is BIG
        assert bytes(segment) == BIG[3 * 1024:4 * 1024]

    def test_no_coalescer_no_run(self):
        world = World(seed=5, network="lan", trace=False, mtu=MTU)
        handles = pair(world)
        handles["a"].cast(BIG)
        world.run(1.0)
        assert drain(handles["b"]) == [BIG]
        assert handles["a"].focus("FRAG").runs_sent == 0
        assert handles["a"].focus("NAK").dump()["send_seq"] == 16

    def test_a_cast_longer_than_a_run_is_several_runs(self):
        world = world_of()
        handles = pair(world)
        wire = Wire(world)
        body = BIG * 2 + b"tail"  # 33 fragments: runs of 16, 16 and 1
        handles["a"].cast(body)
        world.run(1.0)
        assert drain(handles["b"]) == [body]
        assert handles["b"].focus("FRAG").messages_reassembled == 1
        ranges = [(n["seq"], n["hi"]) for n in wire.naks("a", (_DATA_M,))]
        assert ranges == [(1, 16), (17, 32), (33, 0)]


class TestRunRecovery:
    def test_a_dropped_run_is_naked_whole_and_resent_per_fragment(self):
        world = world_of()
        handles = pair(world)
        wire = Wire(world)
        dropped = []

        def drop_first_run(source, dests, payload):
            if not dropped and is_run(nak_of(payload)):
                dropped.append(payload)
                return True
            return False

        wire.drop = drop_first_run
        handles["a"].cast(BIG)
        handles["a"].cast(b"after")  # shows b the gap
        world.run(1.0)
        assert dropped
        assert drain(handles["b"]) == [BIG, b"after"]
        (request,) = wire.naks("b", (_NAK_M,))
        assert (request["lo"], request["hi"]) == (1, 16)
        resent = wire.naks("a", (_DATA_M,), runs=False)
        assert [n["seq"] for n in resent] == [17] + list(range(1, 17))
        assert handles["a"].focus("NAK").retransmissions == 16

    def test_only_the_missing_fragments_are_requested(self):
        """A run whose first fragment already arrived alone (resent) is
        dropped as a partial duplicate; only what is still missing is
        NAKed."""
        world = world_of()
        handles = pair(world)
        b_nak = handles["b"].focus("NAK")
        source = handles["a"].endpoint_address
        wire = Wire(world)
        held = []

        def hold_run(source_, dests, payload):
            if not held and is_run(nak_of(payload)):
                held.append(payload)
                return True
            return False

        wire.drop = hold_run
        handles["a"].cast(BIG)
        handles["a"].cast(b"after")
        world.run(0.0)
        # b learns of 1..16 from "after" (seq 17); the first fragment
        # reaches it alone before the run does.
        run = handles["a"].focus("NAK")._sent[0][1][0]
        first = run.fragment(0)
        first.push_owned_header("NAK", {"kind": _DATA_M, "era": 0, "seq": 1})
        first.push_owned_header("COM", {"group": GroupAddress("grp"),
                                        "source": source, "kind": 0})
        world.network.unicast(
            source, handles["b"].endpoint_address,
            DEFAULT_REGISTRY.marshal(first, world.wire_mode))
        world.run(0.005)
        world.network.unicast(source, handles["b"].endpoint_address, held[0])
        world.run(1.0)
        assert drain(handles["b"]) == [BIG, b"after"]
        assert b_nak.duplicates_dropped == 1
        (request,) = wire.naks("b", (_NAK_M,))
        assert (request["lo"], request["hi"]) == (2, 16)
        assert handles["a"].focus("NAK").retransmissions == 15

    def test_a_run_ahead_of_a_gap_is_held_whole(self):
        world = world_of()
        handles = pair(world)
        wire = Wire(world)
        dropped = []

        def drop_first(source, dests, payload):
            if not dropped and source == handles["a"].endpoint_address \
                    and nak_of(payload)["kind"] == _DATA_M:
                dropped.append(payload)
                return True
            return False

        wire.drop = drop_first
        handles["a"].cast(b"first")
        handles["a"].cast(BIG)
        world.run(1.0)
        assert drain(handles["b"]) == [b"first", BIG]
        b_nak = handles["b"].focus("NAK")
        assert b_nak.runs_held == 1
        (request,) = wire.naks("b", (_NAK_M,))
        assert (request["lo"], request["hi"]) == (1, 1)
        assert handles["a"].focus("NAK").retransmissions == 1

    @pytest.mark.parametrize("seq, hi", [(5, 4), (1, 4097)])
    def test_a_bogus_range_is_dropped(self, seq, hi):
        world = world_of()
        handles = pair(world)
        b = handles["b"]
        b_nak = b.focus("NAK")
        forged = Message(b"forged")
        forged.push_header("FRAG", {"last": True})
        forged.push_header("NAK", {"kind": _DATA_M, "era": 0, "seq": seq, "hi": hi})
        b_nak.up(Upcall(UpcallType.CAST, message=forged,
                        source=handles["a"].endpoint_address))
        world.run(1.0)
        assert b_nak.bogus_dropped == 1
        assert drain(b) == []
        handles["a"].cast(BIG)
        world.run(1.0)
        assert drain(b) == [BIG]


class TestSmallWindow:
    """A run never spans more numbers than NAK's window (a receiver
    drops a wider range as garbled), and a hole wider than the window
    is requested a window at a time."""

    STACK = "FRAG(max_size=100):NAK(window=4):COM"
    BODY = bytes(range(250)) * 4  # 1,000 B: 10 fragments, runs of 4, 4, 2

    def test_runs_are_capped_at_the_window(self):
        world = world_of()
        handles = pair(world, stack=self.STACK)
        wire = Wire(world)
        handles["a"].cast(self.BODY)
        world.run(1.0)
        assert drain(handles["b"]) == [self.BODY]
        assert handles["a"].focus("FRAG").dump()["run_fragments"] == 4
        ranges = [(n["seq"], n["hi"]) for n in wire.naks("a", (_DATA_M,))]
        assert ranges == [(1, 4), (5, 8), (9, 10)]
        assert handles["b"].focus("NAK").bogus_dropped == 0

    def test_a_dropped_run_is_recovered_within_the_window(self):
        world = world_of()
        handles = pair(world, stack=self.STACK)
        wire = Wire(world)
        dropped = []

        def drop_last_run(source, dests, payload):
            nak = nak_of(payload)
            if not dropped and is_run(nak) and nak["seq"] == 9:
                dropped.append(payload)
                return True
            return False

        wire.drop = drop_last_run
        handles["a"].cast(self.BODY)
        world.run(1.0)  # b learns of 9..10 from a's status
        assert dropped
        assert drain(handles["b"]) == [self.BODY]
        (request,) = wire.naks("b", (_NAK_M,))
        assert (request["lo"], request["hi"]) == (9, 10)
        a_nak = handles["a"].focus("NAK")
        assert (a_nak.retransmissions, a_nak.bogus_dropped) == (2, 0)

    def test_a_hole_wider_than_the_window_is_requested_in_window_steps(self):
        world = world_of()
        handles = pair(world, stack="NAK(window=4):COM")
        wire = Wire(world)
        wire.drop = lambda source, dests, payload: nak_of(payload)["kind"] == _DATA_M
        for i in range(10):
            handles["a"].cast(b"lost %d" % i)
        world.run(0.1)
        wire.drop = None
        handles["a"].cast(b"after")
        world.run(1.0)
        # a's window holds seqs 8..11 by now: 1..7 come back as
        # placeholders, 8..10 as data.
        assert drain(handles["b"]) == [b"lost 7", b"lost 8", b"lost 9", b"after"]
        requests = [(n["lo"], n["hi"]) for n in wire.naks("b", (_NAK_M,))]
        assert requests == [(1, 4), (5, 8), (9, 10)]
        a_nak = handles["a"].focus("NAK")
        assert (a_nak.placeholders_sent, a_nak.retransmissions) == (7, 3)
        assert a_nak.bogus_dropped == 0


class TestSubsetSendRuns:
    def test_a_send_run_is_one_range_per_destination(self):
        world = world_of()
        handles = pair(world, names="abc")
        wire = Wire(world)
        dests = [handles[n].endpoint_address for n in "bc"]
        dropped = []

        def drop_to_c(source, dest, payload):
            if not dropped and getattr(dest, "node", None) == "c" \
                    and is_run(nak_of(payload)):
                dropped.append(payload)
                return True
            return False

        wire.drop = drop_to_c
        handles["a"].send(dests, BIG)
        handles["a"].send(dests, b"after")
        world.run(1.0)
        assert drain(handles["b"]) == [BIG, b"after"]
        assert drain(handles["c"]) == [BIG, b"after"]
        runs = wire.naks("a", (_DATA_U,), runs=True)
        assert [(n["seq"], n["hi"]) for n in runs] == [(1, 16), (1, 16)]
        (request,) = wire.naks("c", (_NAK_U,))
        assert (request["lo"], request["hi"]) == (1, 16)
        resent = [n["seq"] for n in wire.naks("a", (_DATA_U,), runs=False)]
        assert resent == [17, 17] + list(range(1, 17))
        assert handles["a"].focus("NAK").retransmissions == 16


class TestRunsUnderFaults:
    STACK = "TOTAL:MBRSHIP:FRAG:NAK:COM"

    def run_group(self, seed, loss_rate, crash=None):
        world = World(seed=seed, network="lan", trace=False, mtu=MTU,
                      coalesce=COALESCE)
        names = ["a", "b", "c", "d"]
        handles = {}
        for name in names:
            handles[name] = world.process(name).endpoint().join(
                "grp", stack=self.STACK)
            world.run(0.3)
        world.run(2.0)
        assert all(h.view.size == 4 for h in handles.values())
        world.set_faults(FaultModel(base_delay=0.001, jitter=0.0005,
                                    loss_rate=loss_rate, duplicate_rate=0.03,
                                    reorder_rate=0.1, reorder_delay=0.004))
        rng = random.Random(seed)
        sent = {str(h.endpoint_address): [] for h in handles.values()}
        for step in range(60):
            name = names[step % 4]
            if name == crash and step >= 30:
                continue
            size = rng.choice((10, 900, 5000, 20000, 50000))
            body = b"%s/%d/" % (name.encode(), step) + bytes([step]) * size
            handles[name].cast(body)
            sent[str(handles[name].endpoint_address)].append(body)
            world.run(0.01)
            if step == 30 and crash:
                world.crash(crash)
        world.set_faults(FaultModel(base_delay=0.001))
        world.run(8.0)
        live = [h for n, h in handles.items() if n != crash]
        return world, live, sent

    @pytest.mark.parametrize("seed", [1, 2])
    def test_mixed_sizes_under_loss_duplication_and_reordering(self, seed):
        world, live, sent = self.run_group(seed, loss_rate=0.03, crash="d")
        check_fifo_per_source(live, sent)
        check_total_order(live)
        check_virtual_synchrony(live)
        survivors = {str(h.endpoint_address) for h in live}
        for handle in live:
            got = {d.data for d in handle.delivery_log}
            for source, bodies in sent.items():
                if source in survivors:
                    assert set(bodies) <= got
        assert all(h.view.size == 3 for h in live)
        naks = [h.focus("NAK") for h in live]
        assert sum(n.runs_sent for n in naks) > 0
        assert sum(n.runs_held for n in naks) > 0
        assert sum(n.retransmissions for n in naks) > 0

    @pytest.mark.parametrize("seed", [1, 2])
    def test_reordering_and_duplication_alone_fetch_nothing_again(self, seed):
        """Runs overtaken by a later one are held and duplicated runs are
        dropped, neither re-fetched: with no loss (reordering shorter
        than NAK's delay) nothing is retransmitted, as on the
        fragment-at-a-time stack, which read 0 on both seeds too."""
        world, live, sent = self.run_group(seed, loss_rate=0.0)
        check_fifo_per_source(live, sent)
        check_total_order(live)
        for handle in live:
            assert len(handle.delivery_log) == 60
        naks = [h.focus("NAK") for h in live]
        assert sum(n.retransmissions for n in naks) == 0
        assert sum(n.runs_held for n in naks) > 0
        assert sum(n.duplicates_dropped for n in naks) > 0


class TestLossInsideAMessage:
    """A partition outlasts NAK's window in the middle of a 1,000 B cast,
    so the receiver gets only its tail: FRAG drops that tail and reports
    one loss instead of delivering it as a message, and the next cast
    arrives whole.  No coalescer, so every fragment is its own message."""

    def test_a_message_with_a_hole_is_reported_lost_not_delivered(self):
        world = World(seed=3, network="lan")
        handles = pair(world, stack="FRAG(max_size=100):NAK(window=10):COM")
        frag = handles["b"].focus("FRAG")
        lost, pass_up = [], frag.pass_up

        def tap(upcall):
            if upcall.type is UpcallType.LOST_MESSAGE:
                lost.append(upcall)
            pass_up(upcall)

        frag.pass_up = tap
        world.partition(["a"], ["b"])
        handles["a"].cast(b"A" * 1000)
        world.run(2.0)
        world.heal()
        handles["a"].cast(b"B" * 500)
        world.run(3.0)
        assert drain(handles["b"]) == [b"B" * 500]
        assert handles["b"].focus("NAK").lost_reported > 1
        assert len(lost) == 1
        assert frag.dump()["discarding"] == 0

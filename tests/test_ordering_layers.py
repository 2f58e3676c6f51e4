"""Integration tests for TOTAL, CAUSAL(+TS), SAFE, STABLE, PINWHEEL."""

import random

import pytest
from hypothesis import given, strategies as st

from repro import World
from repro.core.events import cast_down
from repro.core.headers import DEFAULT_REGISTRY, HEADER_RESERVE, WIRE_MODES
from repro.core.message import Message
from repro.errors import HeaderError
from repro.layers import credit as _credit  # noqa: F401 -- registers CREDIT's codec
from repro.layers import total as total_mod

from conftest import join_group

TOTAL_STACK = "TOTAL:MBRSHIP:FRAG:NAK:COM"
CAUSAL_STACK = "CAUSAL:CAUSAL_TS:MBRSHIP:FRAG:NAK:COM"
STABLE_STACK = "STABLE:MBRSHIP:FRAG:NAK:COM"
SAFE_STACK = "SAFE:STABLE:MBRSHIP:FRAG:NAK:COM"


class TestTotalOrder:
    def test_all_members_same_order(self, lan_world):
        handles = join_group(lan_world, ["a", "b", "c"], TOTAL_STACK)
        for i in range(8):
            handles["a"].cast(f"A{i}".encode())
            handles["b"].cast(f"B{i}".encode())
            handles["c"].cast(f"C{i}".encode())
        lan_world.run(5.0)
        orders = [tuple(m.data for m in handles[n].delivery_log) for n in "abc"]
        assert orders[0] == orders[1] == orders[2]
        assert len(orders[0]) == 24

    def test_total_seq_attached(self, lan_world):
        handles = join_group(lan_world, ["a", "b"], TOTAL_STACK)
        handles["b"].cast(b"x")
        lan_world.run(2.0)
        seqs = [m.info.get("total_seq") for m in handles["a"].delivery_log]
        assert seqs == [1]

    def test_order_holds_under_loss(self, lossy_world):
        handles = join_group(lossy_world, ["a", "b", "c"], TOTAL_STACK,
                             final_settle=4.0)
        for i in range(10):
            handles["a"].cast(f"A{i}".encode())
            handles["c"].cast(f"C{i}".encode())
        lossy_world.run(25.0)
        orders = [tuple(m.data for m in handles[n].delivery_log) for n in "abc"]
        assert orders[0] == orders[1] == orders[2]
        assert len(orders[0]) == 20

    def test_order_survives_crash(self, lan_world):
        handles = join_group(lan_world, ["a", "b", "c"], TOTAL_STACK)
        for i in range(5):
            handles["b"].cast(f"pre{i}".encode())
        lan_world.run(2.0)
        lan_world.crash("c")
        lan_world.run(6.0)
        for i in range(5):
            handles["b"].cast(f"post{i}".encode())
        lan_world.run(5.0)
        a_order = tuple(m.data for m in handles["a"].delivery_log)
        b_order = tuple(m.data for m in handles["b"].delivery_log)
        assert a_order == b_order
        assert len(a_order) == 10

    def test_token_moves_on_demand(self, lan_world):
        handles = join_group(lan_world, ["a", "b", "c"], TOTAL_STACK)
        # b needs the token (a holds it initially as coordinator).
        handles["b"].cast(b"from-b")
        lan_world.run(2.0)
        assert handles["b"].focus("TOTAL").ordered_sent == 1
        assert handles["a"].focus("TOTAL").token_passes >= 1

    def test_holders_cast_during_a_flush_is_reissued_in_the_new_view(
            self, lan_world):
        """The holder orders a cast while MBRSHIP is flushing: MBRSHIP
        queues it, and it goes out in the next view still tagged with
        the old epoch, which every TOTAL drops.  The holder kept a copy:
        its ``_new_view`` orders the cast again, once, in the new view."""
        handles = join_group(lan_world, ["a", "b", "c"], TOTAL_STACK)
        total, mbrship = handles["a"].focus("TOTAL"), handles["a"].focus("MBRSHIP")
        assert total._holds_token()
        lan_world.crash("c")
        assert lan_world.run_while(lambda: mbrship.state == "flushing",
                                   timeout=5.0, poll=0.001)
        handles["a"].cast(b"during-flush")
        lan_world.run(0.0)  # the turn ends: TOTAL releases the cast
        assert total.ordered_sent == 1 and len(mbrship.queued_casts) == 1
        lan_world.run(5.0)
        for name in "ab":
            assert handles[name].view.size == 2
            assert [m.data for m in handles[name].delivery_log] == [b"during-flush"]
        # The old-epoch copy was dropped at both, looped-back copy included.
        assert all(handles[n].focus("TOTAL").stale_epoch_dropped >= 1 for n in "ab")
        assert total.ordered_sent == 2 and not total._released

    def test_holders_pack_during_a_flush_is_reissued_cast_by_cast(
            self, lan_world):
        """The burst variant: five casts made during the flush leave as
        one pack, MBRSHIP queues it and it reaches the new view with the
        old epoch.  The holder kept one copy per cast and orders each
        again, and every cast is delivered exactly once everywhere."""
        handles = join_group(lan_world, ["a", "b", "c"], TOTAL_STACK)
        total, mbrship = handles["a"].focus("TOTAL"), handles["a"].focus("MBRSHIP")
        lan_world.crash("c")
        assert lan_world.run_while(lambda: mbrship.state == "flushing",
                                   timeout=5.0, poll=0.001)
        burst = [f"burst-{i}".encode() for i in range(5)]
        for data in burst:
            handles["a"].cast(data)
        lan_world.run(0.0)
        assert (total.ordered_sent, total.packs_sent) == (5, 1)
        assert sorted(total._released) == [1, 2, 3, 4, 5]
        assert len(mbrship.queued_casts) == 1
        lan_world.run(5.0)
        for name in "ab":
            assert handles[name].view.size == 2
            log = handles[name].delivery_log
            assert [m.data for m in log] == burst
            assert [m.info["total_seq"] for m in log] == [1, 2, 3, 4, 5]
        assert total.ordered_sent == 10 and not total._released

    def test_absorbed_minoritys_released_casts_are_not_reissued(
            self, lan_world, monkeypatch):
        """X orders X1 while it misses A1 (A's stream to X is cut), so
        its own copy waits in TOTAL's buffer.  A partition then leaves X
        alone: the majority flushes X out and delivers A1, C1, X1 in the
        old view, while X blocks.  X's next view is the one that absorbs
        it at the merge, which follows a cut X did not share: ordering
        X1 again there would deliver it twice at every other member."""
        handles = join_group(lan_world, ["a", "b", "c", "x"], TOTAL_STACK)
        a, x = handles["a"].endpoint_address, handles["x"].endpoint_address
        network, cut = lan_world.network, [True]
        unicast = network.unicast

        def cut_a_to_x(source, dest, data):
            if not (cut[0] and (source, dest) == (a, x)):
                unicast(source, dest, data)

        monkeypatch.setattr(network, "unicast", cut_a_to_x)
        for name in "acx":  # a holds the token; it goes a → c → x
            handles[name].cast(f"{name.upper()}1".encode())
            lan_world.run(0.05)
        total = handles["x"].focus("TOTAL")
        assert list(total._released) == [3] and sorted(total.buffer) == [2, 3]
        lan_world.partition({"x"}, {"a", "b", "c"})
        lan_world.run(6.0)
        assert handles["x"].focus("MBRSHIP").state == "blocked"
        lan_world.heal()
        cut[0] = False
        lan_world.run(15.0)
        assert all(handles[n].view.size == 4 for n in "abcx")
        for name in "abc":
            assert [m.data for m in handles[name].delivery_log] == [
                b"A1", b"C1", b"X1"]
        assert not total._released and not total.pending_out

    def test_round_robin_oracle(self, lan_world):
        stack = "TOTAL(oracle='round_robin'):MBRSHIP:FRAG:NAK:COM"
        handles = join_group(lan_world, ["a", "b", "c"], stack)
        handles["c"].cast(b"x")
        lan_world.run(3.0)
        orders = [tuple(m.data for m in handles[n].delivery_log) for n in "abc"]
        assert orders[0] == orders[1] == orders[2] == ((b"x",))


#: The datagram a lone cast by the holder puts on the wire (seed 1, lan,
#: aligned): a plain TOTAL ``_DATA`` message, recorded before packing.
#: Layer ids follow codec registration order (TOTAL 24, MBRSHIP 13).
GOLDEN_LONE_CAST = bytes.fromhex(
    "4852000518001800000000000000000100000003023a3000000000000000000001"
    "002100000000030000000000000000000000000000000103613a30000000000000"
    "00000a0001010d001d000000000300000000000000010000000000000000000000"
    "00000000000500090367727003613a3000000000096c6f6e652063617374"
)


class TestTotalPacks:
    """TOTAL sends what it releases in one turn as one ordered message;
    above it every cast is still delivered on its own."""

    @staticmethod
    def _counts_below(handle):
        return (handle.focus("MBRSHIP").my_seq,
                handle.focus("NAK").dump()["send_seq"],
                handle.focus("COM").casts_sent)

    def test_a_burst_outside_any_turn_leaves_as_one_message(self):
        world = World(seed=1, network="lan")
        handles = join_group(world, ["a", "b", "c"], TOTAL_STACK)
        holder = handles["a"]
        assert holder.focus("TOTAL")._holds_token()
        before = self._counts_below(holder)
        burst = [f"m{i:02d}".encode() for i in range(32)]
        for data in burst:
            holder.cast(data)
        world.run(0.0)
        assert self._counts_below(holder) == tuple(n + 1 for n in before)
        assert holder.focus("TOTAL").packs_sent == 1
        world.run(1.0)
        for name in "abc":
            log = handles[name].delivery_log
            assert [m.data for m in log] == burst
            first = log[0].info["total_seq"]
            assert [m.info["total_seq"] for m in log] == list(
                range(first, first + 32))

    def test_a_lone_cast_is_the_plain_data_message(self, monkeypatch):
        world = World(seed=1, network="lan")
        handles = join_group(world, ["a", "b", "c"], TOTAL_STACK)
        network, sent = world.network, []
        multicast = network.multicast

        def record(source, dests, data):
            sent.append(bytes(data))
            multicast(source, dests, data)

        monkeypatch.setattr(network, "multicast", record)
        handles["a"].cast(b"lone cast")
        world.run(0.001)
        assert sent == [GOLDEN_LONE_CAST]

    #: The widest stack of registered layers that can sit below TOTAL
    #: without FRAG: its headers on a pack measure 296 B in aligned mode
    #: with the 16-character names below (282 compact, 256 packed, 101
    #: table), against HEADER_RESERVE.
    WIDEST_WITHOUT_FRAG = (
        "TOTAL:STABLE:PINWHEEL:MERGE:VSS:FLUSH:MBRSHIP:PRIO:"
        "REALTIME(policy=flag):"
        "KEYDIST:COMPRESS:CRYPT:SIGN:NAK:CHKSUM:COM")

    @pytest.mark.parametrize("stack", [
        "TOTAL:MBRSHIP:NAK:COM", WIDEST_WITHOUT_FRAG], ids=["plain", "widest"])
    @pytest.mark.parametrize("mode", WIRE_MODES)
    def test_casts_that_fit_alone_deliver_without_frag(
            self, stack, mode, monkeypatch):
        """No FRAG below: a pack must stay within the MTU, so a cast
        that fits in a datagram alone is never packed past it.  The
        headers below TOTAL on every pack fit in ``HEADER_RESERVE``."""
        world = World(seed=1, network="lan", mtu=1200, wire_mode=mode)
        names = [c * 16 for c in "abc"]
        handles = join_group(world, names, stack, group="g" * 16)
        holder = handles[names[0]]
        bodies, marshalled = [], []
        send_pack = total_mod.TotalOrderLayer._send_pack

        def record_pack(layer, casts, parts):
            bodies.append(1 + sum(len(part) for part in parts))
            send_pack(layer, casts, parts)

        monkeypatch.setattr(total_mod.TotalOrderLayer, "_send_pack",
                            record_pack)
        registry = holder.focus("COM").context.registry
        marshal = registry.marshal

        def record_datagram(message, *args, **kwargs):
            data = marshal(message, *args, **kwargs)
            marshalled.append((message.body_size, len(data)))
            return data

        monkeypatch.setattr(registry, "marshal", record_datagram)
        sizes = [330, 330, 40, 680, 330, 10, 10, 200, 200, 200, 10]
        rng = random.Random(1)  # incompressible: COMPRESS keeps the size
        payloads = [rng.randbytes(size) for size in sizes]
        for data in payloads:
            holder.cast(data)
        world.run(2.0)
        for name in names:
            assert [m.data for m in handles[name].delivery_log] == payloads
        total = holder.focus("TOTAL")
        assert total.ordered_sent == len(payloads) and total.packs_sent >= 2
        assert max(bodies) <= 1200 - HEADER_RESERVE
        below = [size - body for body, size in marshalled if body in bodies]
        assert below and max(below) <= HEADER_RESERVE

    def test_packed_casts_carry_the_packs_stable_id_and_acks_reach_it(self):
        """STABLE below TOTAL numbers the pack, not its casts: every cast
        is delivered with the pack's ``stable_id``, acking each one (the
        same id again) is harmless, and the frontier reaches it."""
        world = World(seed=1, network="lan")
        handles = join_group(world, ["a", "b", "c"],
                             "TOTAL:STABLE:MBRSHIP:FRAG:NAK:COM")
        holder = handles["a"]
        burst = [f"s{i}".encode() for i in range(8)]
        for data in burst:
            holder.cast(data)
        world.run(0.0)
        assert holder.focus("TOTAL").packs_sent == 1
        sid = holder.focus("STABLE").my_sid
        world.run(1.0)
        for name in "abc":
            log = handles[name].delivery_log
            assert [m.data for m in log] == burst
            assert {m.info["stable_id"] for m in log} == {
                (holder.endpoint_address, sid)}
            for delivered in log:
                handles[name].ack(delivered)
        world.run(1.0)
        for name in "abc":
            frontier = handles[name].focus("STABLE").stability_frontier()
            assert frontier[holder.endpoint_address] == sid

    @pytest.mark.parametrize("stack", [
        "SAFE:TOTAL:STABLE:MBRSHIP:FRAG:NAK:COM",
        "CAUSAL:TOTAL:CAUSAL_TS:MBRSHIP:FRAG:NAK:COM",
    ], ids=["SAFE-over-STABLE", "CAUSAL-over-CAUSAL_TS"])
    def test_a_pack_stamped_below_total_delivers_every_cast(self, stack):
        """A layer above TOTAL that reads what its partner below stamped
        sees one stamp shared by the casts of a pack, and still delivers
        every one of them, in order."""
        world = World(seed=1, network="lan")
        handles = join_group(world, ["a", "b", "c"], stack)
        burst = [f"p{i}".encode() for i in range(8)]
        for data in burst:
            handles["a"].cast(data)
        world.run(0.0)
        assert handles["a"].focus("TOTAL").packs_sent == 1
        world.run(2.0)
        for name in "abc":
            assert [m.data for m in handles[name].delivery_log] == burst

    @staticmethod
    def _pack_body(casts):
        parts = [bytes([len(casts)])]  # the count, a one-byte varint
        for cast in casts:
            parts += total_mod._record(cast, DEFAULT_REGISTRY)[0]
        return Message(b"".join(bytes(part) for part in parts))

    @given(st.lists(st.tuples(st.binary(max_size=200), st.booleans()),
                    min_size=2, max_size=8))
    def test_pack_records_round_trip(self, casts):
        """Bodies travel alone; a cast with headers from above TOTAL
        comes back as a message with those headers."""
        messages = []
        for body, headered in casts:
            message = Message(body)
            if headered:
                message.push_header("CREDIT", {"kind": 0, "flow_id": 0,
                                               "credit_delta": len(body)})
            messages.append(message)
        out = total_mod._unpack(self._pack_body(messages), DEFAULT_REGISTRY)
        assert [m.body_bytes() for m in out] == [body for body, _ in casts]
        assert [m.headers() for m in out] == [m.headers() for m in messages]

    @given(st.binary(max_size=64))
    def test_arbitrary_pack_bodies_unpack_or_raise_header_error(self, body):
        try:
            casts = total_mod._unpack(Message(body), DEFAULT_REGISTRY)
        except HeaderError:
            return
        assert len(casts) >= 2

    @pytest.mark.parametrize("body", [
        b"\x02\x06abc\x0aab",  # the second record is cut short
        b"\x03\x06abc\x06def",  # three casts announced, two present
        b"\x02\x80",  # the first length is cut mid-varint
    ], ids=["truncated-record", "miscounted", "truncated-varint"])
    def test_a_malformed_pack_is_dropped_and_counted(self, body):
        world = World(seed=1, network="lan")
        handles = join_group(world, ["a", "b", "c"], TOTAL_STACK)
        total = handles["a"].focus("TOTAL")
        pack = Message(body)
        pack.push_header("TOTAL", {"kind": 3, "gseq": total.next_gseq,
                                   "epoch": total._epoch})
        total._enter(total.pass_down, cast_down(pack))
        world.run(1.0)
        handles["a"].cast(b"after")
        world.run(1.0)
        for name in "abc":
            assert handles[name].stack.undecodable_messages == 1
            assert [m.data for m in handles[name].delivery_log] == [b"after"]


class TestCausalOrder:
    def test_reply_never_precedes_request(self, lan_world):
        handles = join_group(lan_world, ["a", "b", "c"], CAUSAL_STACK)
        replies = []

        def reply_when_asked(delivered):
            if delivered.data == b"question":
                handles["b"].cast(b"answer")

        handles["b"].on_message = reply_when_asked
        handles["a"].cast(b"question")
        lan_world.run(3.0)
        for name in ("a", "c"):
            data = [m.data for m in handles[name].delivery_log]
            assert data.index(b"question") < data.index(b"answer")

    def test_vc_attached_to_deliveries(self, lan_world):
        handles = join_group(lan_world, ["a", "b"], CAUSAL_STACK)
        handles["a"].cast(b"x")
        lan_world.run(2.0)
        assert "vc" in handles["b"].delivery_log[0].info

    def test_verifier_passes_on_causal_run(self, lan_world):
        from repro.verify import check_causal_order

        handles = join_group(lan_world, ["a", "b", "c"], CAUSAL_STACK)
        for i in range(5):
            handles["a"].cast(f"a{i}".encode())
            handles["b"].cast(f"b{i}".encode())
        lan_world.run(4.0)
        check_causal_order(handles.values())

    def test_concurrent_messages_may_differ_in_order(self, lan_world):
        """Causal order is weaker than total: only causality binds."""
        handles = join_group(lan_world, ["a", "b", "c"], CAUSAL_STACK)
        handles["a"].cast(b"from-a")
        handles["b"].cast(b"from-b")
        lan_world.run(3.0)
        for n in "abc":
            got = sorted(m.data for m in handles[n].delivery_log)
            assert got == [b"from-a", b"from-b"]


class TestStability:
    def test_frontier_advances_after_acks(self, lan_world):
        handles = join_group(lan_world, ["a", "b"], STABLE_STACK)
        handles["a"].cast(b"m1")
        lan_world.run(1.0)
        for handle in handles.values():
            for delivered in handle.delivery_log:
                handle.ack(delivered)
        lan_world.run(2.0)
        layer = handles["a"].focus("STABLE")
        frontier = layer.stability_frontier()
        assert frontier.get(handles["a"].endpoint_address, 0) >= 1

    def test_unacked_messages_stay_unstable(self, lan_world):
        handles = join_group(lan_world, ["a", "b"], STABLE_STACK)
        handles["a"].cast(b"m1")
        lan_world.run(2.0)
        layer = handles["a"].focus("STABLE")
        assert layer.stability_frontier().get(handles["a"].endpoint_address, 0) == 0

    def test_stable_upcall_reaches_application(self, lan_world):
        matrices = []
        world = lan_world
        a = world.process("a").endpoint()
        b = world.process("b").endpoint()
        ha = a.join("grp", stack=STABLE_STACK, on_stable=matrices.append)
        hb = b.join("grp", stack=STABLE_STACK)
        world.run(2.0)
        ha.cast(b"m")
        world.run(1.0)
        for h in (ha, hb):
            for d in h.delivery_log:
                h.ack(d)
        world.run(2.0)
        assert matrices  # at least one stability matrix was reported

    def test_stable_id_in_delivery_info(self, lan_world):
        handles = join_group(lan_world, ["a", "b"], STABLE_STACK)
        handles["a"].cast(b"m")
        lan_world.run(1.0)
        info = handles["b"].delivery_log[0].info
        assert info["stable_id"] == (handles["a"].endpoint_address, 1)

    def test_soundness_checker_passes(self, lan_world):
        from repro.verify import check_stability_soundness

        handles = join_group(lan_world, ["a", "b", "c"], STABLE_STACK)
        for i in range(3):
            handles["a"].cast(f"m{i}".encode())
        lan_world.run(2.0)
        for handle in handles.values():
            for delivered in handle.delivery_log:
                handle.ack(delivered)
        lan_world.run(2.0)
        check_stability_soundness(handles.values())


class TestPinwheel:
    PIN_STACK = "PINWHEEL:MBRSHIP:FRAG:NAK:COM"

    def test_pinwheel_tracks_stability(self, lan_world):
        handles = join_group(lan_world, ["a", "b", "c"], self.PIN_STACK)
        handles["a"].cast(b"m")
        lan_world.run(1.0)
        for handle in handles.values():
            for delivered in handle.delivery_log:
                handle.ack(delivered)
        lan_world.run(5.0)  # several pinwheel rotations
        layer = handles["b"].focus("PINWHEEL")
        assert layer.stability_frontier().get(handles["a"].endpoint_address, 0) >= 1

    def test_pinwheel_sends_fewer_control_messages(self):
        """The Section 10 trade: PINWHEEL ~ STABLE/N background traffic."""
        world_s = World(seed=17, network="lan")
        hs = join_group(world_s, ["a", "b", "c", "d"], "STABLE:MBRSHIP:FRAG:NAK:COM")
        world_s.run(10.0)
        stable_msgs = sum(h.focus("STABLE")._gossip.fired for h in hs.values())

        world_p = World(seed=17, network="lan")
        hp = join_group(world_p, ["a", "b", "c", "d"], self.PIN_STACK)
        world_p.run(10.0)
        pin_msgs = sum(h.focus("PINWHEEL").broadcasts_sent for h in hp.values())
        assert pin_msgs * 2 < stable_msgs  # much less background traffic

        # S10c on the wire: every packet an idle six-member group sends
        # in 20 s after one warm-up cast (402 vs 216 per second).
        idle = {}
        for layer in ("STABLE", "PINWHEEL"):
            world = World(seed=9, network="lan", trace=False)
            names = [f"m{i}" for i in range(6)]
            handles = join_group(
                world, names, f"{layer}:MBRSHIP:FRAG:NAK:COM",
                settle=0.4, final_settle=3.0,
            )
            handles["m0"].cast(b"warm-up")
            world.run(1.0)
            before = world.network.stats.packets_sent
            world.run(20.0)
            idle[layer] = world.network.stats.packets_sent - before
        assert idle == {"STABLE": 8042, "PINWHEEL": 4314}


class TestSafeDelivery:
    def test_safe_delivery_waits_for_stability(self, lan_world):
        handles = join_group(lan_world, ["a", "b", "c"], SAFE_STACK)
        handles["a"].cast(b"careful")
        lan_world.run(0.05)  # not yet a full gossip round
        assert all(not h.delivery_log for h in handles.values())
        lan_world.run(3.0)  # stability propagates, then delivery
        for handle in handles.values():
            assert [m.data for m in handle.delivery_log] == [b"careful"]
            assert handle.delivery_log[0].info.get("safe") is True

    def test_safe_messages_survive_minority_crash(self, lan_world):
        handles = join_group(lan_world, ["a", "b", "c"], SAFE_STACK)
        handles["a"].cast(b"important")
        lan_world.run(3.0)
        delivered_at_b = [m.data for m in handles["b"].delivery_log]
        assert delivered_at_b == [b"important"]
        lan_world.crash("a")
        lan_world.run(8.0)
        # b and c both delivered it before the crash could lose it.
        assert [m.data for m in handles["c"].delivery_log] == [b"important"]

"""Integration tests for TOTAL, CAUSAL(+TS), SAFE, STABLE, PINWHEEL."""

from repro import World

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
        assert total.ordered_sent == 1 and len(mbrship.queued_casts) == 1
        lan_world.run(5.0)
        for name in "ab":
            assert handles[name].view.size == 2
            assert [m.data for m in handles[name].delivery_log] == [b"during-flush"]
        # The old-epoch copy was dropped at both, looped-back copy included.
        assert all(handles[n].focus("TOTAL").stale_epoch_dropped >= 1 for n in "ab")
        assert total.ordered_sent == 2 and not total._released

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

"""Integration tests for the auxiliary layers of Figure 1."""

import pytest

from repro import FaultModel, World
from repro.layers import HorusSocket

from conftest import drain, join_group, manual_destinations


def pair(world, stack, names=("a", "b")):
    handles = {}
    for name in names:
        handles[name] = world.process(name).endpoint().join("grp", stack=stack)
    manual_destinations(handles)
    world.run(0.3)
    return handles


class TestSign:
    def test_signed_messages_flow(self, lan_world):
        handles = pair(lan_world, "NAK:SIGN:COM")
        handles["a"].cast(b"authentic")
        lan_world.run(1.0)
        assert drain(handles["b"]) == [b"authentic"]
        assert handles["b"].focus("SIGN").verified > 0

    def test_wrong_key_rejected(self, lan_world):
        a = lan_world.process("a").endpoint()
        b = lan_world.process("b").endpoint()
        ha = a.join("grp", stack="SIGN(key='k1'):COM")
        hb = b.join("grp", stack="SIGN(key='k2'):COM")
        members = [ha.endpoint_address, hb.endpoint_address]
        ha.set_destinations(members)
        hb.set_destinations(members)
        lan_world.run(0.3)
        ha.cast(b"forged?")
        lan_world.run(1.0)
        assert drain(hb) == []
        assert hb.focus("SIGN").rejected == 1

    def test_garbling_rejected_by_mac(self):
        world = World(seed=6, network="udp",
                      fault_model=FaultModel(base_delay=0.002, garble_rate=1.0))
        handles = pair(world, "SIGN:COM")
        handles["a"].cast(b"x" * 100)
        world.run(1.0)
        assert drain(handles["b"]) == []


class TestUnverifiableIsDropped:
    """A CAST/SEND that does not carry the integrity layer's header cannot
    be verified.  It used to be passed up untouched, so omitting the
    header was all an intruder needed; now it is dropped and counted."""

    @pytest.mark.parametrize("stack, layer, counter, category", [
        ("NAK:SIGN(key='secret'):COM", "SIGN", "rejected", "signature_rejected"),
        ("NAK:CHKSUM:COM", "CHKSUM", "garbled_dropped", "garbled_dropped"),
    ])
    def test_forged_without_header_is_not_delivered(
            self, lan_world, stack, layer, counter, category):
        from repro.core.message import Message
        from repro.net.address import GroupAddress

        handles = pair(lan_world, stack)
        a, b = handles["a"], handles["b"]
        # What NAK and COM would have pushed for a's first cast, and
        # nothing in between: no key, no sum needed to build it.
        forged = Message(b"forged")
        forged.push_header("NAK", {"kind": 0, "era": 0, "seq": 1})
        forged.push_header("COM", {"group": GroupAddress("grp"),
                                   "source": a.endpoint_address, "kind": 0})
        lan_world.network.unicast(
            a.endpoint_address, b.endpoint_address,
            lan_world.registry.marshal(forged, lan_world.wire_mode))
        lan_world.run(1.0)
        assert drain(b) == []
        assert getattr(b.focus(layer), counter) == 1
        assert any(r.category == category and r.detail["layer"] == layer
                   for r in lan_world.trace.records)
        # The legitimate flow, and the sender's loopback self-delivery
        # (which skips the wire but not the layers), still get through.
        a.cast(b"authentic")
        lan_world.run(1.0)
        assert drain(b) == [b"authentic"]
        assert drain(a) == [b"authentic"]
        assert getattr(b.focus(layer), counter) == 1

    def test_other_upcalls_and_messageless_upcalls_pass(self, lan_world):
        from repro.core.events import Upcall, UpcallType

        handles = pair(lan_world, "SIGN:CHKSUM:COM")
        stack = handles["a"].stack
        problems = []
        handles["a"].on_problem = problems.append
        peer = handles["b"].endpoint_address
        stack.deliver_from_network(Upcall(UpcallType.PROBLEM, source=peer))
        stack.layers[1].up(Upcall(UpcallType.CAST, source=peer))  # no message
        assert problems == [peer]
        assert [d.data for d in handles["a"].delivery_log] == [b""]
        assert stack.focus("SIGN").rejected == 0
        assert stack.focus("CHKSUM").garbled_dropped == 0


class TestCrypt:
    def test_roundtrip(self, lan_world):
        handles = pair(lan_world, "NAK:CRYPT:COM")
        handles["a"].cast(b"secret payload")
        lan_world.run(1.0)
        assert drain(handles["b"]) == [b"secret payload"]

    def test_ciphertext_differs_from_plaintext(self, lan_world):
        handles = pair(lan_world, "CRYPT:COM")
        seen = []
        original_deliver = lan_world.network._deliver

        def spy(packet):
            seen.append(packet.payload)
            original_deliver(packet)

        lan_world.network._deliver = spy
        handles["a"].cast(b"top-secret-content")
        lan_world.run(1.0)
        assert drain(handles["b"]) == [b"top-secret-content"]
        assert all(b"top-secret-content" not in payload for payload in seen)

    def test_distinct_messages_distinct_ciphertexts(self, lan_world):
        handles = pair(lan_world, "CRYPT:COM")
        layer = handles["a"].focus("CRYPT")
        from repro.core.message import Message
        m1, m2 = Message(b"same"), Message(b"same")
        layer._apply(m1, layer.key, 1)
        layer._apply(m2, layer.key, 2)
        assert m1.body_bytes() != m2.body_bytes()  # nonce varies keystream


class TestCompress:
    def test_compressible_payload_roundtrip(self, lan_world):
        handles = pair(lan_world, "COMPRESS:COM")
        payload = b"abc" * 400
        handles["a"].cast(payload)
        lan_world.run(1.0)
        assert drain(handles["b"]) == [payload]
        assert handles["a"].focus("COMPRESS").ratio < 0.5

    def test_incompressible_payload_untouched(self, lan_world):
        import random as stdlib_random

        handles = pair(lan_world, "COMPRESS:COM")
        rng = stdlib_random.Random(1)
        payload = bytes(rng.randrange(256) for _ in range(500))
        handles["a"].cast(payload)
        lan_world.run(1.0)
        assert drain(handles["b"]) == [payload]

    def test_small_payload_skips_compression(self, lan_world):
        handles = pair(lan_world, "COMPRESS(min_size=64):COM")
        handles["a"].cast(b"tiny")
        lan_world.run(1.0)
        assert drain(handles["b"]) == [b"tiny"]


class TestPrio:
    def test_high_priority_jumps_queue(self, lan_world):
        handles = pair(lan_world, "PRIO(window=0.01):COM")
        handles["a"].cast(b"low", priority=9)
        handles["a"].cast(b"high", priority=0)
        lan_world.run(1.0)
        got = [m.data for m in handles["b"].delivery_log]
        assert got == [b"high", b"low"]

    def test_priority_attached_to_delivery(self, lan_world):
        handles = pair(lan_world, "PRIO:COM")
        handles["a"].cast(b"x", priority=2)
        lan_world.run(1.0)
        assert handles["b"].delivery_log[0].info["priority"] == 2


class TestLoggerTracerAccount:
    def test_logger_journals_deliveries_and_views(self, lan_world):
        handles = join_group(lan_world, ["a", "b"], "LOGGER:MBRSHIP:FRAG:NAK:COM")
        handles["a"].cast(b"logged")
        lan_world.run(1.0)
        journal = handles["b"].focus("LOGGER").replay()
        kinds = [entry.kind for entry in journal]
        assert "view" in kinds and "deliver" in kinds
        deliveries = handles["b"].focus("LOGGER").replay("deliver")
        assert deliveries[-1].body == b"logged"

    def test_tracer_counts_events(self, lan_world):
        handles = pair(lan_world, "TRACER:NAK:COM")
        handles["a"].cast(b"x")
        lan_world.run(1.0)
        tracer = handles["a"].focus("TRACER")
        assert tracer.down_counts.get("CAST", 0) >= 1
        assert handles["b"].focus("TRACER").up_counts.get("CAST", 0) >= 1

    def test_accounting_meters_bytes(self, lan_world):
        handles = pair(lan_world, "ACCOUNT:NAK:COM")
        handles["a"].cast(b"x" * 100)
        lan_world.run(1.0)
        account = handles["b"].focus("ACCOUNT")
        assert account.received_bytes >= 100
        source = str(handles["a"].endpoint_address)
        assert account.per_source[source][0] >= 1


class TestNnak:
    def test_reliable_unicast_lossy(self, lossy_world):
        handles = pair(lossy_world, "NNAK:COM", names=("a", "b"))
        for i in range(40):
            handles["a"].send([handles["b"].endpoint_address], f"u{i:02d}".encode())
        lossy_world.run(12.0)
        got = [m.data for m in handles["b"].delivery_log]
        assert got == [f"u{i:02d}".encode() for i in range(40)]

    def test_casts_pass_through_unsequenced(self, lossy_world):
        handles = pair(lossy_world, "NNAK:COM")
        for i in range(30):
            handles["a"].cast(f"c{i}".encode())
        lossy_world.run(5.0)
        got = [m.data for m in handles["b"].delivery_log]
        assert 0 < len(got) <= 30  # best effort: some loss expected
        # No sequence number was spent on a cast, so no gap was seen.
        assert handles["a"].focus("NNAK").dump()["send_seq"] == 0
        assert handles["b"].focus("NNAK").naks_sent == 0


class TestNfrag:
    def test_large_message_over_unordered_network(self):
        world = World(seed=8, network="udp",
                      fault_model=FaultModel(base_delay=0.003, jitter=0.004,
                                             reorder_rate=0.3))
        handles = pair(world, "NAK:NFRAG(max_size=100):COM")
        payload = bytes(range(256)) * 10
        handles["a"].cast(payload)
        world.run(5.0)
        assert drain(handles["b"]) == [payload]

    def test_fragment_loss_recovers_via_nak_above(self):
        world = World(seed=9, network="udp",
                      fault_model=FaultModel(base_delay=0.003, loss_rate=0.1))
        handles = pair(world, "NAK:NFRAG(max_size=64):COM")
        payloads = [bytes([i]) * 200 for i in range(10)]
        for p in payloads:
            handles["a"].cast(p)
        world.run(15.0)
        assert [m.data for m in handles["b"].delivery_log] == payloads

    def test_incomplete_reassembly_expires(self):
        world = World(seed=10, network="udp",
                      fault_model=FaultModel(base_delay=0.002, loss_rate=0.5))
        handles = pair(world, "NFRAG(max_size=32,reassembly_timeout=0.5):COM")
        handles["a"].cast(b"z" * 500)
        world.run(3.0)
        layer = handles["b"].focus("NFRAG")
        assert len(layer._buffers) == 0  # expired, not leaked
        assert layer.reassembly_expired > 0


class TestAutoMerge:
    def test_partitioned_components_remerge_automatically(self):
        world = World(seed=12, network="lan")
        stack = "MERGE(probe_period=0.5):MBRSHIP(partition='evs'):FRAG:NAK:COM"
        handles = join_group(world, ["a", "b", "c", "d"], stack)
        world.partition({"a", "b"}, {"c", "d"})
        world.run(5.0)
        assert handles["a"].view.size == 2
        assert handles["c"].view.size == 2
        world.heal()
        world.run(10.0)
        views = {(handles[n].view.view_id, handles[n].view.members) for n in "abcd"}
        assert len(views) == 1
        assert handles["a"].view.size == 4


class TestHorusSocket:
    def test_socket_facade_roundtrip(self, lan_world):
        sock_a = HorusSocket(lan_world.process("a").endpoint())
        sock_b = HorusSocket(lan_world.process("b").endpoint())
        sock_a.bind("room")
        lan_world.run(0.5)
        sock_b.bind("room")
        lan_world.run(3.0)
        sock_a.sendto(b"hi from a", "room")
        lan_world.run(2.0)
        received = sock_b.recvfrom()
        assert received is not None
        data, addr = received
        assert data == b"hi from a"
        assert addr == sock_a.getsockname()

    def test_unbound_socket_raises(self, lan_world):
        from repro.errors import GroupError

        sock = HorusSocket(lan_world.process("a").endpoint())
        with pytest.raises(GroupError):
            sock.sendto(b"x", "room")

    def test_close_leaves_group(self, lan_world):
        sock_a = HorusSocket(lan_world.process("a").endpoint())
        sock_b = HorusSocket(lan_world.process("b").endpoint())
        sock_a.bind("room")
        lan_world.run(0.5)
        sock_b.bind("room")
        lan_world.run(3.0)
        sock_b.close()
        lan_world.run(4.0)
        assert sock_a.handle.view.size == 1


class TestDecomposedMembership:
    STACK = "FLUSH:VSS:BMS:FRAG:NAK:COM"

    def test_views_and_delivery(self, lan_world):
        handles = join_group(lan_world, ["a", "b", "c"], self.STACK,
                             settle=0.5, final_settle=3.0)
        views = {(h.view.view_id, h.view.members) for h in handles.values()}
        assert len(views) == 1
        handles["b"].cast(b"micro")
        lan_world.run(2.0)
        for handle in handles.values():
            assert [m.data for m in handle.delivery_log] == [b"micro"]

    def test_cut_on_crash_matches_mbrship_semantics(self, lan_world):
        handles = join_group(lan_world, ["a", "b", "c"], self.STACK,
                             settle=0.5, final_settle=3.0)
        for i in range(5):
            handles["c"].cast(f"c{i}".encode())
        lan_world.run(0.01)
        lan_world.crash("c")
        lan_world.run(10.0)
        sets = {tuple(m.data for m in handles[n].delivery_log) for n in "ab"}
        assert len(sets) == 1  # identical cut at both survivors
        assert handles["a"].view.size == 2

    def test_a_held_view_is_released_after_release_timeout(self, lan_world):
        """The last-resort valve: with no coordinator ever sending the
        cut, each survivor holds the new view for ``release_timeout``
        and then installs it anyway."""
        stack = "FLUSH(release_timeout=1.0):VSS:BMS:FRAG:NAK:COM"
        handles = join_group(lan_world, ["a", "b", "c"], stack,
                             settle=0.5, final_settle=3.0)
        flush = [handles[n].focus("FLUSH") for n in "ab"]
        cuts = [layer.cuts_completed for layer in flush]
        for layer in flush:
            layer._maybe_complete_cut = lambda: None  # no SYNC, ever
        lan_world.crash("c")
        assert lan_world.run_while(
            lambda: all(layer._held_view is not None for layer in flush),
            timeout=10.0)
        lan_world.run(0.9)
        assert all(layer._held_view is not None for layer in flush)
        assert [handles[n].view.size for n in "ab"] == [3, 3]
        lan_world.run(0.2)
        assert [handles[n].view.size for n in "ab"] == [2, 2]
        assert [layer.cuts_completed for layer in flush] == cuts

    def test_layered_composition_beats_fused_on_modularity(self, lan_world):
        """Both the fused MBRSHIP and the BMS:VSS:FLUSH pile satisfy the
        same dump/focus introspection — the composition is real."""
        handles = join_group(lan_world, ["a", "b"], self.STACK,
                             settle=0.5, final_settle=3.0)
        names = [layer["name"] for layer in handles["a"].dump()]
        assert names[:3] == ["FLUSH", "VSS", "BMS"]

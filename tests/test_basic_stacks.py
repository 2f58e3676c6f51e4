"""Integration tests for COM / NAK / FRAG stacks (no membership layer).

At these levels "a view is nothing but the set of destination endpoints
for multicast messages" (Section 7), so tests install destination sets
by hand via the ``view`` downcall.
"""

from repro import FaultModel, World
from repro.layers.nak import _DATA_U, _USTATUS

from conftest import drain, manual_destinations


def build(world, names, stack):
    handles = {}
    for name in names:
        handles[name] = world.process(name).endpoint().join("grp", stack=stack)
    manual_destinations(handles)
    world.run(0.3)
    return handles


class TestComOnly:
    def test_cast_reaches_all_including_self(self, lan_world):
        handles = build(lan_world, ["a", "b", "c"], "COM")
        handles["a"].cast(b"hi")
        lan_world.run(0.5)
        for handle in handles.values():
            assert drain(handle) == [b"hi"]

    def test_send_subset_only(self, lan_world):
        handles = build(lan_world, ["a", "b", "c"], "COM")
        handles["a"].send([handles["b"].endpoint_address], b"private")
        lan_world.run(0.5)
        assert drain(handles["b"]) == [b"private"]
        assert drain(handles["a"]) == []
        assert drain(handles["c"]) == []

    def test_source_is_reported(self, lan_world):
        handles = build(lan_world, ["a", "b"], "COM")
        handles["a"].cast(b"x")
        lan_world.run(0.5)
        delivered = handles["b"].receive()
        assert delivered.source == handles["a"].endpoint_address
        assert delivered.was_cast

    def test_two_groups_are_isolated(self, lan_world):
        a = lan_world.process("a").endpoint()
        b = lan_world.process("b").endpoint()
        g1a, g1b = a.join("one", stack="COM"), b.join("one", stack="COM")
        g2a, g2b = a.join("two", stack="COM"), b.join("two", stack="COM")
        for g in (g1a, g1b):
            g.set_destinations([g1a.endpoint_address, g1b.endpoint_address])
        for g in (g2a, g2b):
            g.set_destinations([g2a.endpoint_address, g2b.endpoint_address])
        g1a.cast(b"one")
        g2a.cast(b"two")
        lan_world.run(0.5)
        assert drain(g1b) == [b"one"]
        assert drain(g2b) == [b"two"]


class TestNak:
    def test_fifo_order_under_loss(self, lossy_world):
        handles = build(lossy_world, ["a", "b"], "NAK:COM")
        n = 150
        for i in range(n):
            handles["a"].cast(f"m{i:04d}".encode())
        lossy_world.run(15.0)
        got = [m.data for m in handles["b"].delivery_log]
        assert got == [f"m{i:04d}".encode() for i in range(n)]

    def test_no_duplicates_delivered(self, lossy_world):
        handles = build(lossy_world, ["a", "b"], "NAK:COM")
        for i in range(50):
            handles["a"].cast(f"m{i}".encode())
        lossy_world.run(10.0)
        got = [m.data for m in handles["b"].delivery_log]
        assert len(got) == len(set(got)) == 50

    def test_reliable_unicast_send(self, lossy_world):
        handles = build(lossy_world, ["a", "b", "c"], "NAK:COM")
        for i in range(50):
            handles["a"].send([handles["b"].endpoint_address], f"s{i:03d}".encode())
        lossy_world.run(10.0)
        got = [m.data for m in handles["b"].delivery_log]
        assert got == [f"s{i:03d}".encode() for i in range(50)]
        assert drain(handles["c"]) == []

    def test_problem_upcall_on_silence(self):
        world = World(seed=3, network="lan")
        problems = []
        a = world.process("a").endpoint()
        b = world.process("b").endpoint()
        ha = a.join("grp", stack="NAK:COM", on_problem=problems.append)
        hb = b.join("grp", stack="NAK:COM")
        members = [ha.endpoint_address, hb.endpoint_address]
        ha.set_destinations(members)
        hb.set_destinations(members)
        world.run(1.0)
        world.crash("b")
        world.run(3.0)
        assert hb.endpoint_address in problems

    def test_cast_and_send_spaces_independent(self, lan_world):
        handles = build(lan_world, ["a", "b"], "NAK:COM")
        handles["a"].cast(b"cast1")
        handles["a"].send([handles["b"].endpoint_address], b"send1")
        handles["a"].cast(b"cast2")
        lan_world.run(1.0)
        got = [m.data for m in handles["b"].delivery_log]
        assert sorted(got) == [b"cast1", b"cast2", b"send1"]
        casts = [m for m in handles["b"].delivery_log if m.was_cast]
        assert [m.data for m in casts] == [b"cast1", b"cast2"]


class TestNakStatus:
    """Status is one multicast per period: beneath the multicast
    high-water mark it carries, per view member, the last unicast seq
    sent to that member.  A USTATUS unicast is only for a stream to an
    endpoint outside the view."""

    PATH = 0.001  # one-way delay, no loss
    STATUS_PERIOD, NAK_DELAY = 0.25, 0.02  # NAK's defaults

    def rig(self, monkeypatch, view):
        """a, b, c on NAK:COM; ``view`` members have each other as
        destinations.  Returns the world, the handles, every datagram's
        ``(source, dest, NAK kind)``, and a list of ``(dest, kind)`` to
        drop once each."""
        from repro.core.headers import DEFAULT_REGISTRY

        world = World(seed=5, network="lan",
                      fault_model=FaultModel(base_delay=self.PATH))
        handles = {n: world.process(n).endpoint().join("grp", stack="NAK:COM")
                   for n in "abc"}
        manual_destinations({n: handles[n] for n in view})
        wire, drops = [], []
        unicast = world.network.unicast

        def recorded(source, dest, data):
            kind = dict(DEFAULT_REGISTRY.unmarshal(data).headers())["NAK"]["kind"]
            wire.append((source.node, dest.node, kind))
            if (dest.node, kind) in drops:
                drops.remove((dest.node, kind))
                return
            unicast(source, dest, data)

        monkeypatch.setattr(world.network, "unicast", recorded)
        world.run(0.3)
        return world, handles, wire, drops

    def test_lost_last_unicast_to_a_member_is_found_by_the_multicast(
            self, monkeypatch):
        world, handles, wire, drops = self.rig(monkeypatch, view="abc")
        drops.append(("b", _DATA_U))
        handles["a"].send([handles["b"].endpoint_address], b"last")
        sent_at = world.now
        assert not drops  # lost on the wire
        poll = 0.001
        assert world.run_while(lambda: handles["b"].delivery_log, timeout=1.0,
                               poll=poll)
        # The next status tick, the gap timer, then the status's, the
        # NAK's and the retransmission's trips.
        assert world.now - sent_at <= (
            self.STATUS_PERIOD + self.NAK_DELAY + 3 * self.PATH + poll)
        assert [m.data for m in handles["b"].delivery_log] == [b"last"]
        world.run(1.0)
        assert not [w for w in wire if w[2] == _USTATUS]

    def test_a_stream_outside_the_view_still_gets_a_ustatus(self, monkeypatch):
        world, handles, wire, drops = self.rig(monkeypatch, view="ab")
        drops.append(("c", _DATA_U))
        handles["a"].send([handles["c"].endpoint_address], b"outside")
        handles["a"].send([handles["b"].endpoint_address], b"inside")
        world.run(1.0)
        assert [m.data for m in handles["c"].delivery_log] == [b"outside"]
        ustatus = {(src, dest) for src, dest, kind in wire if kind == _USTATUS}
        assert ustatus == {("a", "c")}


class TestFrag:
    def test_large_message_roundtrip(self, lan_world):
        handles = build(lan_world, ["a", "b"], "FRAG(max_size=100):NAK:COM")
        payload = bytes(range(256)) * 20  # 5120 bytes
        handles["a"].cast(payload)
        lan_world.run(1.0)
        assert drain(handles["b"]) == [payload]

    def test_small_message_single_fragment(self, lan_world):
        handles = build(lan_world, ["a", "b"], "FRAG(max_size=100):NAK:COM")
        handles["a"].cast(b"tiny")
        lan_world.run(0.5)
        assert drain(handles["b"]) == [b"tiny"]
        assert handles["a"].focus("FRAG").fragments_sent == 0

    def test_fragment_count(self, lan_world):
        handles = build(lan_world, ["a", "b"], "FRAG(max_size=100):NAK:COM")
        handles["a"].cast(b"x" * 450)
        lan_world.run(0.5)
        assert handles["a"].focus("FRAG").fragments_sent == 5
        assert handles["b"].focus("FRAG").messages_reassembled == 1

    def test_interleaved_large_messages_under_loss(self, lossy_world):
        handles = build(lossy_world, ["a", "b"], "FRAG(max_size=64):NAK:COM")
        payloads = [bytes([i]) * (150 + i) for i in range(20)]
        for p in payloads:
            handles["a"].cast(p)
        lossy_world.run(15.0)
        assert [m.data for m in handles["b"].delivery_log] == payloads

    def test_exact_boundary_size(self, lan_world):
        handles = build(lan_world, ["a", "b"], "FRAG(max_size=100):NAK:COM")
        handles["a"].cast(b"y" * 100)  # exactly max_size: no fragmentation
        handles["a"].cast(b"y" * 101)  # one byte over: two fragments
        lan_world.run(0.5)
        got = drain(handles["b"])
        assert [len(g) for g in got] == [100, 101]
        assert handles["a"].focus("FRAG").fragments_sent == 2

    def test_cast_and_send_reassembly_buffers_independent(self, lan_world):
        handles = build(lan_world, ["a", "b"], "FRAG(max_size=50):NAK:COM")
        handles["a"].cast(b"C" * 120)
        handles["a"].send([handles["b"].endpoint_address], b"S" * 120)
        lan_world.run(0.5)
        got = sorted(drain(handles["b"]))
        assert got == [b"C" * 120, b"S" * 120]


class TestGarbling:
    def _garbling_world(self):
        return World(
            seed=4,
            network="udp",
            fault_model=FaultModel(base_delay=0.002, garble_rate=0.25),
        )

    def test_chksum_recovers_exact_data(self):
        """With CHKSUM below NAK, garbled packets become clean losses
        that NAK then repairs: delivery is exact despite 25% corruption."""
        world = self._garbling_world()
        a = world.process("a").endpoint()
        b = world.process("b").endpoint()
        ha = a.join("grp", stack="NAK:CHKSUM:COM")
        hb = b.join("grp", stack="NAK:CHKSUM:COM")
        members = [ha.endpoint_address, hb.endpoint_address]
        ha.set_destinations(members)
        hb.set_destinations(members)
        world.run(0.3)
        for i in range(50):
            ha.cast(f"g{i:03d}".encode())
        world.run(20.0)
        got = [m.data for m in hb.delivery_log]
        assert got == [f"g{i:03d}".encode() for i in range(50)]
        assert hb.focus("CHKSUM").garbled_dropped > 0

    def test_garbled_packets_without_chksum_never_crash(self):
        """Without a checksum layer nothing detects corruption — the
        paper's Section 2 point — but the stack must stay alive and
        keep FIFO per source for the messages that survive intact."""
        world = self._garbling_world()
        a = world.process("a").endpoint()
        b = world.process("b").endpoint()
        ha = a.join("grp", stack="NAK:COM")
        hb = b.join("grp", stack="NAK:COM")
        members = [ha.endpoint_address, hb.endpoint_address]
        ha.set_destinations(members)
        hb.set_destinations(members)
        world.run(0.3)
        for i in range(50):
            ha.cast(f"g{i:03d}".encode())
        world.run(20.0)
        clean = [m.data for m in hb.delivery_log if m.data in
                 {f"g{i:03d}".encode() for i in range(50)}]
        assert clean == sorted(clean)

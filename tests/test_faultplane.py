"""The unified FaultPlane API across both substrates.

Covers the protocol itself (structural isinstance) and its semantic
core: recovery is a blank slate — a recovered node re-joins through
MBRSHIP merge with a fresh endpoint, it never silently resumes its old
one.
"""

import pytest

from repro.chaos import FaultPlane
from repro.errors import NetworkError
from repro.net.address import EndpointAddress
from repro.net.faults import FaultModel
from repro.net.network import Network
from repro.sim.scheduler import Scheduler


class TestNetworkFaultPlane:
    def _net(self):
        sched = Scheduler()
        return sched, Network(sched)

    def test_network_satisfies_protocol(self):
        _, net = self._net()
        assert isinstance(net, FaultPlane)

    def test_crash_recover_round_trip(self):
        sched, net = self._net()
        a, b = EndpointAddress("a"), EndpointAddress("b")
        got = []
        net.attach(a, lambda p: None)
        net.attach(b, got.append)
        net.crash("b")
        assert not net.node_alive("b")
        with pytest.raises(NetworkError):
            net.unicast(b, a, b"from the grave")
        net.recover("b")
        assert net.node_alive("b")
        net.unicast(a, b, b"welcome back")
        sched.run()
        assert [p.payload for p in got] == [b"welcome back"]

    def test_partition_heal_round_trip(self):
        sched, net = self._net()
        a, b = EndpointAddress("a"), EndpointAddress("b")
        got = []
        net.attach(a, lambda p: None)
        net.attach(b, got.append)
        net.partition(["a"], ["b"])
        net.unicast(a, b, b"blocked")
        sched.run()
        assert got == []
        net.heal()
        net.unicast(a, b, b"through")
        sched.run()
        assert [p.payload for p in got] == [b"through"]

    def test_set_faults_swaps_and_none_restores(self):
        _, net = self._net()
        lossy = FaultModel(loss_rate=1.0)
        net.set_faults(lossy)
        assert net.fault_model is lossy
        net.set_faults(None)
        assert net.fault_model.loss_rate == 0.0


class TestWorldFaultPlane:
    def test_world_satisfies_protocol(self):
        from repro import World

        assert isinstance(World(), FaultPlane)

    def test_recover_rejoins_via_merge_not_resume(self):
        """A recovered process must come back through the MBRSHIP
        join/merge path with a *new* endpoint: the old handle stays
        frozen at the crash point and the final view contains a
        different address for the node."""
        from repro import World
        from conftest import join_group

        world = World(seed=5, network="lan")
        handles = join_group(world, ["a", "b", "c"], "MBRSHIP:FRAG:NAK:COM")
        old_handle = handles["c"]
        old_address = old_handle.endpoint_address
        old_views = len(old_handle.view_history)

        world.crash("c")
        world.run(8.0)
        assert handles["a"].view.size == 2

        world.recover("c")
        new_handle = world.process("c").endpoint().join(
            "grp", stack="MBRSHIP:FRAG:NAK:COM"
        )
        ok = world.run_while(
            lambda: new_handle.view is not None and new_handle.view.size == 3,
            timeout=30.0,
        )
        assert ok, "recovered node never merged back"

        # Fresh identity: new port, so a new endpoint address.
        assert new_handle.endpoint_address != old_address
        assert new_handle.endpoint_address.node == "c"
        assert new_handle.endpoint_address in handles["a"].view.members
        assert old_address not in handles["a"].view.members
        # The crashed incarnation never saw another view.
        assert len(old_handle.view_history) == old_views

    def test_recover_only_counts_when_dead(self):
        from repro import World

        world = World()
        world.process("p")
        world.crash("p")
        world.recover("p")
        assert world.process("p").alive
        # Recovering a live process is a no-op, not an error.
        world.recover("p")
        assert world.process("p").alive

    def test_crashed_endpoints_are_destroyed_on_recover(self):
        from repro import World

        world = World(seed=3)
        endpoint = world.process("p").endpoint()
        endpoint.join("g", stack="COM")
        world.crash("p")
        world.recover("p")
        assert endpoint.destroyed
        assert not world.network.attached(endpoint.address)

    @pytest.mark.parametrize(
        "substrate",
        ["des", pytest.param("realtime", marks=pytest.mark.realtime)],
    )
    def test_fault_ops_are_counted(self, substrate):
        """Both worlds inherit one fault plane, so the same ops leave
        the same ``chaos_ops_total`` counts and trace on either."""
        if substrate == "des":
            from repro import World

            world = World()
        else:
            from repro.runtime.world import RealtimeWorld

            world = RealtimeWorld()
        try:
            world.process("p")
            world.crash("p")
            assert not world.node_alive("p")
            world.recover("p")
            world.recover("p")  # already up: a no-op, not counted
            assert world.node_alive("p")
            world.partition(["p"])
            world.heal()
            world.set_faults(None)
            family = world.metrics.get("chaos_ops_total")
            counts = {
                series.labels["op"]: series.value
                for series in family.series()
            }
            assert counts == {
                "crash": 1, "recover": 1, "partition": 1, "heal": 1,
                "set_faults": 1,
            }
            assert [r.category for r in world.trace.records] == [
                "crash", "recover", "partition", "heal", "set_faults",
            ]
        finally:
            if substrate == "realtime":
                world.close()


@pytest.mark.realtime
class TestRealtimeFaultPlane:
    def test_transport_and_world_satisfy_protocol(self):
        from repro.runtime.world import RealtimeWorld

        world = RealtimeWorld(seed=0)
        try:
            assert isinstance(world, FaultPlane)
            assert isinstance(world.network, FaultPlane)
        finally:
            world.close()

    def test_partition_blocks_and_heal_restores(self):
        from repro.runtime.world import RealtimeWorld

        world = RealtimeWorld(seed=1)
        try:
            a = world.process("a").endpoint()
            b = world.process("b").endpoint()
            # Plain COM: a packet the partition eats is gone for good,
            # so delivery-log contents cleanly witness the cut.
            ha = a.join("g", stack="COM")
            hb = b.join("g", stack="COM")
            world.run(0.1)
            members = [ha.endpoint_address, hb.endpoint_address]
            ha.set_destinations(members)
            hb.set_destinations(members)

            world.partition(["a"], ["b"])
            ha.cast(b"blocked")
            world.run(0.4)
            assert world.stats.packets_partitioned > 0
            assert hb.delivery_log == []

            world.heal()
            world.set_faults(None)
            ha.cast(b"through")
            ok = world.run_while(
                lambda: any(
                    m.data == b"through" for m in hb.delivery_log
                ),
                timeout=5.0,
            )
            assert ok
            assert all(m.data != b"blocked" for m in hb.delivery_log)
        finally:
            world.close()

    def test_set_faults_injects_loss_on_real_sockets(self):
        from repro.runtime.world import RealtimeWorld

        world = RealtimeWorld(seed=2)
        try:
            a = world.process("a").endpoint()
            b = world.process("b").endpoint()
            ha = a.join("g", stack="COM")
            hb = b.join("g", stack="COM")
            world.run(0.1)
            members = [ha.endpoint_address, hb.endpoint_address]
            ha.set_destinations(members)
            hb.set_destinations(members)

            world.set_faults(FaultModel(loss_rate=1.0))
            for i in range(5):
                ha.cast(b"lost-%d" % i)
            world.run(0.4)
            assert hb.delivery_log == []
            assert world.stats.packets_lost >= 5
        finally:
            world.close()

    def test_recover_rejoins_with_fresh_endpoint(self):
        from repro.runtime.world import RealtimeWorld

        world = RealtimeWorld(seed=3)
        try:
            handles = {}
            for name in ("a", "b", "c"):
                handles[name] = world.process(name).endpoint().join(
                    "g", stack="MBRSHIP:FRAG:NAK:COM"
                )
                world.run(0.1)
            ok = world.run_while(
                lambda: all(
                    h.view is not None and h.view.size == 3
                    for h in handles.values()
                ),
                timeout=10.0,
            )
            assert ok

            old_address = handles["c"].endpoint_address
            world.crash("c")
            world.run_while(
                lambda: handles["a"].view is not None
                and handles["a"].view.size == 2,
                timeout=10.0,
            )

            world.recover("c")
            fresh = world.process("c").endpoint().join(
                "g", stack="MBRSHIP:FRAG:NAK:COM"
            )
            ok = world.run_while(
                lambda: fresh.view is not None and fresh.view.size == 3,
                timeout=15.0,
            )
            assert ok, "recovered realtime node never merged back"
            assert fresh.endpoint_address != old_address
            assert old_address not in handles["a"].view.members
        finally:
            world.close()


@pytest.mark.realtime
class TestRealtimeInjectedFrames:
    """Sends under an installed ``FaultModel`` leave through
    ``UdpTransport._emit_frame`` — late, twice or garbled — not through
    the fault-free ``sendto`` fast path."""

    @pytest.fixture
    def wire(self):
        """A realtime world, a raw sink on node ``b`` and a sender on ``a``."""
        from repro.runtime.world import RealtimeWorld

        world = RealtimeWorld(seed=4)
        try:
            world.process("a")
            world.process("b")
            source, sink = EndpointAddress("a", 98), EndpointAddress("b", 99)
            got = []
            world.network.attach(sink, got.append)
            yield world, got, lambda payload: world.network.unicast(
                source, sink, payload)
        finally:
            world.close()

    def test_duplicates_arrive_and_are_counted(self, wire):
        world, got, send = wire
        # The default base_delay holds each copy back on the engine first.
        world.set_faults(FaultModel(duplicate_rate=1.0))
        for i in range(3):
            send(b"twice-%d" % i)
        assert world.run_while(lambda: len(got) == 6, timeout=5.0)
        assert sorted(p.payload for p in got) == sorted(
            [b"twice-0", b"twice-1", b"twice-2"] * 2)
        assert world.stats.packets_duplicated == 3
        assert world.stats.packets_garbled == 0

    def test_garbled_frames_arrive_and_are_counted(self, wire):
        world, got, send = wire
        world.set_faults(FaultModel(base_delay=0.0, garble_rate=1.0))
        send(b"clean bytes")
        assert world.run_while(lambda: got, timeout=5.0)
        (packet,) = got
        # Counted at injection; the frame itself says nothing about it.
        assert packet.payload != b"clean bytes"
        assert len(packet.payload) == len(b"clean bytes")
        assert world.stats.packets_garbled == 1

    def test_delayed_frame_of_a_node_crashed_meanwhile_is_not_sent(self, wire):
        world, got, send = wire
        world.set_faults(FaultModel(base_delay=0.2))
        send(b"in flight at the crash")
        world.network.crash("a")
        world.run(0.5)
        assert got == []
        world.network.recover("a")
        send(b"after recovery")
        assert world.run_while(lambda: got, timeout=5.0)
        assert [p.payload for p in got] == [b"after recovery"]

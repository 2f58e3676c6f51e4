"""Unit tests for addresses, fault models, partitions, and networks."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.errors import AddressError, NetworkError, PacketTooLargeError
from repro.net.address import EndpointAddress, GroupAddress
from repro.net.atm import AtmNetwork
from repro.net.faults import FaultModel
from repro.net.lan import LanNetwork
from repro.net.network import Network
from repro.net.partition import PartitionController
from repro.net.udp import UdpNetwork
from repro.sim.scheduler import Scheduler


class TestAddresses:
    def test_endpoint_marshal_roundtrip(self):
        addr = EndpointAddress("node-x", 17)
        assert EndpointAddress.unmarshal(addr.marshal()) == addr

    def test_group_marshal_roundtrip(self):
        grp = GroupAddress("my.group")
        assert GroupAddress.unmarshal(grp.marshal()) == grp

    def test_endpoint_ordering(self):
        assert EndpointAddress("a", 0) < EndpointAddress("a", 1) < EndpointAddress("b", 0)

    def test_endpoint_hashable(self):
        assert len({EndpointAddress("a", 0), EndpointAddress("a", 0)}) == 1

    def test_hashes_are_those_of_the_field_tuple(self):
        # Set and dict iteration orders — and so the DES digests — hang
        # on these values.
        assert hash(EndpointAddress("n", 7)) == hash(("n", 7))
        assert hash(GroupAddress("g")) == hash(("g",))

    def test_kinds_never_compare_equal(self):
        assert EndpointAddress("g", 0) != GroupAddress("g")
        assert GroupAddress("a") < GroupAddress("b")

    def test_repr_and_str(self):
        assert repr(EndpointAddress("n", 7)) == "EndpointAddress(node='n', port=7)"
        assert repr(GroupAddress("g")) == "GroupAddress(name='g')"
        assert (str(EndpointAddress("n")), str(GroupAddress("g"))) == ("n:0", "g")

    def test_immutable(self):
        with pytest.raises(AttributeError):
            EndpointAddress("n", 7).port = 8
        with pytest.raises(AttributeError):
            GroupAddress("g").name = "h"

    def test_pickle_roundtrip(self):
        import pickle

        for addr in (EndpointAddress("n", 7), GroupAddress("g")):
            back = pickle.loads(pickle.dumps(addr))
            assert back == addr and type(back) is type(addr)

    @given(node=st.text(min_size=1, max_size=20), port=st.integers(0, 1000))
    def test_property_endpoint_roundtrip(self, node, port):
        addr = EndpointAddress(node, port)
        assert EndpointAddress.unmarshal(addr.marshal()) == addr


class TestFaultModel:
    def test_perfect_delivers_exactly_once(self):
        model = FaultModel.perfect()
        rng = random.Random(0)
        deliveries = model.plan_deliveries(rng, b"x")
        assert len(deliveries) == 1
        delay, data, garbled = deliveries[0]
        assert data == b"x" and not garbled and delay == model.base_delay

    def test_full_loss_drops_everything(self):
        model = FaultModel(loss_rate=1.0)
        assert model.plan_deliveries(random.Random(0), b"x") == []

    def test_duplication(self):
        model = FaultModel(duplicate_rate=1.0)
        assert len(model.plan_deliveries(random.Random(0), b"x")) == 2

    def test_garbling_flips_payload(self):
        model = FaultModel(garble_rate=1.0)
        _, data, garbled = model.plan_deliveries(random.Random(0), b"abc")[0]
        assert garbled and data != b"abc" and len(data) == 3

    def test_loss_rate_statistics(self):
        model = FaultModel(loss_rate=0.3)
        rng = random.Random(7)
        lost = sum(
            1 for _ in range(2000) if not model.plan_deliveries(rng, b"x")
        )
        assert 0.25 < lost / 2000 < 0.35

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError):
            FaultModel(loss_rate=1.5)
        with pytest.raises(ValueError):
            FaultModel(base_delay=-1)

    def test_reorder_adds_delay(self):
        model = FaultModel(reorder_rate=1.0, reorder_delay=0.5)
        delay, _, _ = model.plan_deliveries(random.Random(0), b"x")[0]
        assert delay >= 0.5

    def test_garbling_never_changes_length(self):
        """Pin: garbling flips one byte in place for every payload size.
        (It used to garble b"" into a fabricated b"\\xff".)"""
        model = FaultModel(garble_rate=1.0)
        rng = random.Random(3)
        for size in (0, 1, 2, 64, 9000):
            payload = b"q" * size
            _, data, _ = model.plan_deliveries(rng, payload)[0]
            assert len(data) == size

    def test_empty_payload_never_garbled(self):
        model = FaultModel(garble_rate=1.0)
        for seed in range(20):
            deliveries = model.plan_deliveries(random.Random(seed), b"")
            for _, data, garbled in deliveries:
                assert data == b"" and not garbled

    def test_one_byte_payload_garbles_to_different_byte(self):
        model = FaultModel(garble_rate=1.0)
        for seed in range(20):
            _, data, garbled = model.plan_deliveries(random.Random(seed), b"\x00")[0]
            assert garbled and len(data) == 1 and data != b"\x00"

    def test_garble_draw_keeps_rng_stream_aligned(self):
        """Pin: an empty payload consumes the same rng draws as a
        non-empty one, so fault schedules don't shift with payload
        content."""
        model = FaultModel(garble_rate=0.5, loss_rate=0.3)
        fates_empty = [
            len(model.plan_deliveries(random.Random(seed), b""))
            for seed in range(50)
        ]
        fates_full = [
            len(model.plan_deliveries(random.Random(seed), b"payload"))
            for seed in range(50)
        ]
        assert fates_empty == fates_full


class TestChksumRejectsGarbling:
    """CHKSUM must catch every garbled variant plan_deliveries emits."""

    def _world(self, garble_rate):
        from repro import World

        world = World(
            seed=13,
            network="udp",
            fault_model=FaultModel(base_delay=0.002, garble_rate=garble_rate),
        )
        a = world.process("a").endpoint()
        b = world.process("b").endpoint()
        ha = a.join("g", stack="CHKSUM:COM")
        hb = b.join("g", stack="CHKSUM:COM")
        members = [h.endpoint_address for h in (ha, hb)]
        ha.set_destinations(members)
        hb.set_destinations(members)
        return world, ha, hb

    def test_garbled_packets_all_dropped(self):
        """At 100% garbling nothing may reach the application.  Flips
        landing in the payload are caught by the CRC; flips landing in
        a header die in header parsing — either way, never delivered."""
        world, ha, hb = self._world(garble_rate=1.0)
        for i in range(10):
            ha.cast(b"m%d" % i)
        world.run(2.0)
        assert hb.delivery_log == []
        assert hb.focus("CHKSUM").garbled_dropped > 0

    def test_tiny_payloads_survive_or_die_cleanly(self):
        """1-byte application payloads: garbled copies are rejected,
        clean copies deliver exactly the sent byte — corruption never
        reaches the application."""
        world, ha, hb = self._world(garble_rate=0.5)
        sent = [bytes([i]) for i in range(30)]
        for body in sent:
            ha.cast(body)
        world.run(3.0)
        delivered = [m.data for m in hb.delivery_log]
        assert delivered, "expected some clean deliveries at 50% garble"
        assert set(delivered) <= set(sent)
        assert hb.focus("CHKSUM").garbled_dropped > 0


class TestPartitionController:
    def test_unpartitioned_all_reachable(self):
        ctl = PartitionController()
        assert ctl.reachable("a", "b")
        assert not ctl.partitioned

    def test_partition_blocks_cross_component(self):
        ctl = PartitionController()
        ctl.partition([{"a", "b"}, {"c"}])
        assert ctl.reachable("a", "b")
        assert not ctl.reachable("a", "c")
        assert ctl.reachable("c", "c")

    def test_unlisted_nodes_form_implicit_component(self):
        ctl = PartitionController()
        ctl.partition([{"a"}, {"b"}])
        assert ctl.reachable("x", "y")
        assert not ctl.reachable("x", "a")

    def test_heal_restores_connectivity(self):
        ctl = PartitionController()
        ctl.partition([{"a"}, {"b"}])
        ctl.heal()
        assert ctl.reachable("a", "b")
        assert not ctl.partitioned

    def test_duplicate_node_rejected(self):
        with pytest.raises(ValueError):
            PartitionController().partition([{"a"}, {"a", "b"}])

    def test_isolate(self):
        ctl = PartitionController()
        ctl.isolate("a", ["a", "b", "c"])
        assert not ctl.reachable("a", "b")
        assert ctl.reachable("b", "c")

    def test_components(self):
        ctl = PartitionController()
        ctl.partition([{"a", "b"}, {"c"}])
        comps = ctl.components(["a", "b", "c"])
        assert {frozenset(c) for c in comps} == {frozenset({"a", "b"}), frozenset({"c"})}

    def test_generation_counter(self):
        ctl = PartitionController()
        gen0 = ctl.generation
        ctl.partition([{"a"}])
        ctl.heal()
        assert ctl.generation == gen0 + 2


class TestNetwork:
    def _net(self, **kwargs):
        sched = Scheduler()
        return sched, Network(sched, **kwargs)

    def test_unicast_delivers(self):
        sched, net = self._net()
        a, b = EndpointAddress("a"), EndpointAddress("b")
        got = []
        net.attach(a, lambda p: None)
        net.attach(b, got.append)
        net.unicast(a, b, b"hi")
        sched.run()
        assert len(got) == 1 and got[0].payload == b"hi"
        assert got[0].source == a

    def test_unattached_source_rejected(self):
        sched, net = self._net()
        with pytest.raises(AddressError):
            net.unicast(EndpointAddress("a"), EndpointAddress("b"), b"x")

    def test_double_attach_rejected(self):
        _, net = self._net()
        a = EndpointAddress("a")
        net.attach(a, lambda p: None)
        with pytest.raises(AddressError):
            net.attach(a, lambda p: None)

    def test_detach_unknown_rejected(self):
        _, net = self._net()
        with pytest.raises(AddressError):
            net.detach(EndpointAddress("a"))

    def test_mtu_enforced(self):
        sched, net = self._net(mtu=10)
        a = EndpointAddress("a")
        net.attach(a, lambda p: None)
        net.attach(EndpointAddress("b"), lambda p: None)
        with pytest.raises(PacketTooLargeError):
            net.unicast(a, EndpointAddress("b"), b"x" * 11)

    def test_crashed_node_cannot_send(self):
        sched, net = self._net()
        a, b = EndpointAddress("a"), EndpointAddress("b")
        net.attach(a, lambda p: None)
        net.attach(b, lambda p: None)
        net.crash("a")
        with pytest.raises(NetworkError):
            net.unicast(a, b, b"x")

    def test_crashed_node_does_not_receive_in_flight(self):
        sched, net = self._net()
        a, b = EndpointAddress("a"), EndpointAddress("b")
        got = []
        net.attach(a, lambda p: None)
        net.attach(b, got.append)
        net.unicast(a, b, b"x")
        net.crash("b")  # packet is in flight
        sched.run()
        assert got == []
        assert net.stats.packets_to_dead == 1

    def test_partition_blocks_packets(self):
        sched, net = self._net()
        a, b = EndpointAddress("a"), EndpointAddress("b")
        got = []
        net.attach(a, lambda p: None)
        net.attach(b, got.append)
        net.partitions.partition([{"a"}, {"b"}])
        net.unicast(a, b, b"x")
        sched.run()
        assert got == []
        assert net.stats.packets_partitioned == 1

    def test_multicast_fans_out(self):
        sched, net = self._net()
        addrs = [EndpointAddress(n) for n in "abc"]
        got = {n: [] for n in "abc"}
        for addr in addrs:
            net.attach(addr, got[addr.node].append)
        net.multicast(addrs[0], addrs, b"x")
        sched.run()
        assert len(got["b"]) == 1 and len(got["c"]) == 1
        assert got["a"] == []  # multicast skips the sender

    def test_stats_accounting(self):
        sched, net = self._net()
        a, b = EndpointAddress("a"), EndpointAddress("b")
        net.attach(a, lambda p: None)
        net.attach(b, lambda p: None)
        net.unicast(a, b, b"12345")
        sched.run()
        assert net.stats.packets_sent == 1
        assert net.stats.bytes_sent == 5
        assert net.stats.packets_delivered == 1


class TestConcreteNetworks:
    def test_atm_latency_scales_with_size(self):
        sched = Scheduler()
        net = AtmNetwork(sched)
        a, b = EndpointAddress("a"), EndpointAddress("b")
        arrivals = []
        net.attach(a, lambda p: None)
        net.attach(b, lambda p: arrivals.append(sched.now))
        net.unicast(a, b, b"x")
        sched.run()
        small = arrivals[-1]
        start = sched.now
        net.unicast(a, b, b"x" * 9000)
        sched.run()
        big = arrivals[-1] - start
        assert big > small

    def test_udp_default_mtu(self):
        assert UdpNetwork(Scheduler()).mtu == 1472

    def test_lan_counts_multicasts(self):
        sched = Scheduler()
        net = LanNetwork(sched)
        addrs = [EndpointAddress(n) for n in "abc"]
        for addr in addrs:
            net.attach(addr, lambda p: None)
        net.multicast(addrs[0], addrs, b"x")
        assert net.multicasts_sent == 1

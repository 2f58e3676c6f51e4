"""Unit tests for the core object model: World, Process, Endpoint, GroupHandle."""

import pytest

from repro import World
from repro.errors import ConfigurationError, EndpointError, GroupError

from conftest import join_group


class TestWorld:
    def test_unknown_network_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            World(network="carrier-pigeon")

    def test_unknown_wire_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            World(wire_mode="exotic")

    def test_network_instance_accepted(self):
        from repro.net.lan import LanNetwork
        from repro.sim.scheduler import Scheduler

        net = LanNetwork(Scheduler())
        world = World(network=net)
        assert world.network is net

    def test_network_kwargs_with_instance_rejected(self):
        from repro.net.lan import LanNetwork
        from repro.sim.scheduler import Scheduler

        with pytest.raises(ConfigurationError):
            World(network=LanNetwork(Scheduler()), mtu=9000)

    def test_process_is_cached_by_name(self):
        world = World()
        assert world.process("x") is world.process("x")

    def test_run_advances_time(self):
        world = World()
        world.run(1.5)
        world.run(0.5)
        assert world.now == 2.0

    def test_same_seed_same_behaviour(self):
        def run_once():
            world = World(seed=99, network="udp")
            handles = join_group(world, ["a", "b"], "NAK:COM",
                                 settle=0.1, final_settle=0.5)
            members = [h.endpoint_address for h in handles.values()]
            for h in handles.values():
                h.set_destinations(members)
            for i in range(20):
                handles["a"].cast(f"{i}".encode())
            world.run(5.0)
            return (
                [m.data for m in handles["b"].delivery_log],
                world.network.stats.packets_sent,
            )

        assert run_once() == run_once()


class TestProcess:
    def test_endpoint_ports_are_unique(self):
        world = World()
        process = world.process("p")
        e1, e2 = process.endpoint(), process.endpoint()
        assert e1.address != e2.address
        assert e1.address.node == e2.address.node == "p"

    def test_crashed_process_cannot_make_endpoints(self):
        world = World()
        process = world.process("p")
        world.crash("p")
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            process.endpoint()

    def test_crash_is_idempotent(self):
        world = World()
        process = world.process("p")
        world.crash("p")
        world.crash("p")
        assert not process.alive

    def test_guarded_scheduler_drops_events_after_crash(self):
        world = World()
        process = world.process("p")
        fired = []
        process.guarded_scheduler.call_after(1.0, fired.append, "x")
        world.crash("p")
        world.run(2.0)
        assert fired == []

    def test_local_clock_drift_and_offset(self):
        world = World()
        skewed = world.process("skewed", clock_drift=0.01, clock_offset=2.0)
        straight = world.process("straight")
        world.run(100.0)
        assert straight.local_time() == pytest.approx(100.0)
        assert skewed.local_time() == pytest.approx(100.0 * 1.01 + 2.0)

    def test_crash_emits_trace_record(self):
        world = World()
        world.process("p")
        world.crash("p")
        assert world.trace.by_category("crash")


class TestEndpoint:
    def test_double_join_same_group_rejected(self):
        world = World()
        endpoint = world.process("p").endpoint()
        endpoint.join("g", stack="COM")
        with pytest.raises(EndpointError):
            endpoint.join("g", stack="COM")

    def test_one_endpoint_many_groups(self):
        world = World()
        endpoint = world.process("p").endpoint()
        g1 = endpoint.join("one", stack="COM")
        g2 = endpoint.join("two", stack="COM")
        assert endpoint.group("one") is g1
        assert endpoint.group("two") is g2

    def test_unknown_group_lookup_raises(self):
        world = World()
        endpoint = world.process("p").endpoint()
        with pytest.raises(EndpointError):
            endpoint.group("nope")

    def test_destroy_detaches_and_is_idempotent(self):
        world = World()
        endpoint = world.process("p").endpoint()
        endpoint.join("g", stack="COM")
        endpoint.destroy()
        endpoint.destroy()
        assert not world.network.attached(endpoint.address)
        with pytest.raises(EndpointError):
            endpoint.join("h", stack="COM")

    def test_two_endpoints_same_process_same_group(self):
        """A process may put multiple endpoints in one group (Section 3)."""
        world = World(seed=1)
        process = world.process("p")
        h1 = process.endpoint().join("g", stack="MBRSHIP:FRAG:NAK:COM")
        world.run(0.5)
        h2 = process.endpoint().join("g", stack="MBRSHIP:FRAG:NAK:COM")
        world.run(3.0)
        assert h1.view.size == 2
        assert h1.view.members == h2.view.members


class TestGroupHandle:
    def test_cast_after_leave_rejected(self, lan_world):
        handles = join_group(lan_world, ["a", "b"], "MBRSHIP:FRAG:NAK:COM")
        handles["a"].leave()
        lan_world.run(4.0)
        with pytest.raises(GroupError):
            handles["a"].cast(b"too late")

    def test_send_requires_destinations(self, lan_world):
        handles = join_group(lan_world, ["a", "b"], "MBRSHIP:FRAG:NAK:COM")
        with pytest.raises(GroupError):
            handles["a"].send([], b"nobody")

    def test_ack_without_stability_layer_rejected(self, lan_world):
        handles = join_group(lan_world, ["a", "b"], "MBRSHIP:FRAG:NAK:COM")
        handles["a"].cast(b"x")
        lan_world.run(1.0)
        delivered = handles["b"].receive()
        with pytest.raises(GroupError):
            handles["b"].ack(delivered)

    def test_inbox_vs_callback_are_exclusive(self, lan_world):
        seen = []
        a = lan_world.process("a").endpoint()
        b = lan_world.process("b").endpoint()
        ha = a.join("g", stack="MBRSHIP:FRAG:NAK:COM")
        hb = b.join("g", stack="MBRSHIP:FRAG:NAK:COM", on_message=seen.append)
        lan_world.run(3.0)
        ha.cast(b"x")
        lan_world.run(1.0)
        assert len(seen) == 1
        assert hb.receive() is None  # callback consumed it; inbox empty

    def test_dump_reports_every_layer(self, lan_world):
        handles = join_group(lan_world, ["a"], "MBRSHIP:FRAG:NAK:COM",
                             final_settle=0.5)
        names = [entry["name"] for entry in handles["a"].dump()]
        assert names == ["MBRSHIP", "FRAG", "NAK", "COM"]

    def test_focus_unknown_layer_raises(self, lan_world):
        from repro.errors import StackError

        handles = join_group(lan_world, ["a"], "COM", final_settle=0.2)
        with pytest.raises(StackError):
            handles["a"].focus("TOTAL")

    def test_delivery_records_view_context(self, lan_world):
        handles = join_group(lan_world, ["a", "b"], "MBRSHIP:FRAG:NAK:COM")
        handles["a"].cast(b"x")
        lan_world.run(1.0)
        delivered = handles["b"].delivery_log[0]
        assert delivered.view == handles["b"].view


class TestFailureInjection:
    """Deterministic mid-protocol crash injection via trace listeners."""

    def _crash_on(self, world, category, victim, actor=None):
        def listener(record):
            if record.category == category and (
                actor is None or record.actor == actor
            ):
                if world.process(victim).alive:
                    world.crash(victim)

        world.trace.subscribe(listener)

    def test_coordinator_dies_at_flush_start(self):
        world = World(seed=31, network="lan")
        handles = join_group(
            world, ["a", "b", "c", "d", "e"], "MBRSHIP:FRAG:NAK:COM"
        )
        # a will start a flush when e dies — and die at that very moment.
        self._crash_on(world, "flush_start", victim="a", actor="a:0")
        world.crash("e")
        world.run(15.0)
        survivors = [handles[n] for n in "bcd"]
        views = {(h.view.view_id, h.view.members) for h in survivors}
        assert len(views) == 1
        assert handles["b"].view.size == 3
        assert handles["b"].view.coordinator == handles["b"].endpoint_address

    def test_coordinator_dies_after_install_sent(self):
        world = World(seed=32, network="lan")
        handles = join_group(
            world, ["a", "b", "c", "d", "e"], "MBRSHIP:FRAG:NAK:COM"
        )
        self._crash_on(world, "install_sent", victim="a", actor="a:0")
        world.crash("e")
        world.run(15.0)
        survivors = [handles[n] for n in "bcd"]
        views = {(h.view.view_id, h.view.members) for h in survivors}
        assert len(views) == 1
        assert handles["b"].view.size == 3

    def test_exactly_half_surviving_blocks_under_primary(self):
        """Losing half of a 4-member group (including the tie-breaking
        oldest member) correctly blocks the remainder: 2 of 4 is not a
        primary component."""
        world = World(seed=31, network="lan")
        handles = join_group(world, ["a", "b", "c", "d"], "MBRSHIP:FRAG:NAK:COM")
        self._crash_on(world, "flush_start", victim="a", actor="a:0")
        world.crash("d")
        world.run(15.0)
        assert handles["b"].focus("MBRSHIP").state == "blocked"
        assert handles["c"].focus("MBRSHIP").state == "blocked"

    def test_member_dies_during_everyones_flush(self):
        world = World(seed=33, network="lan")
        handles = join_group(world, ["a", "b", "c", "d"], "MBRSHIP:FRAG:NAK:COM")
        # c dies the moment it observes the flush for d's departure.
        self._crash_on(world, "flush_start", victim="c")
        world.crash("d")
        world.run(15.0)
        survivors = [handles["a"], handles["b"]]
        views = {(h.view.view_id, h.view.members) for h in survivors}
        assert len(views) == 1
        assert handles["a"].view.size == 2

    def test_messages_in_flight_through_cascading_crashes(self):
        world = World(seed=34, network="lan")
        handles = join_group(world, ["a", "b", "c", "d", "e"],
                             "MBRSHIP:FRAG:NAK:COM")
        for i in range(10):
            handles["b"].cast(f"m{i}".encode())
        self._crash_on(world, "flush_start", victim="a", actor="a:0")
        world.crash("e")
        world.run(20.0)
        from repro.verify import check_view_agreement, check_virtual_synchrony

        survivors = [handles[n] for n in "bcd"]
        check_view_agreement(survivors)
        check_virtual_synchrony(survivors)
        for handle in survivors:
            got = [m.data for m in handle.delivery_log]
            assert got == [f"m{i}".encode() for i in range(10)]


class TestPublicSurface:
    @pytest.mark.parametrize(
        "module_name",
        ["repro", "repro.core", "repro.layers", "repro.membership"],
    )
    def test_every_exported_name_resolves(self, module_name):
        import importlib

        module = importlib.import_module(module_name)
        missing = [n for n in module.__all__ if not hasattr(module, n)]
        assert missing == []
        assert len(set(module.__all__)) == len(module.__all__)


class TestCli:
    def test_tables_command(self, capsys):
        from repro.__main__ import main

        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out and "MBRSHIP" in out

    def test_layers_command(self, capsys):
        from repro.__main__ import main

        assert main(["layers"]) == 0
        assert "TOTAL" in capsys.readouterr().out

    def test_synthesize_command(self, capsys):
        from repro.__main__ import main

        assert main(["synthesize", "P9", "P6"]) == 0
        out = capsys.readouterr().out
        assert "stack:" in out and "MBRSHIP" in out

    def test_synthesize_unknown_property(self, capsys):
        from repro.__main__ import main

        assert main(["synthesize", "P99"]) == 2

    def test_synthesize_every_property_is_reachable(self, capsys):
        from repro.__main__ import main

        # With the full layer pool, every Table 4 property is reachable
        # over a bare best-effort network — the library is complete.
        for n in range(1, 17):
            assert main(["synthesize", f"P{n}", "--network", "plain"]) == 0
            capsys.readouterr()

    def test_demo_command(self, capsys):
        from repro.__main__ import main

        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "view after flush" in out

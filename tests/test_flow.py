"""The flow-control plane: CREDIT, overload, load gen.

Covers the CREDIT layer end-to-end on both substrates (verdicts,
bounded queues, shed policies, half-window grant batching), the
acceptance bound — a fan-in storm with a slow receiver keeps sender
queues and NAK retransmission buffers bounded by the configured window.
"""

from __future__ import annotations

import pytest

from conftest import drain, join_group, manual_destinations
from repro import FlowVerdict, World
from repro.errors import ConfigurationError
from repro.layers.credit import MCAST_SPACE, UCAST_SPACE
from repro.flow.loadgen import LoadConfig, run_load


def pair(world, stack, names=("a", "b")):
    handles = {}
    for name in names:
        handles[name] = world.process(name).endpoint().join("grp", stack=stack)
    manual_destinations(handles)
    world.run(0.3)
    return handles


# ----------------------------------------------------------------------
# CREDIT: verdicts, shed policies, grants
# ----------------------------------------------------------------------

class TestCreditVerdicts:
    def test_cast_within_window_is_accepted_and_delivered(self, lan_world):
        handles = pair(lan_world, "CREDIT:COM")
        assert handles["a"].cast(b"hello") is FlowVerdict.ACCEPTED
        lan_world.run(0.5)
        assert drain(handles["b"]) == [b"hello"]

    def test_stack_without_flow_layer_returns_no_verdict(self, lan_world):
        handles = pair(lan_world, "COM")
        assert handles["a"].cast(b"x") is None

    def test_exhaustion_queues_then_blocks(self, lan_world):
        handles = pair(
            lan_world, "CREDIT(window=64,max_queue=2,shed_policy=block):COM"
        )
        payload = b"x" * 50
        verdicts = [handles["a"].cast(payload) for _ in range(5)]
        assert verdicts == [
            FlowVerdict.ACCEPTED,   # 50 of 64 credit bytes charged
            FlowVerdict.QUEUED,     # 14 left < 50: into the bounded queue
            FlowVerdict.QUEUED,
            FlowVerdict.BLOCKED,    # queue full, block policy refuses
            FlowVerdict.BLOCKED,
        ]
        # Grants replenish as the receiver consumes; queued casts drain
        # in order and the blocked ones were genuinely never sent.
        lan_world.run(2.0)
        assert drain(handles["b"]) == [payload] * 3
        layer = handles["a"].focus("CREDIT")
        assert layer.blocked == 2 and layer.queue_depth == 0

    def test_drop_newest_sheds_the_new_message(self, lan_world):
        handles = pair(
            lan_world,
            "CREDIT(window=64,max_queue=2,shed_policy=drop_newest):COM",
        )
        bodies = [f"m{i}".encode() + b"." * 48 for i in range(4)]
        verdicts = [handles["a"].cast(b) for b in bodies]
        assert verdicts[-1] is FlowVerdict.SHED
        lan_world.run(2.0)
        assert drain(handles["b"]) == bodies[:3]

    def test_drop_oldest_evicts_the_queue_head(self, lan_world):
        handles = pair(
            lan_world,
            "CREDIT(window=64,max_queue=2,shed_policy=drop_oldest):COM",
        )
        bodies = [f"m{i}".encode() + b"." * 48 for i in range(4)]
        for body in bodies:
            handles["a"].cast(body)
        lan_world.run(2.0)
        # m1 (the oldest *queued* message) was evicted to admit m3.
        assert drain(handles["b"]) == [bodies[0], bodies[2], bodies[3]]

    def test_overload_raises_edge_triggered_problem(self, lan_world):
        problems = []
        handles = pair(
            lan_world, "CREDIT(window=64,max_queue=1,shed_policy=block):COM"
        )
        handles["a"].on_problem = problems.append
        for _ in range(4):
            handles["a"].cast(b"y" * 50)
        assert len(problems) == 1  # edge-triggered, not once per refusal
        assert str(problems[0]) == str(handles["a"].endpoint_address)

    def test_unknown_manager_kind_fails_at_build_time(self, lan_world):
        """CREDIT has one grant rule, so ``manager`` is an unknown key
        and a stack that sets it does not build."""
        with pytest.raises(ConfigurationError, match="unknown CREDIT config"):
            pair(lan_world, "CREDIT(manager=aimd):COM", names=("q",))

    def test_grants_batch_to_half_the_window(self, lan_world):
        """A receiver grants once it has earned back half the window, or
        whatever it has earned on the tail tick; no tick fires here
        unless the test calls it."""
        handles = pair(lan_world, "CREDIT(window=1000,grant_period=1000.0):COM")
        sender, receiver = (handles[n].focus("CREDIT") for n in "ab")
        peer = handles["b"].endpoint_address

        def cast(size):
            handles["a"].cast(b"g" * size)
            lan_world.run(0.2)
            return receiver.grants_sent, sender.available(MCAST_SPACE, peer)

        # Below half the window, the grant is deferred...
        assert cast(400) == (0, 600)
        # ...until the earned credit reaches half the window...
        assert cast(100) == (1, 1000)
        assert cast(1) == (1, 999)
        # ...or the tail tick grants whatever is left.
        receiver._tick()
        lan_world.run(0.2)
        assert (receiver.grants_sent, sender.available(MCAST_SPACE, peer)) \
            == (2, 1000)
        receiver._tick()
        assert receiver.grants_sent == 2  # nothing earned, nothing granted

    def test_send_charges_unicast_space_only(self, lan_world):
        handles = pair(lan_world, "CREDIT(window=128):COM")
        dest = [handles["b"].endpoint_address]
        assert handles["a"].send(dest, b"u" * 100) is FlowVerdict.ACCEPTED
        layer = handles["a"].focus("CREDIT")
        # Unicast space (1) charged, multicast space (0) untouched.
        assert layer.available(1, handles["b"].endpoint_address) == 28
        assert layer.available(0, handles["b"].endpoint_address) == 128
        lan_world.run(0.5)
        assert drain(handles["b"]) == [b"u" * 100]


class TestCreditWindowEdges:
    """Casts the window cannot hold, and peers that leave with a message
    still queued, on ``CREDIT(window=1000):MBRSHIP:FRAG:NAK:COM``."""

    STACK = "CREDIT(window=1000):MBRSHIP:FRAG:NAK:COM"

    def test_an_over_window_cast_goes_once_nothing_is_outstanding(self):
        """Each 2,000 B cast needs more than the window: it goes once the
        receivers have repaid everything outstanding, and overdraws."""
        world = World(seed=1, network="lan")
        handles = join_group(world, ["a", "b", "c"], self.STACK)
        sender = handles["a"]
        flow = (MCAST_SPACE, sender.endpoint_address)
        receivers = [handles[n].focus("CREDIT") for n in "bc"]
        casts = [b"x" * 2000, b"w" * 2000, b"y" * 10]
        assert [sender.cast(data) for data in casts] == [
            FlowVerdict.ACCEPTED, FlowVerdict.QUEUED, FlowVerdict.QUEUED]
        world.run(5.0)
        for name in "abc":
            assert [m.data for m in handles[name].delivery_log] == casts
        credit = sender.focus("CREDIT")
        assert credit.dump()["queued"] == 0
        # The overdraft is repaid: a later burst gets exactly the credit
        # the receivers extended again, and waits for the rest.
        extended = min(
            r._recv_flow(flow).advertised - r._recv_flow(flow).consumed
            for r in receivers)
        verdicts = [sender.cast(b"z" * 10) for _ in range(150)]
        accepted = verdicts.count(FlowVerdict.ACCEPTED)
        assert accepted == extended // 10 and accepted < 150
        assert verdicts[accepted:] == [FlowVerdict.QUEUED] * (150 - accepted)
        world.run(5.0)
        assert all(len(handles[n].delivery_log) == 153 for n in "abc")

    def test_a_message_queued_before_a_peer_left_charges_current_peers(self):
        """A queued cast and a queued send to b and c leave after c has
        gone: both are charged to b alone, and c's accounts stay closed.
        A send outside the view is uncharged on admission too."""
        world = World(seed=1, network="lan")
        handles = join_group(world, ["a", "b", "c"], self.STACK)
        sender = handles["a"]
        b, departed = (handles[n].endpoint_address for n in "bc")
        assert sender.cast(b"x" * 900) is FlowVerdict.ACCEPTED
        assert sender.cast(b"y" * 500) is FlowVerdict.QUEUED
        assert sender.send([b, departed], b"s" * 100) is FlowVerdict.QUEUED
        world.crash("c")  # c never grants: both wait for the view
        world.run(8.0)
        assert handles["a"].view.size == 2
        for name in "ab":
            assert [m.data for m in handles[name].delivery_log
                    if m.was_cast] == [b"x" * 900, b"y" * 500]
        assert [m.data for m in handles["b"].delivery_log
                if not m.was_cast] == [b"s" * 100]
        credit = sender.focus("CREDIT")
        assert credit.queue_depth == 0
        assert credit._charged[(UCAST_SPACE, b)] == 100
        assert sender.send([departed], b"t" * 10) is FlowVerdict.ACCEPTED
        accounts = set(credit._granted) | set(credit._charged)
        assert all(peer != departed for _space, peer in accounts)


class TestCreditOutstanding:
    """``flow_credit_outstanding`` is computed from the layer's own state
    whenever the registry is read, so it is true between grants too."""

    def _series(self, world, endpoint, role):
        family = world.metrics.get("flow_credit_outstanding")
        values = [s.value for s in family.series()
                  if s.labels == {"endpoint": str(endpoint), "role": role}]
        assert len(values) == 1
        return values[0]

    def _own_sums(self, layer):
        send = sum(layer.available(0, peer) for peer in layer._peers)
        recv = sum(f.advertised - f.consumed for f in layer._recv.values())
        return send, recv

    def test_send_and_recv_levels_match_the_layer(self):
        world = World(seed=3, network="lan")
        # A grant period longer than the test: no grant is ever sent.
        stack = "CREDIT(window=4096,grant_period=1000.0):MBRSHIP:FRAG:NAK:COM"
        handles = {}
        for name in ("n0", "n1", "n2"):
            handles[name] = world.process(name).endpoint().join(
                "g", stack=stack
            )
            world.run(0.5)
        world.run(1.0)
        for _ in range(10):
            handles["n0"].cast(b"c" * 100)
        world.run(1.0)
        layers = {name: handle.focus("CREDIT") for name, handle in handles.items()}
        assert all(layer.grants_sent == 0 for layer in layers.values())
        for name, handle in handles.items():
            send, recv = self._own_sums(layers[name])
            address = handle.endpoint_address
            assert self._series(world, address, "send") == send
            assert self._series(world, address, "recv") == recv
        assert self._own_sums(layers["n0"]) == (2 * (4096 - 1000), 0)
        assert self._own_sums(layers["n1"]) == (2 * 4096, 4096 - 1000)
        assert self._own_sums(layers["n2"]) == (2 * 4096, 4096 - 1000)

        # A view without n2: n0 no longer holds credit against it.
        handles["n2"].leave()
        world.run(2.0)
        assert len(handles["n0"].view.members) == 2
        n0 = handles["n0"].endpoint_address
        assert self._series(world, n0, "send") == 4096 - 1000
        assert self._series(world, n0, "send") == self._own_sums(layers["n0"])[0]


# ----------------------------------------------------------------------
# The acceptance bound: fan-in storm, slow receiver
# ----------------------------------------------------------------------

def _nak_buffered(handle) -> int:
    return sum(
        info.get("buffered", 0)
        for info in handle.dump()
        if info.get("name") == "NAK"
    )


def _storm(world, handles, sender_names, count, size, samples):
    """Burst ``count`` casts per sender, sampling NAK buffers throughout."""
    payload = b"s" * size
    for name in sender_names:
        for _ in range(count):
            handles[name].cast(payload)
    samples.append(max(_nak_buffered(handles[n]) for n in sender_names))
    for _ in range(30):
        world.run(0.1)
        samples.append(max(_nak_buffered(handles[n]) for n in sender_names))


class TestOverloadBounds:
    """CREDIT bounds sender queues and NAK buffers under a fan-in storm."""

    SIZE = 64

    def _run_credit(self, burst: int) -> tuple:
        world = World(seed=42, network="lan")
        stack = (
            "CREDIT(window=2048,max_queue=4096,shed_policy=block)"
            ":MBRSHIP:FRAG:NAK:COM"
        )
        handles = {}
        for name in ("s0", "s1", "recv"):
            handles[name] = world.process(name).endpoint().join(
                "storm", stack=stack
            )
            world.run(0.3)
        world.run(2.0)
        handles["recv"].focus("CREDIT").set_consume_rate(2048.0)
        world.run(0.2)
        samples: list = []
        _storm(world, handles, ("s0", "s1"), burst, self.SIZE, samples)
        queue_high = max(
            handles[n].focus("CREDIT").max_queue_depth for n in ("s0", "s1")
        )
        return max(samples), queue_high

    def test_credit_bounds_nak_buffer_and_queue_by_window(self):
        # 2048-byte window at 64 B/message = at most 32 unstable casts
        # in flight per flow.  A node's NAK buffer holds its own
        # unstable casts plus its peers' (retransmission source), so
        # the bound is senders x window-messages, plus control slack.
        window_msgs = 2048 // self.SIZE
        bound = 2 * 2 * window_msgs
        high_small, queue_small = self._run_credit(burst=100)
        high_big, queue_big = self._run_credit(burst=300)
        assert high_small <= bound
        assert high_big <= bound
        # The bound is load-independent: tripling the burst moves
        # nothing (the excess waits above NAK, in the bounded queue).
        assert high_big <= high_small + window_msgs
        assert queue_small <= 4096 and queue_big <= 4096

    def test_credit_fan_in_still_delivers_everything_sent(self):
        # Bounded does not mean lossy: with the block policy, every
        # accepted/queued cast is eventually delivered, gaplessly.
        world = World(seed=7, network="lan")
        stack = "CREDIT(window=1024,max_queue=256):MBRSHIP:FRAG:NAK:COM"
        handles = {}
        for name in ("s0", "s1", "recv"):
            handles[name] = world.process(name).endpoint().join(
                "fan", stack=stack
            )
            world.run(0.3)
        world.run(2.0)
        sent = []
        for i in range(60):
            payload = f"{i:03d}".encode() * 20
            sender = handles["s0"] if i % 2 == 0 else handles["s1"]
            verdict = sender.cast(payload)
            assert verdict in (FlowVerdict.ACCEPTED, FlowVerdict.QUEUED)
            sent.append(payload)
            world.run(0.02)
        world.run(15.0)
        got = [
            m.data for m in handles["recv"].delivery_log
            if m.data in sent or m.data.startswith(b"0") or True
        ]
        for payload in sent:
            assert payload in got


# ----------------------------------------------------------------------
# DES determinism
# ----------------------------------------------------------------------

class TestFlowDeterminism:
    def _digest(self) -> tuple:
        world = World(seed=11, network="lan")
        stack = "CREDIT(window=512,max_queue=8,shed_policy=drop_newest)" \
                ":MBRSHIP:FRAG:NAK:COM"
        handles = {}
        for name in ("a", "b", "c"):
            handles[name] = world.process(name).endpoint().join(
                "det", stack=stack
            )
            world.run(0.3)
        world.run(2.0)
        handles["c"].focus("CREDIT").set_consume_rate(1024.0)
        verdicts = []
        for i in range(40):
            verdicts.append(handles["a"].cast(b"d" * 100))
            if i % 4 == 0:
                world.run(0.05)
        world.run(5.0)
        log = tuple(
            (str(m.source), m.data) for m in handles["c"].delivery_log
        )
        dump = tuple(
            sorted(handles["a"].focus("CREDIT").dump().items(),
                   key=lambda kv: kv[0])
        )
        return tuple(verdicts), log, dump

    def test_same_seed_same_verdicts_deliveries_and_dump(self):
        assert self._digest() == self._digest()


# ----------------------------------------------------------------------
# CREDIT on the realtime substrate
# ----------------------------------------------------------------------

@pytest.mark.realtime
class TestCreditRealtime:
    def test_credit_flows_and_grants_over_os_udp(self):
        from repro.runtime.world import RealtimeWorld

        world = RealtimeWorld(seed=3)
        try:
            handles = {}
            for name in ("a", "b"):
                handles[name] = world.process(name).endpoint().join(
                    "rt", stack="CREDIT(window=4096):COM"
                )
            manual_destinations(handles)
            world.run(0.2)
            for i in range(10):
                assert handles["a"].cast(
                    b"rt-%d" % i + b"." * 200
                ) is not None
            ok = world.run_while(
                lambda: len(handles["b"].delivery_log) == 10, timeout=5.0
            )
            assert ok
            # Enough consumption happened to earn at least one grant.
            assert world.run_while(
                lambda: handles["a"].focus("CREDIT").grants_received >= 1,
                timeout=3.0,
            )
        finally:
            world.close()


# ----------------------------------------------------------------------
# Chaos integration
# ----------------------------------------------------------------------

class TestOverloadChaos:
    def test_overload_ops_round_trip_serialization(self):
        from repro.chaos import FaninStorm, SlowReceiver, WanSqueeze
        from repro.chaos.scenario import op_from_dict

        for op in (
            SlowReceiver(at=1.0, node="n1", rate=2048.0),
            FaninStorm(at=2.0, target="n0", count=12, size=128),
            WanSqueeze(at=0.5),
        ):
            assert op_from_dict(op.to_dict()) == op

    def test_generator_overload_family_is_deterministic(self):
        from repro.chaos import generate_scenario
        from repro.chaos.scenario import (
            FaninStorm,
            OVERLOAD_CHAOS_STACK,
            SlowReceiver,
        )

        one = generate_scenario(5, 3, overload=True)
        two = generate_scenario(5, 3, overload=True)
        assert one.signature() == two.signature()
        assert one.stack == OVERLOAD_CHAOS_STACK
        # Every overload storm carries the canonical squeeze pair.
        assert any(isinstance(op, SlowReceiver) for op in one.ops)
        assert any(isinstance(op, FaninStorm) for op in one.ops)

    def test_generator_base_family_unchanged_by_overload_support(self):
        from repro.chaos import generate_scenario
        from repro.chaos.scenario import DEFAULT_CHAOS_STACK

        scenario = generate_scenario(5, 3)
        assert scenario.stack == DEFAULT_CHAOS_STACK
        assert all(
            op.kind not in ("slow_receiver", "fanin_storm", "wan_squeeze")
            for op in scenario.ops
        )

    def test_overload_scenario_survives_checks_deterministically(self):
        from repro.chaos import (
            FaninStorm,
            Scenario,
            ScenarioRunner,
            SlowReceiver,
        )
        from repro.chaos.scenario import OVERLOAD_CHAOS_STACK

        scenario = Scenario(
            name="squeeze",
            nodes=("n0", "n1", "n2"),
            ops=(
                SlowReceiver(at=0.5, node="n2", rate=4096.0),
                FaninStorm(at=1.0, target="n2", count=15, size=128),
            ),
            stack=OVERLOAD_CHAOS_STACK,
            duration=4.0,
            settle=20.0,
        )
        first = ScenarioRunner(substrate="sim", seed=9).run(scenario)
        assert first.ok, first.violations
        assert first.casts_sent > 0
        second = ScenarioRunner(substrate="sim", seed=9).run(scenario)
        assert second.digest == first.digest


# ----------------------------------------------------------------------
# The load generator
# ----------------------------------------------------------------------

class TestLoadGenerator:
    CONFIG = dict(
        senders=2, rate=80.0, size=128, duration=2.0, seed=0,
        window=2048, max_queue=16, consume_rate=2048.0,
    )

    def test_report_is_deterministic_on_the_des(self):
        first = run_load(LoadConfig(**self.CONFIG)).to_dict()
        second = run_load(LoadConfig(**self.CONFIG)).to_dict()
        assert first == second

    def test_overloaded_run_reports_backpressure(self):
        report = run_load(LoadConfig(**self.CONFIG))
        assert report.offered > 0
        assert report.delivered > 0
        assert report.blocked + report.shed + report.queued > 0
        assert report.queue_highwater <= self.CONFIG["max_queue"]
        assert report.p99_ms >= report.p50_ms > 0.0
        assert report.grants_sent > 0
        rendered = report.render()
        assert "goodput" in rendered and "p99" in rendered

    def test_validation_rejects_nonsense(self):
        with pytest.raises(ConfigurationError):
            run_load(LoadConfig(senders=0))
        with pytest.raises(ConfigurationError):
            run_load(LoadConfig(substrate="quantum"))

    def test_metrics_out_writes_flow_series(self, tmp_path):
        from repro.obs import read_jsonl, render_flow_report

        path = str(tmp_path / "load.jsonl")
        run_load(
            LoadConfig(senders=1, rate=40.0, duration=1.0, window=1024),
            metrics_out=path,
        )
        snapshot = read_jsonl(path)
        rendered = render_flow_report(snapshot)
        assert "flow_data_messages_total" in rendered

    def test_flow_report_raises_without_flow_series(self):
        from repro.obs import render_flow_report

        with pytest.raises(ConfigurationError, match="flow_"):
            render_flow_report({"metrics": []})

"""The paper's evaluation, checked: Figures 1-2 and Sections 10-11.

DESIGN.md §4 lists every artifact of the paper's evaluation.  Each has
one tier-1 test that checks its *shape* (who wins, how costs scale).
Every number here comes from the DES, so it is a pure function of the
seed and is pinned exactly: a change that moves one changed what goes
on the wire.  The artifacts that already had a home are checked there:

* T1/T2 — ``test_core_objects.py::TestCli::test_tables_command``;
* T3/T4 — ``test_properties.py::TestChecker::test_tables_render``;
* F2's A/B/C/D scenario —
  ``test_mbrship.py::test_figure2_partially_delivered_message_relayed``;
* S7 — ``test_properties.py::TestChecker::test_section7_derivation_exact``;
* S10b — ``test_hotpath.py::TestHotpathGate``;
* S10c's STABLE vs PINWHEEL —
  ``test_ordering_layers.py::TestPinwheel::test_pinwheel_sends_fewer_control_messages``;
* X-WAN — ``test_wan.py::TestForwarding::test_multi_hop_delivery_and_latency``.
"""

from __future__ import annotations

import pytest

from repro import FaultModel, World
from repro.core.stack import parse_stack_spec
from repro.net.address import EndpointAddress
from repro.properties import P
from repro.properties.registry import PROFILES
from repro.properties.synthesis import synthesize_spec

from conftest import join_group, manual_destinations

VS_STACK = "MBRSHIP:FRAG:NAK:COM"


def _wait_for(world: World, done, limit: float) -> None:
    deadline = world.now + limit
    while world.now < deadline and not done():
        world.run(0.1)


def _flush_cost(world: World, handles, victim: str):
    """Crash ``victim``; return (detection s, flush protocol s, packets)."""
    survivors = [h for name, h in handles.items() if name != victim]
    world.trace.clear()
    before = world.network.stats.packets_sent
    crash_time = world.now
    world.crash(victim)
    _wait_for(world, lambda: all(h.view.size == len(survivors) for h in survivors), 40.0)
    assert all(h.view.size == len(survivors) for h in survivors)
    start = world.trace.by_category("flush_start")[0].time
    installed = max(r.time for r in world.trace.by_category("view"))
    packets = world.network.stats.packets_sent - before
    return round(start - crash_time, 6), round(installed - start, 6), packets


def _completion(spec, names, seed, messages, network="lan", settle=0.4):
    """Cast a burst from the first member; (msgs per sim-s, packets per msg)."""
    world = World(seed=seed, network=network, trace=False)
    handles = join_group(world, names, spec, settle=settle, final_settle=3.0)
    if "MBRSHIP" not in spec:
        manual_destinations(handles)
        world.run(0.2)
    receiver = handles[names[-1]]
    last = [world.now]
    receiver.on_message = lambda delivered: last.__setitem__(0, world.now)
    start, packets_before = world.now, world.network.stats.packets_sent
    for _ in range(messages):
        handles[names[0]].cast(b"y" * 64)
    _wait_for(
        world,
        lambda: all(
            sum(m.was_cast for m in h.delivery_log) >= messages
            for h in handles.values()
        ),
        60.0,
    )
    packets = world.network.stats.packets_sent - packets_before
    return round(messages / (last[0] - start)), round(packets / messages, 3)


class TestFigure1:
    #: A spread of stacks, one to eight layers, from one layer library.
    STACKS = [
        "COM", "NAK:COM", "NNAK:COM", "FRAG:NAK:COM", "NAK:NFRAG:COM",
        "NAK:CHKSUM:COM", "NAK:CRYPT:SIGN:COM", "COMPRESS:NAK:COM",
        "CREDIT:MBRSHIP:FRAG:NAK:COM", "PRIO:COM", VS_STACK,
        "FLUSH:VSS:BMS:FRAG:NAK:COM", "TOTAL:MBRSHIP:FRAG:NAK:COM",
        "CAUSAL:CAUSAL_TS:MBRSHIP:FRAG:NAK:COM", "STABLE:MBRSHIP:FRAG:NAK:COM",
        "SAFE:STABLE:MBRSHIP:FRAG:NAK:COM", "PINWHEEL:MBRSHIP:FRAG:NAK:COM",
        "MERGE:MBRSHIP:FRAG:NAK:COM", "LOGGER:TRACER:ACCOUNT:MBRSHIP:FRAG:NAK:COM",
        "TOTAL:STABLE:MBRSHIP:COMPRESS:FRAG:NAK:CHKSUM:COM",
    ]

    def test_layers_stack_at_run_time_like_lego(self):
        """F1: at least Figure 1's ~20 protocol types, any of them
        composed at run time from a spec string, and traffic through a
        composed stack spends no scheduler event on layer crossings."""
        assert len(PROFILES) >= 20
        assert all(profile.purpose for profile in PROFILES.values())
        world = World(seed=1, network="lan", trace=False)
        for index, spec in enumerate(self.STACKS):
            handle = world.process(f"n{index}").endpoint().join(f"g{index}", stack=spec)
            assert len(handle.dump()) == len(parse_stack_spec(spec))

        world = World(seed=2, network="lan", trace=False)
        handles = join_group(world, ["a", "b"], VS_STACK, settle=0.4)
        before = world.scheduler.events_executed
        for _ in range(100):
            handles["a"].cast(b"x" * 64)
        world.run(5.0)
        assert len(handles["b"].delivery_log) == 100
        assert world.scheduler.events_executed - before == 343


class TestFigure2:
    #: group size -> (failure detection s, flush protocol s, packets).
    #: Detection is the heartbeat timeout; the protocol itself is a few
    #: round trips at any size, while its packets grow ~O(n^2).
    COST = {
        3: (1.450217, 0.000747, 28),
        5: (1.400244, 0.000715, 101),
        8: (1.400236, 0.000834, 311),
        12: (1.400216, 0.00086, 734),
    }

    @pytest.mark.parametrize("size", sorted(COST))
    def test_flush_cost_vs_group_size(self, size):
        """F2: the flush protocol's cost as the group grows."""
        names = [f"m{i}" for i in range(size)]
        world = World(seed=size, network="lan")
        handles = join_group(world, names, VS_STACK, settle=0.4)
        assert _flush_cost(world, handles, names[-1]) == self.COST[size]


def test_s10a_layer_crossings_cost_no_scheduler_events():
    """S10a: a layer boundary is a procedure call ("a few
    instructions"), so stacking more layers over NAK:COM adds no
    scheduler event per message, and FRAG on unfragmented traffic is
    free in events.  Wall-clock cost per layer is the harness's
    ``layers.*.self_us_per_op``."""
    ladder = [
        "COM", "NAK:COM", "FRAG:NAK:COM", "TRACER:FRAG:NAK:COM",
        "ACCOUNT:TRACER:FRAG:NAK:COM", "LOGGER:ACCOUNT:TRACER:FRAG:NAK:COM",
        "COMPRESS:LOGGER:ACCOUNT:TRACER:FRAG:NAK:COM",
    ]
    events = []
    for spec in ladder:
        world = World(seed=1, network="lan", trace=False)
        handles = {
            name: world.process(name).endpoint().join("grp", stack=spec)
            for name in ("a", "b")
        }
        manual_destinations(handles)
        world.run(0.3)
        before = world.scheduler.events_executed
        for _ in range(300):
            handles["a"].cast(b"x" * 100)
        world.run(5.0)
        assert len(handles["b"].delivery_log) == 300
        events.append(world.scheduler.events_executed - before)
    assert events == [600, 721, 721, 721, 721, 721, 721]


class TestSection10PayForWhatYouUse:
    """S10c: the synthesized minimal stack against a maximal one."""

    MAXIMAL = "SAFE:STABLE:TOTAL:MERGE:MBRSHIP:COMPRESS:FRAG:NAK:CHKSUM:COM"

    def _both(self):
        minimal = synthesize_spec({P.FIFO_MULTICAST}, network="lan")
        assert minimal == "NAK:COM"
        names = ["a", "b", "c"]
        return (
            _completion(minimal, names, seed=3, messages=200, settle=0.5),
            _completion(self.MAXIMAL, names, seed=3, messages=200, settle=0.5),
        )

    def test_minimal_stack_completes_a_burst_faster(self):
        (rate_min, ppm_min), (rate_max, ppm_max) = self._both()
        assert (rate_min, ppm_min, rate_max, ppm_max) == (668200, 2.04, 996, 0.4)
        assert rate_min >= rate_max

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 2: batching lives inside TOTAL, so stacks "
               "without TOTAL (NAK:COM here) get none and pay more "
               "packets per message than the maximal stack",
    )
    def test_minimal_stack_spends_fewer_packets_per_message(self):
        (_, ppm_min), (_, ppm_max) = self._both()
        assert ppm_min <= ppm_max


class TestSection11:
    LIGHT, MEDIUM = "COM", "FRAG:NAK:COM"
    HEAVY = "TOTAL:STABLE:MBRSHIP:FRAG:NAK:COM"

    def _one_way(self, world: World, spec: str) -> float:
        handles = join_group(world, ["sa", "sb"], spec, group=f"lat-{spec}", settle=0.4, final_settle=3.0)
        if "MBRSHIP" not in spec:
            manual_destinations(handles)
            world.run(0.2)
        arrival = []
        handles["sb"].on_message = lambda delivered: arrival.append(world.now)
        start = world.now
        handles["sa"].cast(b"r" * 100)
        world.run(2.0)
        return round(arrival[0] - start, 9)

    def test_atm_performance_with_almost_no_overhead(self):
        """S11: the lightest stack rides the raw ATM latency; a heavy
        stack costs more, and ordering plus stability cut the burst
        completion rate at every group size."""
        world = World(seed=2, network="atm", trace=False)
        a, b = EndpointAddress("raw-a", 0), EndpointAddress("raw-b", 0)
        arrivals = []
        world.network.attach(a, lambda packet: None)
        world.network.attach(b, lambda packet: arrivals.append(world.now))
        start = world.now
        world.network.unicast(a, b, b"r" * 100)
        world.run(0.1)
        raw = round(arrivals[0] - start, 9)
        light = self._one_way(world, self.LIGHT)
        heavy = self._one_way(world, self.HEAVY)
        assert (raw, light, heavy) == (6.2245e-05, 6.1867e-05, 6.8923e-05)
        assert light < raw * 2.0 and heavy >= light

        rates = {}
        for size in (2, 4, 8):
            names = [f"g{i}" for i in range(size)]
            rates[size] = tuple(
                _completion(spec, names, seed=size, messages=150, network="atm")[0]
                for spec in (self.MEDIUM, self.HEAVY)
            )
        assert rates == {
            2: (2376203, 1273796),
            4: (2373583, 1273690),
            8: (2373555, 1279175),
        }
        assert all(medium >= heavy for medium, heavy in rates.values())


#: loss rate -> (flush protocol s, packets), 5 members, one crash.
FLUSH_UNDER_LOSS = {
    0.0: (0.016741, 124),
    0.05: (0.289051, 144),
    0.15: (0.533974, 145),
    0.30: (1.610077, 220),
}


@pytest.mark.parametrize("loss", sorted(FLUSH_UNDER_LOSS))
def test_xloss_flush_survives_loss(loss):
    """X-LOSS: flush logic above, NAK retransmission below: the flush
    still completes, in simulated seconds, at up to 30 % loss."""
    world = World(
        seed=int(loss * 100) + 3, network="udp",
        fault_model=FaultModel(base_delay=0.004, jitter=0.002, loss_rate=loss),
    )
    names = ["a", "b", "c", "d", "e"]
    handles = join_group(world, names, VS_STACK, settle=1.0, final_settle=6.0)
    assert all(h.view.size == 5 for h in handles.values())
    _, protocol, packets = _flush_cost(world, handles, "e")
    assert (protocol, packets) == FLUSH_UNDER_LOSS[loss]
    assert protocol < 20.0

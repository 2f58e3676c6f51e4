"""Tests for repro.gossip: the SWIM core's refutation/ping-req/
dissemination semantics, the consistent-hash shard plane, detector
interchangeability behind the FailureDetector protocol, the large-n
chaos family, and determinism of the scale harness."""

import hashlib
import math
import random

import pytest

from repro import World
from repro.chaos.generator import Crash, generate_scenario
from repro.gossip import (
    GossipFailureDetector,
    GossipScaleConfig,
    HashRing,
    ShardDirectory,
    ShardPlane,
    SwimConfig,
    SwimCore,
    run_scale,
    run_scenario,
)
from repro.gossip.swim import (
    ACK,
    ALIVE,
    DEAD,
    LEFT,
    PING,
    SUSPECT,
    decode_message,
    encode_message,
)
from repro.membership import (
    ExternalFailureDetector,
    TimeoutFailureDetector,
)
from repro.net.address import EndpointAddress
from repro.net.lan import LanNetwork
from repro.sim.scheduler import Scheduler


def make_core(me="a", peers=("a", "b", "c", "d"), seed=1, config=None, **hooks):
    """A SwimCore wired to a fresh scheduler and a send-capture list."""
    sched = Scheduler()
    sent = []
    core = SwimCore(
        me,
        tuple(peers),
        sched,
        random.Random(seed),
        lambda target, msg: sent.append((target, dict(msg))),
        config or SwimConfig(),
        **hooks,
    )
    return core, sched, sent


class TestSwimCore:
    def test_refutation_bumps_incarnation_past_accusation(self):
        core, _, _ = make_core()
        assert core.incarnation == 0
        core.apply_update("a", SUSPECT, 0)
        assert core.incarnation == 1
        # An accusation at a higher incarnation is out-bumped too.
        core.apply_update("a", DEAD, 5)
        assert core.incarnation == 6
        assert core.stats["refutes"] == 2

    def test_stale_accusation_is_ignored(self):
        core, _, _ = make_core()
        core.apply_update("a", SUSPECT, 0)  # -> incarnation 1
        core.apply_update("a", SUSPECT, 0)  # stale: loses to inc 1
        assert core.incarnation == 1
        assert core.stats["refutes"] == 1

    def test_refutation_blasts_fresh_acks(self):
        core, _, sent = make_core()
        core.apply_update("a", SUSPECT, 0)
        blasts = [(t, m) for t, m in sent if m["k"] == ACK]
        assert len(blasts) == core.config.k_indirect
        # Every blast stamps the bumped incarnation.
        assert all(m["i"] == 1 for _, m in blasts)
        assert all(t != "a" for t, _ in blasts)

    def test_suspect_expiry_confirms_dead_and_flags_origination(self):
        originated = []
        core, sched, _ = make_core(
            on_confirm=lambda node: originated.append(
                (node, core.confirm_originated)
            ),
        )
        core.apply_update("b", SUSPECT, 0)
        assert core.state_of("b") == (SUSPECT, 0)
        sched.run(until=core.config.suspect_timeout + 0.1)
        assert core.state_of("b") == (DEAD, 0)
        # The hook saw a locally-originated confirm, and the flag does
        # not leak past the conversion.
        assert originated == [("b", True)]
        assert core.confirm_originated is False

    def test_gossiped_dead_is_not_flagged_as_originated(self):
        originated = []
        core, _, _ = make_core(
            on_confirm=lambda node: originated.append(
                (node, core.confirm_originated)
            ),
        )
        core.apply_update("b", DEAD, 0)
        assert originated == [("b", False)]

    def test_alive_higher_incarnation_resurrects_dead(self):
        core, _, _ = make_core()
        core.apply_update("b", DEAD, 0)
        assert core.state_of("b")[0] == DEAD
        assert not core.apply_update("b", ALIVE, 0)  # same inc: dead final
        assert core.apply_update("b", ALIVE, 1)
        assert core.state_of("b") == (ALIVE, 1)
        assert core.stats["resurrections"] == 1

    def test_precedence_suspect_needs_equal_inc_dead_wins_ties(self):
        core, _, _ = make_core()
        assert core.apply_update("b", ALIVE, 2)
        assert not core.apply_update("b", SUSPECT, 1)  # stale suspicion
        assert core.apply_update("b", SUSPECT, 2)  # ties beat alive
        assert not core.apply_update("b", SUSPECT, 2)  # but not suspect
        assert core.apply_update("b", DEAD, 2)  # ties beat suspect
        assert core.state_of("b") == (DEAD, 2)

    def test_refutation_clears_suspicion_of_live_peer(self):
        core, _, _ = make_core()
        core.apply_update("b", SUSPECT, 0)
        # b heard the rumor, bumped to 1, gossiped alive@1.
        assert core.apply_update("b", ALIVE, 1)
        assert core.state_of("b") == (ALIVE, 1)

    def test_digest_is_order_independent(self):
        core1, _, _ = make_core(seed=1)
        core2, _, _ = make_core(seed=2)
        core1.apply_update("b", DEAD, 0)
        core1.apply_update("c", SUSPECT, 3)
        core2.apply_update("c", SUSPECT, 3)
        core2.apply_update("b", DEAD, 0)
        assert core1.digest() == core2.digest()

    def test_codec_roundtrip(self):
        msg = {
            "k": PING,
            "f": "n12",
            "i": 7,
            "s": "n3",
            "si": 2,
            "u": [("n1", ALIVE, 4), ("n2", DEAD, 0)],
        }
        assert decode_message(encode_message(msg)) == msg
        bare = {"k": ACK, "f": "n0", "i": 0}
        assert decode_message(encode_message(bare)) == bare


class TestPingReqRescue:
    def test_indirect_probe_rescues_node_behind_lossy_direct_link(self):
        """SWIM's point: one bad link must not convict a healthy node.

        Every direct PING from a to b is dropped; PINGs relayed through
        proxies get through, so the ping-req path answers for b and a
        never even suspects it.
        """
        sched = Scheduler()
        names = ("a", "b", "c", "d", "e")
        cores = {}
        suspected = []

        def make_send(frm):
            def send(target, msg):
                if frm == "a" and target == "b" and msg["k"] == PING:
                    return  # the broken direct link
                packet = dict(msg)
                sched.call_after(
                    0.001, lambda: cores[target].on_message(packet)
                )

            return send

        for name in names:
            cores[name] = SwimCore(
                name,
                names,
                sched,
                random.Random(hash(name) & 0xFFFF),
                lambda t, m: None,  # rebound below
                SwimConfig(period=0.5, suspect_timeout=3.0),
                on_suspect=lambda node, frm=name: suspected.append((frm, node)),
            )
        for name in names:
            cores[name].send = make_send(name)

        def tick_all():
            for core in cores.values():
                core.tick()

        for i in range(40):
            sched.call_after(0.5 * i, tick_all)
        sched.run(until=25.0)

        assert cores["a"].stats["ping_reqs"] > 0  # the rescue path fired
        assert cores["a"].state_of("b")[0] == ALIVE
        assert ("a", "b") not in suspected
        assert all(core.dead_count == 0 for core in cores.values())


class TestScaleHarness:
    def test_crash_storm_converges_with_zero_false_positives(self):
        report = run_scale(GossipScaleConfig(nodes=192, seed=3))
        assert report.converged
        assert report.crashed == 1  # 1% of 192, floored at 1
        assert report.false_positives == 0
        assert report.shards_converged == report.shards

    def test_dissemination_is_logarithmic_not_linear(self):
        """Confirmation of a storm infects the fleet in O(log n)
        protocol periods: quadrupling the fleet must not even double
        the convergence time (linear spread would quadruple it)."""
        small = run_scale(GossipScaleConfig(nodes=128, seed=0))
        large = run_scale(GossipScaleConfig(nodes=512, seed=0))
        assert small.converged and large.converged
        assert large.convergence_time < 2.0 * small.convergence_time
        # And the absolute bound: detection + suspicion deadline +
        # an O(log n) infection tail measured in protocol periods.
        for report, n in ((small, 128), (large, 512)):
            period = 1.0
            bound = 6.0 + (4 + 3 * math.log2(n + 1)) * period
            assert report.convergence_time <= bound

    def test_per_node_load_is_flat_across_fleet_sizes(self):
        small = run_scale(GossipScaleConfig(nodes=128, seed=0))
        large = run_scale(GossipScaleConfig(nodes=512, seed=0))
        assert (
            large.steady_msgs_per_node_per_sec
            <= 1.25 * small.steady_msgs_per_node_per_sec
        )

    def test_same_seed_same_digest(self):
        config = GossipScaleConfig(nodes=160, seed=5)
        first = run_scale(config)
        second = run_scale(config)
        assert first.digest == second.digest
        assert first.to_dict() == second.to_dict()

    def test_different_seed_different_trajectory(self):
        a = run_scale(GossipScaleConfig(nodes=160, seed=5))
        b = run_scale(GossipScaleConfig(nodes=160, seed=6))
        # Different storms pick different victims: the converged views
        # (and hence digests) must differ.
        assert a.digest != b.digest


class TestLargeNChaosFamily:
    # Pin of the *base* family: adding the large-n generator must not
    # have consumed from or re-ordered the base rng streams.  If this
    # digest moves, seeds published in results/ no longer reproduce.
    BASE_FAMILY_PIN = (
        "827d22e91c803dc813ed6e94c9878c24371ab5d3e791b66ea787cb7114f3a8b5"
    )

    def test_base_family_unchanged_by_large_n_flag(self):
        base = generate_scenario(7, 0)
        digest = hashlib.sha256(repr(base).encode()).hexdigest()
        assert digest == self.BASE_FAMILY_PIN
        assert generate_scenario(7, 0, large_n=False) == base

    def test_large_n_is_deterministic(self):
        assert generate_scenario(3, 1, large_n=True) == generate_scenario(
            3, 1, large_n=True
        )

    def test_large_n_floors_at_1000_nodes(self):
        scenario = generate_scenario(7, 0, nodes=64, large_n=True)
        assert len(scenario.nodes) == 1000
        assert scenario.name.endswith("-large")
        assert not scenario.stateful

    def test_every_large_n_scenario_crashes_someone(self):
        for index in range(4):
            scenario = generate_scenario(5, index, large_n=True)
            assert any(isinstance(op, Crash) for op in scenario.ops)

    def test_large_n_scenario_converges_on_fleet(self):
        scenario = generate_scenario(7, 0, large_n=True)
        report = run_scenario(scenario, GossipScaleConfig(seed=7))
        assert report.converged
        assert report.false_positives == 0
        assert report.scenario == scenario.name


class TestHashRing:
    def test_owners_are_distinct_and_capped(self):
        ring = HashRing(["n%d" % i for i in range(5)], vnodes=16)
        owners = ring.owners("shard-0001", 3)
        assert len(owners) == len(set(owners)) == 3
        assert ring.owners("shard-0001", 99) == ring.owners("shard-0001", 5)

    def test_lookup_is_stable(self):
        ring = HashRing(["a", "b", "c"], vnodes=16)
        assert ring.owners("k", 2) == ring.owners("k", 2)

    def test_removal_moves_only_affected_keys(self):
        nodes = ["n%d" % i for i in range(8)]
        ring = HashRing(nodes, vnodes=32)
        keys = ["shard-%04d" % i for i in range(64)]
        before = {k: ring.owners(k, 2) for k in keys}
        ring.remove("n3")
        for key in keys:
            if "n3" not in before[key]:
                assert ring.owners(key, 2) == before[key]
            else:
                assert "n3" not in ring.owners(key, 2)


class TestShardDirectory:
    def test_assignment_respects_replication(self):
        directory = ShardDirectory(shards=8, replication=3)
        for i in range(5):
            directory.add_node("n%d" % i)
        assignment = directory.assignment()
        assert len(assignment) == 8
        for owners in assignment.values():
            assert len(owners) == len(set(owners)) == 3

    def test_static_assignment_matches_incremental(self):
        directory = ShardDirectory(shards=16, replication=2)
        for i in range(6):
            directory.add_node("n%d" % i)
        static = ShardDirectory.assignment_for(
            ["n%d" % i for i in range(6)], shards=16, replication=2
        )
        assert static == directory.assignment()

    def test_node_loss_reassigns_only_its_shards(self):
        directory = ShardDirectory(shards=32, replication=2)
        for i in range(8):
            directory.add_node("n%d" % i)
        before = directory.assignment()
        directory.remove_node("n2")
        after = directory.assignment()
        for shard in before:
            if "n2" not in before[shard]:
                assert after[shard] == before[shard]
            else:
                assert "n2" not in after[shard]


class TestShardPlane:
    def test_handoff_on_failure_reconverges_real_stacks(self):
        world = World(seed=11, network="lan")
        plane = ShardPlane(
            world, ["a", "b", "c"], shards=2, replication=2
        )
        plane.start(settle=0.4)
        world.run(5.0)
        assert plane.converged()
        # Every shard's owners installed a view of exactly the owners.
        assignment = plane.directory.assignment()
        for shard, owners in assignment.items():
            views = plane.shard_views(shard)
            assert set(views) == set(owners)
        # A verdict against c: directory drops it, sync hands its
        # shards to survivors, XFER streams state, views re-form.
        world.crash("c")
        plane.node_failed("c")
        changes = plane.sync(settle=0.4)
        world.run(8.0)
        assert changes > 0
        assert plane.converged()
        assert all(
            "c" not in owners
            for owners in plane.directory.assignment().values()
        )


class TestDetectorInterchangeability:
    """Both detector families feed Section 5's external service through
    the same FailureDetector protocol seam."""

    def test_timeout_detector_files_verdicts(self):
        sched = Scheduler()
        efd = ExternalFailureDetector(threshold=1)
        reporter = EndpointAddress("watcher", 1)
        target = EndpointAddress("b", 0)
        fd = efd.attach(
            TimeoutFailureDetector(sched, suspect_timeout=1.0, scan_period=0.25),
            reporter,
        )
        fd.monitor(target)
        sched.run(until=2.0)
        assert efd.is_faulty(target)

    def test_gossip_detector_files_verdicts(self):
        sched = Scheduler()
        network = LanNetwork(sched, rng=random.Random(9), name="fd")
        names = ["n%d" % i for i in range(6)]
        config = SwimConfig(period=0.5, suspect_timeout=2.0)
        detectors = {
            name: GossipFailureDetector.standalone(
                network, sched, name, peers=names, seed=9, config=config
            )
            for name in names
        }
        efd = ExternalFailureDetector(threshold=2)
        for name in names[:3]:
            fd = efd.attach(detectors[name], EndpointAddress(name, 0))
            for peer in names:
                if peer != name:
                    fd.monitor(EndpointAddress(peer, 0))
        sched.run(until=5.0)
        assert efd.faulty() == []  # healthy fleet: no verdicts
        network.crash("n5")
        sched.run(until=30.0)
        assert efd.is_faulty(EndpointAddress("n5", 0))
        # Nobody else was convicted.
        assert efd.faulty() == [EndpointAddress("n5", 0)]
        for detector in detectors.values():
            detector.stop()

    def test_gossip_detector_speaks_the_protocol_surface(self):
        sched = Scheduler()
        network = LanNetwork(sched, rng=random.Random(4), name="fd2")
        detector = GossipFailureDetector.standalone(
            network, sched, "a", peers=("a", "b"), seed=4
        )
        b = EndpointAddress("b", 0)
        detector.monitor(b)
        assert detector.suspects() == set()
        assert not detector.is_suspected(b)
        detector.core.apply_update("b", SUSPECT, 0)
        assert detector.suspects() == {b}
        detector.heartbeat(b)  # evidence of life rescinds suspicion
        assert detector.suspects() == set()
        assert detector.state_of(b) == (ALIVE, 0)
        detector.forget(b)
        detector.core.apply_update("b", DEAD, 1)
        assert detector.suspects() == set()  # no longer monitored
        detector.stop()


class TestGossipLayerInStack:
    def test_gossip_layer_feeds_mbrship_eviction(self):
        """The hourglass wired end-to-end: GOSSIP below MBRSHIP detects
        a crash, files it with the external service, and every MBRSHIP
        instance flushes to the surviving view."""
        world = World(seed=21, network="lan")
        efd = ExternalFailureDetector(threshold=2)
        handles = {}
        for name in ["a", "b", "c", "d"]:
            endpoint = world.process(name).endpoint()
            handles[name] = endpoint.join(
                "grp",
                stack="MBRSHIP:FRAG:NAK:GOSSIP:COM",
                overrides={
                    "MBRSHIP": {"external_fd": efd},
                    "GOSSIP": {
                        "external_fd": efd,
                        "period": 0.5,
                        "suspect_timeout": 2.0,
                    },
                },
            )
            world.run(0.3)
        world.run(3.0)
        world.crash("d")
        world.run(15.0)
        assert efd.is_faulty(handles["d"].endpoint_address)
        for name in ("a", "b", "c"):
            assert handles[name].view.size == 3

    def test_swim_counts_are_exact_at_every_read_and_after_a_stop(self):
        """The exported SWIM counters are taken from the cores when the
        registry is read, so neither a read between ticks nor a stop
        mid-period misses a count."""
        world = World(seed=21, network="lan")
        handles = []
        for name in ["a", "b", "c"]:
            handles.append(world.process(name).endpoint().join(
                "grp", stack="MBRSHIP:FRAG:NAK:GOSSIP:COM",
                overrides={"GOSSIP": {"period": 1.0}},
            ))
            world.run(0.3)
        world.run(5.0)
        cores = [handle.focus("GOSSIP").core for handle in handles]
        counters = {key: f"gossip_{key}_total"
                    for key in ("pings", "acks", "ping_reqs", "suspects")}

        def exported(name):
            world.metrics.collect()  # as every export does first
            return world.metrics.get(name).value

        def assert_exact():
            for key, name in counters.items():
                assert exported(name) == sum(
                    core.stats[key] for core in cores
                ), name

        # With c dead, probes of c time out and send ping-reqs and
        # suspicions from SWIM's own timers, between ticks.
        world.crash("c")
        for _ in range(240):
            world.run(0.01)
            assert_exact()
        for handle in handles:
            handle.stack.stop()
        assert_exact()
        assert exported("gossip_pings_total") > 0
        assert exported("gossip_ping_reqs_total") > 0

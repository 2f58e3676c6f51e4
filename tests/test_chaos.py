"""The chaos engine: scenario DSL, generator, runner, shrinking, CLI.

The determinism tests are the chaos analogue of
``tests/test_net_determinism.py``: same seed + same scenario must give
a byte-identical delivery-trace digest and identical verify verdicts.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.chaos import (
    DEFAULT_CHECKS,
    Crash,
    Heal,
    InjectLoad,
    Partition,
    Recover,
    Scenario,
    ScenarioRunner,
    SetFaults,
    generate_scenario,
    scenario_from_dict,
    shrink_scenario,
)


def moderate_scenario() -> Scenario:
    """A storm with every op kind that the stack must survive."""
    return Scenario(
        name="moderate",
        nodes=("n0", "n1", "n2", "n3"),
        ops=(
            InjectLoad(at=0.4, node="n0", count=3, size=32),
            Crash(at=0.8, node="n3"),
            SetFaults.of(1.0, loss_rate=0.05, duplicate_rate=0.05),
            InjectLoad(at=1.4, node="n1", count=3, size=64),
            Partition(at=1.8, components=(("n0", "n1", "n3"), ("n2",))),
            InjectLoad(at=2.2, node="n0", count=2, size=16),
            Heal(at=2.8),
            Recover(at=3.2, node="n3"),
            InjectLoad(at=3.8, node="n3", count=2, size=32),
        ),
        duration=5.0,
    )


class TestScenarioValues:
    def test_ops_sorted_by_time(self):
        scenario = Scenario(
            name="x", nodes=("a",),
            ops=(Heal(at=2.0), Crash(at=1.0, node="a")),
        )
        assert [op.at for op in scenario.ops] == [1.0, 2.0]

    def test_json_round_trip(self):
        scenario = moderate_scenario()
        rebuilt = scenario_from_dict(json.loads(json.dumps(scenario.to_dict())))
        assert rebuilt == scenario
        assert rebuilt.signature() == scenario.signature()

    def test_signature_sensitive_to_timeline(self):
        scenario = moderate_scenario()
        fewer = scenario.with_ops(scenario.ops[1:])
        assert fewer.signature() != scenario.signature()

    def test_set_faults_builds_model(self):
        op = SetFaults.of(1.0, loss_rate=0.2, garble_rate=0.1)
        model = op.model()
        assert model.loss_rate == 0.2 and model.garble_rate == 0.1


class TestGenerator:
    #: Pin of the base family's timeline: a generator change that
    #: consumes from or re-orders the base rng stream moves it, and the
    #: seeds published in results/ would no longer reproduce.
    BASE_FAMILY_PIN = (
        "827d22e91c803dc813ed6e94c9878c24371ab5d3e791b66ea787cb7114f3a8b5"
    )

    def test_base_family_timeline_is_pinned(self):
        digest = hashlib.sha256(repr(generate_scenario(7, 0)).encode())
        assert digest.hexdigest() == self.BASE_FAMILY_PIN

    def test_same_seed_same_scenarios(self):
        for index in range(6):
            assert generate_scenario(7, index) == generate_scenario(7, index)

    def test_different_indexes_differ(self):
        scenarios = [generate_scenario(0, i) for i in range(8)]
        assert len({s.signature() for s in scenarios}) == len(scenarios)

    def test_every_scenario_has_load(self):
        for index in range(10):
            scenario = generate_scenario(3, index)
            assert any(isinstance(op, InjectLoad) for op in scenario.ops)

    def test_at_most_minority_dead(self):
        for index in range(20):
            scenario = generate_scenario(11, index, nodes=5)
            dead = set()
            worst = 0
            for op in scenario.ops:
                if isinstance(op, Crash):
                    dead.add(op.node)
                elif isinstance(op, Recover):
                    dead.discard(op.node)
                worst = max(worst, len(dead))
            assert worst <= 2


class TestRunnerDeterminism:
    def test_same_seed_identical_digest_and_verdicts(self):
        scenario = moderate_scenario()
        results = [
            ScenarioRunner(substrate="sim", seed=42).run(scenario)
            for _ in range(2)
        ]
        assert results[0].digest == results[1].digest
        assert results[0].violations == results[1].violations
        assert results[0].casts_sent == results[1].casts_sent
        assert results[0].timeline == results[1].timeline

    def test_different_deliveries_different_digest(self):
        # Different seeds may legitimately converge to the same outcome
        # (reliable layers erase timing differences), so the digest is
        # compared across *scenarios* with different delivered content.
        scenario = moderate_scenario()
        fewer = scenario.with_ops(
            tuple(op for op in scenario.ops if not isinstance(op, InjectLoad))
            + (InjectLoad(at=0.4, node="n0", count=1, size=16),)
        )
        a = ScenarioRunner(substrate="sim", seed=1).run(scenario)
        b = ScenarioRunner(substrate="sim", seed=1).run(fewer)
        assert a.digest != b.digest

    def test_moderate_scenario_survives_cleanly(self):
        result = ScenarioRunner(substrate="sim", seed=42).run(moderate_scenario())
        assert result.ok, result.violations
        assert result.converged
        assert result.casts_sent > 0

    def test_a_group_that_does_not_converge_is_a_violation(self):
        """The crashed member re-joins in the mend phase, but a 50 ms
        settle budget ends before its merge can install a full view."""
        scenario = Scenario(
            name="no-settle", nodes=("n0", "n1", "n2", "n3"),
            ops=(Crash(at=0.5, node="n3"),), duration=1.0, settle=0.05,
        )
        result = ScenarioRunner(substrate="sim", seed=42).run(scenario)
        assert not result.converged and not result.ok
        assert [v.split(":")[0] for v in result.violations] == ["converged"]

    def test_generated_soak_slice_is_clean(self):
        runner = ScenarioRunner(substrate="sim", seed=0)
        for index in range(3):
            result = runner.run(generate_scenario(0, index))
            assert result.ok, (index, result.violations)

    def test_recovered_node_rejoins_in_final_view(self):
        scenario = Scenario(
            name="rejoin",
            nodes=("n0", "n1", "n2"),
            ops=(
                Crash(at=0.5, node="n2"),
                Recover(at=2.5, node="n2"),
            ),
            duration=4.0,
        )
        result = ScenarioRunner(substrate="sim", seed=9).run(scenario)
        assert result.ok, result.violations
        assert result.converged


class TestRoadmapItem1Witness:
    """The smallest known witness of ROADMAP item 1, on both stacks.

    ``python -m repro chaos --seed 1 --scenarios 10 --only 4``: four
    members, ten ops, 5.5 simulated seconds.  When a turn-around was a
    nested procedure call, ``MembershipLayer._install_view`` passed
    ``VIEW`` down, NAK drained the next era's casts back up into it and
    one cast of n2 was logged in v4 at n3 and in v5 at n0 and n2 —
    delivered everywhere, in different views.  The same timeline runs
    through the fused production layer and its decomposed reference
    stack (Section 8's method); timing differs between the two, so
    their digests are not compared.
    """

    SIGNATURE = "927fe98aa9bcc4e5"

    @pytest.mark.parametrize("stack", [
        "MBRSHIP:FRAG:NAK:CHKSUM:COM",
        "FLUSH:VSS:BMS:FRAG:NAK:CHKSUM:COM",
    ])
    def test_keeps_virtual_synchrony(self, stack):
        scenario = generate_scenario(1, 4)
        # The generator still draws the timeline this class is about.
        assert scenario.signature() == self.SIGNATURE
        result = ScenarioRunner(substrate="sim", seed=1).run(
            dataclasses.replace(scenario, stack=stack)
        )
        assert result.ok, result.violations
        assert result.converged and result.casts_sent == 17


TOTAL_STACK = "TOTAL:MBRSHIP:FRAG:NAK:CHKSUM:COM"


def total_group(seed, size):
    """``size`` members joined one by one to a TOTAL stack, view settled."""
    from repro import World

    world = World(seed=seed, network="lan", trace=False)
    handles = []
    for i in range(size):
        handles.append(
            world.process(f"n{i}").endpoint().join("g", stack=TOTAL_STACK)
        )
        world.run(0.3)
    assert world.run_while(
        lambda: all(h.view is not None and h.view.size == size
                    for h in handles),
        timeout=30.0,
    )
    return world, handles


def poisson_casts(world, handles, seed, rate, seconds):
    """Schedule every member's casts; returns ``{member index: [data]}``,
    filled in as the casts are made (a crashed member makes none)."""
    import random

    rng, start = random.Random(seed), world.scheduler.now
    sent = {i: [] for i in range(len(handles))}

    def cast(i, data):
        if world.node_alive(f"n{i}"):
            sent[i].append(data)
            handles[i].cast(data)

    for i in range(len(handles)):
        at = rng.expovariate(rate)
        while at < seconds:
            world.scheduler.call_at(start + at, cast, i, b"%d@%.6f" % (i, at))
            at += rng.expovariate(rate)
    return sent


def stranded(handles, casts):
    delivered = [{d.data for d in h.delivery_log} for h in handles]
    return [data for data in casts if not all(data in got for got in delivered)]


class TestTotalOrderUnderLossAndReordering:
    """TOTAL keeps its token under loss with no view change at all.
    Eight members on ``TOTAL:MBRSHIP:FRAG:NAK:CHKSUM:COM`` cast at
    Poisson 20/s for 3 simulated seconds over a 1 ms path with 1 % loss
    and 8 % reordering (5 ms); nobody crashes.  Then the faults lift and
    the group has 2 simulated seconds to mend.  Before TOKENs carried a
    generation, a stale TOKEN (same ``gseq``, older hand-off) reaching
    the live holder made it pass the token to a former holder: on seed 2,
    452 of 465 casts were never delivered everywhere."""

    @pytest.mark.parametrize("seed", range(1, 11))
    def test_every_cast_is_delivered_everywhere_in_one_order(self, seed):
        from repro import FaultModel
        from repro.verify.order_checker import check_total_order

        world, handles = total_group(seed, 8)
        sent = poisson_casts(world, handles, seed, rate=20.0, seconds=3.0)
        world.set_faults(FaultModel(base_delay=0.001, jitter=0.0002,
                                    loss_rate=0.01, reorder_rate=0.08,
                                    reorder_delay=0.005))
        world.run(3.0)
        world.set_faults(FaultModel(base_delay=0.001))
        world.run(2.0)
        casts = [data for mine in sent.values() for data in mine]
        missing = stranded(handles, casts)
        assert not missing, (
            f"{len(missing)} of {len(casts)} casts not delivered everywhere"
        )
        check_total_order(handles)
        assert {h.view.view_id for h in handles} == {handles[0].view.view_id}
        # The run did exercise the guard: hand-offs were overtaken.
        assert sum(h.focus("TOTAL").stale_tokens_dropped for h in handles)


class TestTokenHolderCrash:
    """The holder dies with a batch of its casts in flight.  Nobody else
    can order anything until the view change re-issues the token to the
    new view's lowest-ranked member (Section 7): the stall lasts as long
    as failure detection and the flush, which is the price of TOTAL
    needing no failure detector of its own.  After it, every survivor's
    cast is delivered at every survivor, in one order."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_survivors_deliver_everything_after_the_view_change(
            self, seed, record_property):
        from repro import FaultModel
        from repro.verify.order_checker import check_total_order
        from repro.verify.vs_checker import check_virtual_synchrony

        world, handles = total_group(seed, 5)
        world.set_faults(FaultModel(base_delay=0.001, loss_rate=0.02))
        sent = poisson_casts(world, handles, seed, rate=50.0, seconds=4.0)
        world.run(1.0)
        assert world.run_while(
            lambda: any(h.focus("TOTAL")._holds_token() for h in handles),
            timeout=1.0, poll=0.0002,
        )
        holder = next(i for i, h in enumerate(handles)
                      if h.focus("TOTAL")._holds_token())
        batch = [b"batch/%d" % i for i in range(8)]
        for data in batch:
            handles[holder].cast(data)  # ordered and sent at once
        crashed_at = world.now
        world.crash(f"n{holder}")
        survivors = [h for i, h in enumerate(handles) if i != holder]
        since = {i: len(mine) for i, mine in sent.items()}

        def ordering_resumed():
            fresh = [data for i, mine in sent.items() if i != holder
                     for data in mine[since[i]:]]
            return len(stranded(survivors, fresh)) < len(fresh)

        assert world.run_while(ordering_resumed, timeout=10.0, poll=0.005)
        stall = world.now - crashed_at
        record_property("token_stall_s", round(stall, 3))
        assert all(h.view.size == 4 for h in survivors)
        # Resumed by the view change, not before it and not long after.
        assert 0.5 < stall < 3.0, stall

        world.run(3.0)
        world.set_faults(FaultModel(base_delay=0.001))
        world.run(3.0)
        casts = [data for i, mine in sent.items() if i != holder
                 for data in mine]
        assert not stranded(survivors, casts)
        # The dead holder's batch: all of it at every survivor or none.
        assert len({tuple(data in {d.data for d in h.delivery_log}
                          for data in batch) for h in survivors}) == 1
        check_total_order(survivors)
        check_virtual_synchrony(survivors)


class TestFaultsThroughFlush:
    """ROADMAP item 1's workload as a chaos family: eight members casting
    at a Poisson rate, 1 % loss + 8 % reordering never lifted across
    crash → flush → install → recover.  When turn-arounds nested, these
    three scenarios failed ``vs:`` (a cast delivered in the old view at
    one member and the new view at the others)."""

    def test_own_rng_stream_leaves_the_base_family_alone(self):
        flush = generate_scenario(1, 4, faults_through_flush=True)
        assert flush == generate_scenario(1, 4, faults_through_flush=True)
        assert flush.signature() != TestRoadmapItem1Witness.SIGNATURE
        assert (generate_scenario(1, 4).signature()
                == TestRoadmapItem1Witness.SIGNATURE)

    def test_faults_are_set_once_and_every_member_casts(self):
        scenario = generate_scenario(2, 0, faults_through_flush=True)
        assert len(scenario.nodes) == 8
        faults = [op for op in scenario.ops if isinstance(op, SetFaults)]
        assert [op.at for op in faults] == [0.0]
        assert dict(faults[0].faults)["loss_rate"] == 0.01
        assert dict(faults[0].faults)["reorder_rate"] == 0.08
        crashes = [op for op in scenario.ops if isinstance(op, Crash)]
        recovers = [op for op in scenario.ops if isinstance(op, Recover)]
        assert crashes and len(crashes) == len(recovers)
        assert all(c.at < r.at and c.node == r.node != "n0"
                   for c, r in zip(crashes, recovers))
        casters = {op.node for op in scenario.ops if isinstance(op, InjectLoad)}
        assert casters == set(scenario.nodes)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_flush_under_traffic_keeps_every_guarantee(self, seed):
        scenario = generate_scenario(seed, 0, faults_through_flush=True)
        result = ScenarioRunner(substrate="sim", seed=seed).run(scenario)
        assert result.ok, result.violations
        assert result.converged and result.casts_sent > 1000

    @pytest.mark.parametrize("seed, index", [(1, 0), (1, 1), (2, 0), (2, 1)])
    def test_total_order_through_the_flush(self, seed, index):
        """The family with TOTAL stacked and total order checked.  Three
        of these four failed view agreement or gapless FIFO while a view
        change mid-turn let the next view's casts reach NAK ahead of its
        VIEW downcall, and while TOTAL forgot casts it had released but
        the old view never delivered."""
        scenario = generate_scenario(seed, index, faults_through_flush=True,
                                     stack=TOTAL_STACK)
        result = ScenarioRunner(
            substrate="sim", seed=seed, checks=DEFAULT_CHECKS + ("total",),
        ).run(scenario)
        assert result.ok, result.violations
        assert result.converged and result.casts_sent > 1000


def total_order_breaker() -> Scenario:
    """Two concurrent senders on a FIFO-only stack: total order is not
    promised, so demanding it must fail (the deliberate failure the
    shrinker tests chew on)."""
    return Scenario(
        name="total-break",
        nodes=("n0", "n1", "n2"),
        ops=(
            SetFaults.of(0.2, reorder_rate=0.6, reorder_delay=0.3),
            InjectLoad(at=0.5, node="n0", count=8, size=32),
            InjectLoad(at=0.5, node="n1", count=8, size=32),
            InjectLoad(at=1.5, node="n2", count=4, size=32),
        ),
        duration=4.0,
    )


class TestDeliberateFailureAndShrink:
    def _runner(self):
        return ScenarioRunner(
            substrate="sim", seed=0,
            checks=("views", "vs", "fifo", "total"),
        )

    def test_total_order_check_fails_on_fifo_stack(self):
        result = self._runner().run(total_order_breaker())
        assert not result.ok
        assert any(v.startswith("total:") for v in result.violations)
        # The report carries everything needed to replay.
        assert "seed=0" in result.repro_hint()
        assert result.timeline

    def test_shrink_finds_minimal_timeline(self):
        runner = self._runner()

        def still_fails(candidate):
            return not runner.run(candidate).ok

        report = shrink_scenario(total_order_breaker(), still_fails)
        minimal = report.minimal
        assert len(minimal.ops) < len(report.original.ops)
        assert still_fails(minimal)
        # 1-minimality: removing any remaining op makes the failure
        # disappear.
        for index in range(len(minimal.ops)):
            slimmer = minimal.with_ops(
                minimal.ops[:index] + minimal.ops[index + 1:]
            )
            assert not still_fails(slimmer)

    def test_shrink_rejects_passing_scenario(self):
        runner = ScenarioRunner(substrate="sim", seed=42)
        with pytest.raises(ValueError, match="does not fail"):
            shrink_scenario(
                moderate_scenario(),
                lambda candidate: not runner.run(candidate).ok,
            )


class TestChaosCli:
    def test_chaos_soak_clean_and_reported(self, capsys, tmp_path):
        from repro.__main__ import main

        report_path = tmp_path / "report.json"
        code = main([
            "chaos", "--seed", "0", "--scenarios", "2",
            "--substrate", "sim", "--report", str(report_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("[ok]") == 2
        report = json.loads(report_path.read_text())
        assert report["failed"] == 0
        assert len(report["scenarios"]) == 2
        # The persisted scenarios round-trip into runnable values.
        rebuilt = scenario_from_dict(report["scenarios"][0]["scenario"])
        assert rebuilt == generate_scenario(0, 0)

    def test_chaos_failure_exits_nonzero_and_shrinks(self, capsys, tmp_path):
        from repro.__main__ import main

        scenario_file = tmp_path / "scenario.json"
        scenario_file.write_text(json.dumps(total_order_breaker().to_dict()))
        code = main([
            "chaos", "--seed", "0", "--scenario-file", str(scenario_file),
            "--check-total", "--shrink",
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "[FAIL]" in out
        assert "minimal repro:" in out
        assert "replay: seed=0" in out


    #: What "no behaviour change" means, mechanically: the soak digest
    #: folds every scenario's delivery trace and checker verdicts, is a
    #: pure function of the seed (``PYTHONHASHSEED`` included), and is
    #: printed by the same code path CI's chaos-smoke job runs.  A PR
    #: that *means* to change delivery order, views or verdicts re-cuts
    #: these in the same diff and says why; any other PR leaves them be.
    #: Re-cut once when MBRSHIP's stability gossip became one cast and
    #: NAK's per-peer unicast status rode its status multicast: that
    #: moved the timing of every run, which changes which casts CREDIT
    #: sheds or blocks in the overload family.  The base family's views
    #: and deliveries did not move.  Re-cut again (overload, stateful)
    #: when NAK's status went out only when it was news: fewer control
    #: datagrams shift every later fault draw; the base digest held.
    PINNED_SOAKS = [
        (["--seed", "0", "--scenarios", "10", "--substrate", "sim"],
         "538177f27181fa60"),
        (["--seed", "7", "--scenarios", "3", "--overload"],
         "f6e4cdbcf96610be"),
        # The only family that drives ReplicatedDict's journal, replay
        # and state transfer.
        (["--seed", "0", "--scenarios", "10", "--substrate", "sim",
          "--stateful", "--durability", "group"],
         "5579009aff4fddea"),
    ]

    @pytest.mark.parametrize("argv, digest", PINNED_SOAKS)
    def test_soak_digests_are_pinned(self, capsys, argv, digest):
        from repro.__main__ import main

        assert main(["chaos", *argv]) == 0
        soak_line = capsys.readouterr().out.strip().splitlines()[-1]
        assert soak_line.startswith("soak: ") and " 0 failed" in soak_line
        assert soak_line.rsplit("digest=", 1)[1] == digest


@pytest.mark.realtime
class TestRealtimeChaos:
    def test_realtime_smoke_scenario(self):
        scenario = Scenario(
            name="rt-smoke",
            nodes=("n0", "n1", "n2"),
            ops=(
                InjectLoad(at=0.3, node="n0", count=3, size=32),
                Crash(at=0.6, node="n2"),
                InjectLoad(at=0.9, node="n1", count=3, size=32),
                Recover(at=1.4, node="n2"),
                InjectLoad(at=1.8, node="n2", count=2, size=32),
            ),
            duration=2.5,
            settle=10.0,
        )
        result = ScenarioRunner(substrate="realtime", seed=0).run(scenario)
        assert result.ok, result.violations
        assert result.casts_sent > 0

    def test_realtime_faults_through_flush(self):
        scenario = generate_scenario(
            0, 0, profile="realtime", faults_through_flush=True
        )
        result = ScenarioRunner(substrate="realtime", seed=0).run(scenario)
        assert result.ok, result.violations
        assert result.converged and result.casts_sent > 100

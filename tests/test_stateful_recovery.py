"""Stateful crash/recover end to end: WAL replay, XFER catch-up, chaos.

The acceptance path for the durable-state subsystem: a chaos scenario
that crashes a minority, recovers it with ``stateful=True``, and mends
its partitions must pass the state-convergence check — with the DES
digest a pure function of ``(seed, scenario)`` — and a total failure
must be survivable from the WAL alone.
"""

import pytest

from repro import World
from repro.chaos import ScenarioRunner, generate_scenario
from repro.chaos.scenario import (
    STATEFUL_CHAOS_STACK,
    Crash,
    Heal,
    InjectLoad,
    Partition,
    Recover,
    Scenario,
)
from repro.toolkit import ReplicatedDict


def _acceptance_scenario() -> Scenario:
    """Crash a minority, recover stateful, mend the partition."""
    return Scenario(
        name="acceptance",
        nodes=("n0", "n1", "n2", "n3"),
        stack=STATEFUL_CHAOS_STACK,
        stateful=True,
        duration=10.0,
        ops=(
            InjectLoad(at=0.5, node="n0", count=5, size=48),
            Crash(at=1.5, node="n3"),
            InjectLoad(at=2.5, node="n1", count=5, size=48),
            Partition(at=3.5, components=(("n0", "n1"), ("n2",))),
            InjectLoad(at=4.5, node="n0", count=3, size=32),
            Recover(at=6.0, node="n3"),
            Heal(at=7.0),
            InjectLoad(at=8.0, node="n2", count=3, size=32),
        ),
    )


class TestStatefulChaos:
    def test_acceptance_scenario_converges_on_des(self):
        runner = ScenarioRunner(substrate="sim", seed=7)
        result = runner.run(_acceptance_scenario())
        assert "state" in result.checks
        assert result.ok, result.violations
        assert result.converged

    @pytest.mark.parametrize("durability", ["fsync_per_record", "group"])
    def test_acceptance_scenario_converges_in_every_durability_mode(
        self, durability
    ):
        runner = ScenarioRunner(
            substrate="sim", seed=7, durability=durability
        )
        result = runner.run(_acceptance_scenario())
        assert result.ok, result.violations
        assert result.converged

    def test_des_digest_is_pure_in_seed_and_scenario(self):
        scenario = generate_scenario(7, 0, stateful=True)
        assert scenario.stateful
        first = ScenarioRunner(substrate="sim", seed=7).run(scenario)
        second = ScenarioRunner(substrate="sim", seed=7).run(scenario)
        assert first.ok and second.ok
        assert first.digest == second.digest

    def test_store_dir_leaves_inspectable_wals(self, tmp_path):
        import os

        from repro.store import render_path

        runner = ScenarioRunner(
            substrate="sim", seed=7, store_dir=str(tmp_path)
        )
        scenario = _acceptance_scenario()
        result = runner.run(scenario)
        assert result.ok, result.violations
        root = os.path.join(str(tmp_path), scenario.name)
        assert os.path.isdir(root)
        rendered = render_path(root)
        assert "wal:" in rendered and "crc=ok" in rendered


class TestWalRecovery:
    def test_recovered_dict_replays_journal_before_rejoin(self, lan_world):
        writer = ReplicatedDict(
            lan_world.process("a").endpoint(), "grp", durable=True
        )
        lan_world.run(1.0)
        for i in range(5):
            writer.set(f"k{i}", i)
        lan_world.run(2.0)
        lan_world.crash("a")
        lan_world.run(1.0)
        # stateful=True keeps the store; the reborn client replays it.
        process = lan_world.recover("a", stateful=True)
        reborn = ReplicatedDict(process.endpoint(), "grp", durable=True)
        assert reborn.recovered_commands == 5
        assert reborn.get("k3") == 3
        # stateless recovery wipes the node's stores: blank slate.
        lan_world.crash("a")
        lan_world.run(1.0)
        blank = ReplicatedDict(
            lan_world.recover("a", stateful=False).endpoint(), "grp",
            durable=True,
        )
        assert blank.recovered_commands == 0
        assert blank.get("k3") is None

    def test_logger_survives_total_failure(self, lan_world):
        stack = "LOGGER:TOTAL:MBRSHIP:FRAG:NAK:COM"
        handles = {}
        for name in ("a", "b", "c"):
            handles[name] = lan_world.process(name).endpoint().join(
                "grp", stack=stack
            )
            lan_world.run(0.5)
        lan_world.run(2.0)
        handles["a"].cast(b"before the fall 1")
        handles["b"].cast(b"before the fall 2")
        lan_world.run(2.0)
        assert len(handles["a"].focus("LOGGER").replay("deliver")) == 2
        # Total failure: every member crashes.
        for name in ("a", "b", "c"):
            lan_world.crash(name)
        lan_world.run(1.0)
        # A new generation replays the journal from the WAL.
        for name in ("a", "b", "c"):
            lan_world.recover(name, stateful=True)
        reborn = lan_world.process("a").endpoint().join("grp", stack=stack)
        lan_world.run(2.0)
        logger = reborn.focus("LOGGER")
        assert logger.recovered_entries > 0
        recovered = logger.replay("deliver")
        assert [e.body for e in recovered[:2]] == [
            b"before the fall 1", b"before the fall 2",
        ]
        assert all(e.recovered for e in recovered[:2])


@pytest.mark.realtime
class TestRealtimeRecovery:
    STACK = (
        "XFER:TOTAL:MBRSHIP(join_timeout=0.2,stability_period=0.25)"
        ":FRAG(max_size=700):NAK:COM"
    )

    def test_crash_recover_catch_up_over_udp(self):
        from repro.runtime.world import RealtimeWorld

        world = RealtimeWorld(seed=5)
        try:
            alive = ReplicatedDict(
                world.process("a").endpoint(), "grp",
                stack=self.STACK, durable=True,
            )
            doomed = ReplicatedDict(
                world.process("b").endpoint(), "grp",
                stack=self.STACK, durable=True,
            )
            ok = world.run_while(
                lambda: alive.synced and doomed.synced
                and alive.handle.view is not None
                and alive.handle.view.size == 2,
                timeout=8.0,
            )
            assert ok, "initial views never settled"
            alive.set("pre", 1)
            doomed.set("mine", 2)
            ok = world.run_while(
                lambda: doomed.get("pre") == 1 and alive.get("mine") == 2,
                timeout=5.0,
            )
            assert ok, "writes never replicated"
            world.crash("b")
            world.run(0.5)
            alive.set("while-down", 3)
            # Recover with real on-disk WAL replay, then catch up the
            # missed write over an XFER snapshot.
            process = world.recover("b", stateful=True)
            reborn = ReplicatedDict(
                process.endpoint(), "grp", stack=self.STACK, durable=True,
            )
            assert reborn.recovered_commands + int(
                reborn.recovered_snapshot
            ) > 0
            ok = world.run_while(
                lambda: reborn.synced
                and reborn.get("while-down") == 3
                and reborn.digest() == alive.digest(),
                timeout=10.0,
            )
            assert ok, (
                f"recovered member never caught up: "
                f"synced={reborn.synced} data={sorted(reborn.state)}"
            )
        finally:
            world.close()

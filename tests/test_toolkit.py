"""Tests for the Isis-style toolkit (Section 1's motivating tools)."""

import pytest

from repro import World
from repro.toolkit import (
    DistributedLock,
    LoadBalancer,
    PrimaryBackup,
    ReplicatedDict,
    ReplicatedStateMachine,
)


def build(world, cls, names, *args, **kwargs):
    members = {}
    for name in names:
        endpoint = world.process(name).endpoint()
        members[name] = cls(endpoint, "tool-grp", *args, **kwargs)
        world.run(0.5)
    world.run(2.0)
    return members


class TestReplicatedStateMachine:
    @staticmethod
    def _apply(state, command):
        state = dict(state)
        state[command["key"]] = state.get(command["key"], 0) + command["incr"]
        return state

    def test_replicas_converge(self, lan_world):
        replicas = build(
            lan_world, ReplicatedStateMachine, ["r1", "r2", "r3"],
            self._apply, initial={},
        )
        for i in range(10):
            replicas["r1"].submit({"key": "a", "incr": 1})
            replicas["r2"].submit({"key": "b", "incr": 2})
        lan_world.run(3.0)
        states = {json_state(r.state) for r in replicas.values()}
        assert len(states) == 1
        assert replicas["r1"].state == {"a": 10, "b": 20}

    def test_identical_command_order(self, lan_world):
        replicas = build(
            lan_world, ReplicatedStateMachine, ["r1", "r2"],
            self._apply, initial={},
        )
        for i in range(5):
            replicas["r1"].submit({"key": "x", "incr": i})
            replicas["r2"].submit({"key": "y", "incr": i})
        lan_world.run(3.0)
        assert replicas["r1"].applied_log == replicas["r2"].applied_log

    def test_crash_does_not_diverge_survivors(self, lan_world):
        replicas = build(
            lan_world, ReplicatedStateMachine, ["r1", "r2", "r3"],
            self._apply, initial={},
        )
        replicas["r3"].submit({"key": "k", "incr": 5})
        lan_world.run(0.05)
        lan_world.crash("r3")
        lan_world.run(8.0)
        assert replicas["r1"].state == replicas["r2"].state


def json_state(state):
    import json

    return json.dumps(state, sort_keys=True)


class TestReplicatedDict:
    def test_basic_replication(self, lan_world):
        members = build(lan_world, ReplicatedDict, ["a", "b", "c"])
        members["a"].set("color", "blue")
        members["b"].set("size", 42)
        lan_world.run(2.0)
        for member in members.values():
            assert member.get("color") == "blue"
            assert member.get("size") == 42

    def test_delete(self, lan_world):
        members = build(lan_world, ReplicatedDict, ["a", "b"])
        members["a"].set("tmp", 1)
        lan_world.run(1.0)
        members["b"].delete("tmp")
        lan_world.run(1.0)
        assert members["a"].get("tmp") is None

    def test_joiner_receives_state_transfer(self, lan_world):
        members = build(lan_world, ReplicatedDict, ["a", "b"])
        members["a"].set("history", "pre-join")
        lan_world.run(2.0)
        joiner = ReplicatedDict(lan_world.process("c").endpoint(), "tool-grp")
        lan_world.run(5.0)
        assert joiner.synced
        assert joiner.get("history") == "pre-join"

    def test_joiner_sees_updates_after_transfer(self, lan_world):
        members = build(lan_world, ReplicatedDict, ["a", "b"])
        members["a"].set("k", "v0")
        lan_world.run(2.0)
        joiner = ReplicatedDict(lan_world.process("c").endpoint(), "tool-grp")
        lan_world.run(5.0)
        members["b"].set("k", "v1")
        lan_world.run(2.0)
        assert joiner.get("k") == "v1"
        assert joiner.snapshot() == members["a"].snapshot()


    @pytest.mark.parametrize("payload", [b"X123", b"U[1]", b'U{"op": "set"}'])
    def test_foreign_casts_are_skipped(self, lan_world, payload):
        members = build(lan_world, ReplicatedDict, ["a", "b"], durable=True)
        members["a"].handle.cast(payload)
        members["b"].set("k", 1)
        lan_world.run(2.0)
        for member in members.values():
            assert member.snapshot() == {"k": 1}
            assert member.store.replay().entries == [
                b'{"key": "k", "op": "set", "value": 1}'
            ]


class TestByteFormats:
    """What each replica casts, journals and snapshots.  These bytes
    live in write-ahead logs and cross the wire in state transfers, so
    they must not move when the code behind them does."""

    def test_replicated_dict(self, lan_world):
        rdict = ReplicatedDict(
            lan_world.process("a").endpoint(), "grp", durable=True,
            snapshot_every=3,
        )
        lan_world.run(1.0)
        assert rdict._state_bytes() == b"{}"
        assert rdict.set("k", 1) == b'U{"key": "k", "op": "set", "value": 1}'
        assert rdict.delete("j") == b'U{"key": "j", "op": "del"}'
        lan_world.run(1.0)
        replayed = rdict.store.replay()
        assert replayed.snapshot is None
        assert replayed.entries == [
            b'{"key": "k", "op": "set", "value": 1}',
            b'{"key": "j", "op": "del"}',
        ]
        rdict.set("m", [2, "x"])
        lan_world.run(1.0)
        replayed = rdict.store.replay()
        assert replayed.snapshot == b'{"k": 1, "m": [2, "x"]}'
        assert replayed.entries == []
        assert rdict._state_bytes() == b'{"k": 1, "m": [2, "x"]}'

    def test_replicated_state_machine(self, lan_world):
        rsm = ReplicatedStateMachine(
            lan_world.process("a").endpoint(), "grp",
            lambda state, command: {"n": state["n"] + command["n"]},
            initial={"n": 0}, durable=True, snapshot_every=2,
        )
        lan_world.run(1.0)
        assert rsm._state_bytes() == b'{"applied_log": [], "state": {"n": 0}}'
        assert rsm.submit({"n": 2}) == b'{"n": 2}'
        lan_world.run(1.0)
        replayed = rsm.store.replay()
        assert replayed.snapshot is None
        assert replayed.entries == [b'{"n": 2}']
        rsm.submit({"n": 3})
        lan_world.run(1.0)
        replayed = rsm.store.replay()
        assert replayed.snapshot == (
            b'{"applied_log": [{"n": 2}, {"n": 3}], "state": {"n": 5}}'
        )
        assert replayed.entries == []
        assert rsm._state_bytes() == replayed.snapshot


class TestDistributedLock:
    def test_first_requester_gets_lock(self, lan_world):
        locks = build(lan_world, DistributedLock, ["a", "b"])
        granted = []
        locks["a"].acquire(on_granted=lambda: granted.append("a"))
        lan_world.run(2.0)
        assert granted == ["a"]
        assert locks["b"].holder == locks["a"].me

    def test_fifo_handover_on_release(self, lan_world):
        locks = build(lan_world, DistributedLock, ["a", "b", "c"])
        order = []
        # Staggered requests: the agreed queue is unambiguously a, b, c.
        locks["a"].acquire(on_granted=lambda: order.append("a"))
        lan_world.run(0.5)
        locks["b"].acquire(on_granted=lambda: order.append("b"))
        lan_world.run(0.5)
        locks["c"].acquire(on_granted=lambda: order.append("c"))
        lan_world.run(2.0)
        locks["a"].release()
        lan_world.run(2.0)
        locks["b"].release()
        lan_world.run(2.0)
        assert order == ["a", "b", "c"]

    def test_concurrent_acquires_grant_in_agreed_order(self, lan_world):
        """Simultaneous requests are granted in the *total order* the
        group agreed on — which every member computes identically."""
        locks = build(lan_world, DistributedLock, ["a", "b", "c"])
        granted = []
        for name in ("a", "b", "c"):
            locks[name].acquire(on_granted=lambda n=name: granted.append(n))
        lan_world.run(2.0)
        agreed_queue = [entry[0] for entry in locks["a"].queue]
        assert [entry[0] for entry in locks["b"].queue] == agreed_queue
        # Drain: each holder releases; grants must follow the queue.
        for _ in range(2):
            current = next(
                lock for lock in locks.values() if lock.held_by_me()
            )
            current.release()
            lan_world.run(2.0)
        expected = [member.split(":")[0] for member in agreed_queue]
        assert granted == expected

    def test_all_members_agree_on_holder(self, lan_world):
        locks = build(lan_world, DistributedLock, ["a", "b", "c"])
        locks["b"].acquire()
        lan_world.run(2.0)
        holders = {lock.holder for lock in locks.values()}
        assert holders == {locks["b"].me}

    def test_crashed_holder_releases_lock(self, lan_world):
        locks = build(lan_world, DistributedLock, ["a", "b", "c"])
        granted = []
        locks["a"].acquire(on_granted=lambda: granted.append("a"))
        locks["b"].acquire(on_granted=lambda: granted.append("b"))
        lan_world.run(2.0)
        assert granted == ["a"]
        lan_world.crash("a")
        lan_world.run(8.0)
        # The view change pruned a; b holds the lock at every survivor.
        assert granted == ["a", "b"]
        assert locks["c"].holder == locks["b"].me

    def test_mutual_exclusion_invariant(self, lan_world):
        locks = build(lan_world, DistributedLock, ["a", "b", "c"])
        for lock in locks.values():
            lock.acquire()
        lan_world.run(3.0)
        holders_view = [lock.held_by_me() for lock in locks.values()]
        assert sum(holders_view) == 1  # exactly one owner


class TestPrimaryBackup:
    @staticmethod
    def _execute(state, operation):
        return state + operation["amount"], f"balance={state + operation['amount']}"

    def test_primary_executes_backups_follow(self, lan_world):
        members = build(
            lan_world, PrimaryBackup, ["p", "b1", "b2"], self._execute, initial=0
        )
        assert members["p"].is_primary
        assert not members["b1"].is_primary
        members["p"].submit({"amount": 10})
        members["p"].submit({"amount": 5})
        lan_world.run(2.0)
        assert all(m.state == 15 for m in members.values())
        assert members["b2"].result_log == ["balance=10", "balance=15"]

    def test_failover_promotes_next_oldest(self, lan_world):
        members = build(
            lan_world, PrimaryBackup, ["p", "b1", "b2"], self._execute, initial=0
        )
        members["p"].submit({"amount": 7})
        lan_world.run(2.0)
        lan_world.crash("p")
        lan_world.run(8.0)
        assert members["b1"].is_primary
        assert members["b1"].failovers == 1
        members["b1"].submit({"amount": 3})
        lan_world.run(2.0)
        assert members["b1"].state == members["b2"].state == 10

    def test_deferred_operations_run_on_promotion(self, lan_world):
        members = build(
            lan_world, PrimaryBackup, ["p", "b1", "b2"], self._execute, initial=0
        )
        members["b1"].submit({"amount": 4})  # deferred: b1 is a backup
        lan_world.run(1.0)
        assert members["b1"].state == 0
        lan_world.crash("p")
        lan_world.run(8.0)
        assert members["b1"].is_primary
        lan_world.run(1.0)
        assert members["b1"].state == 4

    def test_two_member_group_blocks_under_primary_policy(self, lan_world):
        """With only two members, the survivor of a crash is not a
        majority under the Isis tie-break — the classic two-node
        pathology: the service blocks rather than risking split-brain."""
        members = build(
            lan_world, PrimaryBackup, ["p", "b1"], self._execute, initial=0
        )
        lan_world.crash("p")
        lan_world.run(8.0)
        assert not members["b1"].is_primary
        assert members["b1"].handle.focus("MBRSHIP").state == "blocked"


class TestLoadBalancer:
    def test_each_item_executed_exactly_once(self, lan_world):
        executed = []
        pools = build(
            lan_world, LoadBalancer, ["w1", "w2", "w3"],
            lambda item: executed.append(item),
        )
        items = [f"job-{i}".encode() for i in range(30)]
        for item in items:
            pools["w1"].submit(item)
        lan_world.run(3.0)
        assert sorted(executed) == sorted(items)  # all ran...
        assert len(executed) == len(items)  # ...exactly once

    def test_work_spreads_across_members(self, lan_world):
        pools = build(
            lan_world, LoadBalancer, ["w1", "w2", "w3"], lambda item: None
        )
        for i in range(60):
            pools["w2"].submit(f"task-{i}".encode())
        lan_world.run(3.0)
        counts = [len(pool.executed) for pool in pools.values()]
        assert sum(counts) == 60
        assert all(count > 5 for count in counts)  # roughly spread

    def test_ownership_repartitions_after_crash(self, lan_world):
        executed = []
        pools = build(
            lan_world, LoadBalancer, ["w1", "w2", "w3"],
            lambda item: executed.append(item),
        )
        lan_world.crash("w3")
        lan_world.run(8.0)
        items = [f"post-{i}".encode() for i in range(20)]
        for item in items:
            pools["w1"].submit(item)
        lan_world.run(3.0)
        survivors_ran = [
            item for pool in (pools["w1"], pools["w2"]) for item in pool.executed
        ]
        assert sorted(survivors_ran) == sorted(items)

    def test_members_agree_on_owner(self, lan_world):
        pools = build(lan_world, LoadBalancer, ["w1", "w2"], lambda item: None)
        owners = {pool.owner_of(b"some-item") for pool in pools.values()}
        assert len(owners) == 1


class TestGuaranteedExecution:
    def _pool(self, world, names):
        from repro.toolkit import GuaranteedExecutor

        runs = []
        executors = {}
        for name in names:
            endpoint = world.process(name).endpoint()
            executors[name] = GuaranteedExecutor(
                endpoint, "exec-grp", lambda t, n=name: runs.append((n, t))
            )
            world.run(0.5)
        world.run(2.0)
        return executors, runs

    def test_task_executes_exactly_once(self, lan_world):
        executors, runs = self._pool(lan_world, ["a", "b", "c"])
        tasks = [f"task-{i}".encode() for i in range(12)]
        for task in tasks:
            executors["a"].submit(task)
        lan_world.run(3.0)
        assert sorted(t for _, t in runs) == sorted(tasks)
        assert len(runs) == len(tasks)
        for executor in executors.values():
            assert executor.outstanding == []

    def test_owner_crash_reassigns_task(self, lan_world):
        executors, runs = self._pool(lan_world, ["a", "b", "c"])
        # Find a task owned by c, then crash c the moment it would run it
        # (c's execution dies with it: its completion never multicasts).
        task = next(
            t
            for t in (f"probe-{i}".encode() for i in range(100))
            if executors["a"].owner_rank_of(t) == 2
        )
        lan_world.crash("c")  # owner dies before the task is even submitted
        executors["a"].submit(task)
        lan_world.run(10.0)
        # Survivors re-owned and executed it exactly once.
        executed_by = [n for n, t in runs if t == task]
        assert len(executed_by) == 1
        assert executed_by[0] in ("a", "b")

    def test_duplicate_submissions_execute_once(self, lan_world):
        executors, runs = self._pool(lan_world, ["a", "b"])
        executors["a"].submit(b"once")
        executors["b"].submit(b"once")
        lan_world.run(3.0)
        assert [t for _, t in runs] == [b"once"]

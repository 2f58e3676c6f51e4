"""Tests for membership support services and application-controlled
admission: directory, heartbeat FD, external FD, merge grant/deny,
application-forced flush."""

import pytest

from repro import World
from repro.core.events import Downcall, DowncallType
from repro.membership import (
    ExternalFailureDetector,
    GroupDirectory,
    PrimaryPartition,
    TimeoutFailureDetector,
    partition_policy,
)
from repro.net.address import EndpointAddress, GroupAddress
from repro.sim.scheduler import Scheduler

from conftest import join_group

A = EndpointAddress("a", 0)
B = EndpointAddress("b", 0)
C = EndpointAddress("c", 0)
G = GroupAddress("g")


class TestGroupDirectory:
    def test_register_lookup_roundtrip(self):
        directory = GroupDirectory()
        directory.register(G, A)
        directory.register(G, B)
        assert directory.lookup(G) == [A, B]  # oldest first

    def test_register_is_idempotent(self):
        directory = GroupDirectory()
        directory.register(G, A)
        directory.register(G, A)
        assert directory.lookup(G) == [A]

    def test_unregister_unknown_is_noop(self):
        directory = GroupDirectory()
        directory.unregister(G, A)
        assert directory.lookup(G) == []

    def test_contacts_excludes_self(self):
        directory = GroupDirectory()
        directory.register(G, A)
        directory.register(G, B)
        assert directory.contacts(G, A) == [B]

    def test_groups_listing(self):
        directory = GroupDirectory()
        directory.register(G, A)
        directory.register(GroupAddress("h"), B)
        assert directory.groups() == {G, GroupAddress("h")}
        assert len(directory) == 2


class TestTimeoutFailureDetector:
    def test_silence_raises_suspicion(self):
        sched = Scheduler()
        fd = TimeoutFailureDetector(sched, suspect_timeout=1.0, scan_period=0.25)
        suspects = []
        fd.subscribe(suspects.append)
        fd.monitor(A)
        sched.run(until=2.0)
        assert suspects == [A]

    def test_heartbeat_rescinds_suspicion(self):
        sched = Scheduler()
        fd = TimeoutFailureDetector(sched, suspect_timeout=1.0, scan_period=0.25)
        fd.monitor(A)
        sched.run(until=0.5)
        fd.heartbeat(A)
        sched.run(until=1.2)
        assert not fd.is_suspected(A)
        sched.run(until=3.0)
        assert fd.is_suspected(A)  # silence resumed

    def test_forget_stops_monitoring(self):
        sched = Scheduler()
        fd = TimeoutFailureDetector(sched, suspect_timeout=0.5, scan_period=0.1)
        fd.monitor(A)
        fd.forget(A)
        sched.run(until=2.0)
        assert fd.suspects() == set()

    def test_one_notification_per_episode(self):
        sched = Scheduler()
        fd = TimeoutFailureDetector(sched, suspect_timeout=0.5, scan_period=0.1)
        suspects = []
        fd.subscribe(suspects.append)
        fd.monitor(A)
        sched.run(until=3.0)
        assert suspects == [A]  # not re-announced every check


class TestExternalFailureDetector:
    def test_threshold_gates_verdict(self):
        fd = ExternalFailureDetector(threshold=2)
        verdicts = []
        fd.subscribe(verdicts.append)
        fd.report_problem(B, A)
        assert verdicts == []
        fd.report_problem(C, A)
        assert verdicts == [A]

    def test_duplicate_reporters_dont_count_twice(self):
        fd = ExternalFailureDetector(threshold=2)
        fd.report_problem(B, A)
        fd.report_problem(B, A)
        assert not fd.is_faulty(A)

    def test_late_subscriber_sees_history(self):
        fd = ExternalFailureDetector()
        fd.declare_faulty(A)
        verdicts = []
        fd.subscribe(verdicts.append)
        assert verdicts == [A]

    def test_verdicts_are_final(self):
        fd = ExternalFailureDetector()
        fd.declare_faulty(A)
        fd.declare_faulty(A)
        assert fd.faulty() == [A]

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            ExternalFailureDetector(threshold=0)

    def test_attached_timeout_detector_files_verdicts(self):
        sched = Scheduler()
        efd = ExternalFailureDetector(threshold=1)
        reporter = EndpointAddress("watcher", 1)
        target = EndpointAddress("b", 0)
        detector = TimeoutFailureDetector(
            sched, suspect_timeout=1.0, scan_period=0.25
        )
        assert efd.attach(detector, reporter) is detector
        detector.monitor(target)
        sched.run(until=2.0)
        assert efd.faulty() == [target]

    def test_mbrship_consumes_consistent_verdicts(self):
        """Section 5: the external service's output 'can be fed to all
        instances of the MBRSHIP layer' — local problems route through
        it, and only its verdicts create suspicion."""
        world = World(seed=13, network="lan")
        fd = ExternalFailureDetector(threshold=2)
        handles = {}
        for name in ["a", "b", "c", "d"]:
            endpoint = world.process(name).endpoint()
            handles[name] = endpoint.join(
                "grp",
                stack="MBRSHIP:FRAG:NAK:COM",
                overrides={"MBRSHIP": {"external_fd": fd}},
            )
            world.run(0.3)
        world.run(2.0)
        world.crash("d")
        world.run(15.0)
        # Two distinct reporters noticed the silence -> verdict -> flush.
        assert fd.is_faulty(handles["d"].endpoint_address)
        for name in ("a", "b", "c"):
            assert handles[name].view.size == 3


class TestPartitionPolicies:
    def test_factory_rejects_unknown(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            partition_policy("anarchy")

    def test_primary_strict_majority(self):
        policy = PrimaryPartition()
        members = [A, B, C]
        assert policy.may_install(members, [A, B])
        assert not policy.may_install(members, [C])

    def test_primary_tie_break_needs_oldest(self):
        policy = PrimaryPartition()
        members = [A, B, C, EndpointAddress("d", 0)]
        assert policy.may_install(members, [A, B])  # half + oldest
        assert not policy.may_install(members, [B, C])  # half, no oldest

    def test_primary_joiners_dont_tip_quorum(self):
        policy = PrimaryPartition()
        members = [A, B, C]
        joiner = EndpointAddress("z", 9)
        assert not policy.may_install(members, [C, joiner])

    def test_evs_and_relacs_always_allow(self):
        members = [A, B, C]
        assert partition_policy("evs").may_install(members, [C])
        assert partition_policy("relacs").may_install(members, [C])
        assert partition_policy("relacs").requires_disjoint_views


class TestApplicationControlledAdmission:
    STACK = "MBRSHIP(auto_grant=false):FRAG:NAK:COM"

    def test_join_waits_for_grant(self, lan_world):
        requests = []
        a = lan_world.process("a").endpoint()
        ha = a.join("grp", stack=self.STACK)
        lan_world.run(0.5)
        layer = ha.focus("MBRSHIP")
        # Capture MERGE_REQUEST upcalls at the handle level.
        b = lan_world.process("b").endpoint()
        hb = b.join("grp", stack=self.STACK)
        lan_world.run(2.0)
        assert ha.view.size == 1  # nobody granted anything yet
        pending = list(layer._pending_merge_reqs)
        assert pending == [hb.endpoint_address]
        # The application grants.
        ha.stack.down(
            Downcall(
                DowncallType.MERGE_GRANTED,
                extra={"origin": hb.endpoint_address},
            )
        )
        lan_world.run(4.0)
        assert ha.view.size == 2
        assert hb.view is not None and hb.view.size == 2

    def test_denied_join_stays_out(self, lan_world):
        a = lan_world.process("a").endpoint()
        ha = a.join("grp", stack=self.STACK)
        lan_world.run(0.5)
        b = lan_world.process("b").endpoint()
        hb = b.join("grp", stack=self.STACK)
        lan_world.run(2.0)
        ha.stack.down(
            Downcall(
                DowncallType.MERGE_DENIED,
                extra={"origin": hb.endpoint_address},
            )
        )
        lan_world.run(3.0)
        assert ha.view.size == 1


class TestForcedFlush:
    def test_application_flush_downcall_removes_members(self, lan_world):
        """Table 1's flush downcall: 'remove members and flush'."""
        handles = join_group(lan_world, ["a", "b", "c"], "MBRSHIP:FRAG:NAK:COM")
        handles["a"].stack.down(
            Downcall(
                DowncallType.FLUSH,
                members=[handles["c"].endpoint_address],
            )
        )
        lan_world.run(5.0)
        assert handles["a"].view.size == 2
        assert handles["c"].endpoint_address not in handles["a"].view.members

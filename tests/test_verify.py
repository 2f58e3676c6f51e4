"""Tests for the executable specifications (repro.verify, Section 8).

Each checker is exercised both on a compliant run (passes quietly) and
on hand-built violating data (raises with details) — a checker that
cannot fail is not a specification.
"""

import pytest

from repro import World
from repro.core.group import DeliveredMessage, GroupHandle
from repro.core.view import View, ViewId
from repro.errors import VerificationError
from repro.net.address import EndpointAddress, GroupAddress
from repro.sim.trace import TraceRecorder
from repro.verify import (
    CrashSilenceSpec,
    DeliveryGaplessSpec,
    ViewEpochMonotoneSpec,
    check_causal_order,
    check_total_order,
    check_trace,
    check_view_agreement,
    check_view_synchrony_relacs,
    check_virtual_synchrony,
)

from conftest import join_group

G = GroupAddress("g")
A = EndpointAddress("a", 0)
B = EndpointAddress("b", 0)
C = EndpointAddress("c", 0)


def handle_with_views(addr, *views):
    handle = GroupHandle(addr, G)
    for view in views:
        handle.view = view
        handle.view_history.append(view)
    return handle


def view(epoch, *members):
    return View(group=G, view_id=ViewId(epoch, members[0]), members=members)


def delivered(handle, source, data, in_view):
    handle.delivery_log.append(
        DeliveredMessage(
            data=data, source=source, was_cast=True, view=in_view
        )
    )


class TestViewAgreement:
    def test_passes_on_agreeing_histories(self):
        v1, v2 = view(1, A), view(2, A, B)
        check_view_agreement([handle_with_views(A, v1, v2), handle_with_views(B, v2)])

    def test_detects_divergent_membership(self):
        va = view(5, A, B)
        vb = View(group=G, view_id=ViewId(5, A), members=(A, C))
        with pytest.raises(VerificationError) as exc:
            check_view_agreement([handle_with_views(A, va), handle_with_views(B, vb)])
        assert exc.value.violations

    def test_detects_non_monotone_epochs(self):
        h = handle_with_views(A, view(2, A), view(1, A))
        with pytest.raises(VerificationError):
            check_view_agreement([h])

    def test_real_run_passes(self, lan_world):
        handles = join_group(lan_world, ["a", "b", "c"], "MBRSHIP:FRAG:NAK:COM")
        lan_world.crash("b")
        lan_world.run(6.0)
        check_view_agreement(handles.values())


class TestVirtualSynchrony:
    def test_detects_divergent_delivery(self):
        v1, v2 = view(1, A, B), view(2, A, B)
        ha = handle_with_views(A, v1)
        delivered(ha, A, b"m1", v1)
        ha.view_history.append(v2)  # completed v1
        hb = handle_with_views(B, v1)
        hb.view_history.append(v2)  # completed v1 without delivering m1
        with pytest.raises(VerificationError):
            check_virtual_synchrony([ha, hb])

    def test_violation_says_where_each_differing_message_went(self):
        v1, v2 = view(1, A, B, C), view(2, A, B, C)
        logs = {addr: handle_with_views(addr, v1, v2) for addr in (A, B, C)}
        for addr, handle in logs.items():
            delivered(handle, A, b"both", v1)
            # "crossed" is delivered by all three, but b logs it a view late.
            delivered(handle, A, b"crossed", v2 if addr == B else v1)
        delivered(logs[A], C, b"lost", v1)  # only a ever delivers this one
        with pytest.raises(VerificationError) as exc:
            check_virtual_synchrony(logs.values())
        at_b, at_c = exc.value.violations
        assert at_b == (
            "view v1@a:0: b:0 vs a:0: "
            "from a:0 0 extra, 1 missing: "
            "b'crossed' delivered everywhere: v1@a:0 at a:0, c:0, v2@a:0 at b:0 | "
            "from c:0 0 extra, 1 missing: "
            "b'lost' not delivered at b:0, c:0: v1@a:0 at a:0"
        )
        assert "b'crossed'" not in at_c and "b'lost' not delivered at" in at_c

    def test_crashed_member_exempt(self):
        v1, v2 = view(1, A, B), view(2, A)
        ha = handle_with_views(A, v1, v2)
        delivered(ha, A, b"m1", v1)
        hb = handle_with_views(B, v1)  # never completed v1 (crashed)
        check_virtual_synchrony([ha, hb])

    def test_real_crash_run_passes(self, lan_world):
        handles = join_group(lan_world, ["a", "b", "c", "d"], "MBRSHIP:FRAG:NAK:COM")
        for i in range(10):
            handles["d"].cast(f"d{i}".encode())
        lan_world.run(0.01)
        lan_world.crash("d")
        lan_world.run(8.0)
        check_virtual_synchrony([handles[n] for n in "abc"])
        check_view_agreement([handles[n] for n in "abc"])

    def test_partitioned_evs_run_passes(self):
        world = World(seed=11, network="lan")
        handles = join_group(
            world, ["a", "b", "c", "d", "e"],
            "MBRSHIP(partition='evs'):FRAG:NAK:COM",
        )
        world.partition({"a", "b", "c"}, {"d", "e"})
        handles["a"].cast(b"maj")
        handles["d"].cast(b"min")
        world.run(6.0)
        check_virtual_synchrony(handles.values())
        check_view_synchrony_relacs(handles.values())


class TestRelacs:
    def test_detects_overlapping_concurrent_views(self):
        va = View(group=G, view_id=ViewId(3, A), members=(A, B))
        vb = View(group=G, view_id=ViewId(3, B), members=(B, C))
        with pytest.raises(VerificationError):
            check_view_synchrony_relacs(
                [handle_with_views(A, va), handle_with_views(C, vb)]
            )


class TestTotalOrderChecker:
    def test_detects_order_divergence(self):
        v1 = view(1, A, B)
        ha = handle_with_views(A, v1)
        hb = handle_with_views(B, v1)
        delivered(ha, A, b"x", v1)
        delivered(ha, B, b"y", v1)
        delivered(hb, B, b"y", v1)
        delivered(hb, A, b"x", v1)
        with pytest.raises(VerificationError):
            check_total_order([ha, hb])

    def test_prefix_is_allowed(self):
        v1 = view(1, A, B)
        ha = handle_with_views(A, v1)
        hb = handle_with_views(B, v1)
        delivered(ha, A, b"x", v1)
        delivered(ha, B, b"y", v1)
        delivered(hb, A, b"x", v1)  # shorter but consistent
        check_total_order([ha, hb])

    def test_real_total_run_passes(self, lan_world):
        handles = join_group(lan_world, ["a", "b", "c"], "TOTAL:MBRSHIP:FRAG:NAK:COM")
        for i in range(6):
            handles["a"].cast(f"a{i}".encode())
            handles["c"].cast(f"c{i}".encode())
        lan_world.run(4.0)
        check_total_order(handles.values())


class TestCausalChecker:
    def test_detects_causal_violation(self):
        v1 = view(1, A, B)
        h = handle_with_views(C, v1)
        h.delivery_log.append(
            DeliveredMessage(data=b"reply", source=B, was_cast=True, view=v1,
                             info={"vc": {A: 1, B: 1}})
        )
        h.delivery_log.append(
            DeliveredMessage(data=b"request", source=A, was_cast=True, view=v1,
                             info={"vc": {A: 1}})
        )
        with pytest.raises(VerificationError):
            check_causal_order([h])


class TestTraceSpecs:
    def test_view_epoch_monotone_catches_regression(self):
        trace = TraceRecorder()
        trace.record(1.0, "view", "a:0", vid=3)
        trace.record(2.0, "view", "a:0", vid=2)
        with pytest.raises(VerificationError):
            check_trace(trace, [ViewEpochMonotoneSpec()])

    def test_crash_silence_catches_zombie(self):
        trace = TraceRecorder()
        trace.record(1.0, "crash", "a")
        trace.record(2.0, "deliver", "a:0", seq=1)
        with pytest.raises(VerificationError):
            check_trace(trace, [CrashSilenceSpec()])

    def test_delivery_gapless_catches_hole(self):
        trace = TraceRecorder()
        trace.record(1.0, "deliver", "b:0", layer="MBRSHIP", origin="a:0",
                     seq=1, vid=1)
        trace.record(2.0, "deliver", "b:0", layer="MBRSHIP", origin="a:0",
                     seq=3, vid=1)
        with pytest.raises(VerificationError):
            check_trace(trace, [DeliveryGaplessSpec()])

    def test_real_run_satisfies_all_specs(self, lan_world):
        handles = join_group(lan_world, ["a", "b", "c"], "MBRSHIP:FRAG:NAK:COM")
        for i in range(5):
            handles["a"].cast(f"m{i}".encode())
        lan_world.run(2.0)
        lan_world.crash("c")
        lan_world.run(6.0)
        names = check_trace(
            lan_world.trace,
            [ViewEpochMonotoneSpec(), CrashSilenceSpec(), DeliveryGaplessSpec()],
        )
        assert len(names) == 3


class TestRandomFaultSchedules:
    """Property-style: virtual synchrony holds across random crash
    schedules (the hypothesis-driven analogue of Section 8's goal)."""

    @pytest.mark.parametrize("seed", [1, 7, 23, 99])
    def test_vs_under_random_crashes(self, seed):
        import random as stdlib_random

        rng = stdlib_random.Random(seed)
        world = World(seed=seed, network="lan")
        names = ["a", "b", "c", "d", "e"]
        handles = join_group(world, names, "MBRSHIP:FRAG:NAK:COM")
        alive = list(names)
        for round_no in range(3):
            sender = rng.choice(alive)
            for i in range(rng.randrange(1, 5)):
                handles[sender].cast(f"r{round_no}m{i}-{sender}".encode())
            world.run(rng.uniform(0.0, 0.3))
            if len(alive) > 2 and rng.random() < 0.7:
                victim = rng.choice(alive[1:])
                alive.remove(victim)
                world.crash(victim)
            world.run(rng.uniform(3.0, 5.0))
        world.run(6.0)
        survivors = [handles[n] for n in alive]
        check_view_agreement(survivors)
        check_virtual_synchrony(survivors)
        views = {(h.view.view_id, h.view.members) for h in survivors}
        assert len(views) == 1

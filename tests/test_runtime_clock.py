"""The Clock seam: one interface, two substrates.

Covers the contract both implementations promise — deterministic
same-deadline ordering, non-reentrant call_soon, lazy cancellation —
plus the realtime engine's own behaviours (wall-clock now, clamping of
past deadlines, exception containment in the pump).
"""

from __future__ import annotations

import pytest

from repro.core.process import GuardedScheduler, World
from repro.runtime.clock import Clock, PeriodicTimer, Timer
from repro.runtime.engine import RealtimeEngine
from repro.sim.scheduler import Scheduler


@pytest.fixture
def engine():
    eng = RealtimeEngine()
    yield eng
    eng.close()


class TestClockInterface:
    def test_scheduler_is_a_clock(self):
        assert isinstance(Scheduler(), Clock)

    def test_engine_is_a_clock(self, engine):
        assert isinstance(engine, Clock)

    def test_guarded_scheduler_quacks_like_a_clock(self):
        world = World(seed=0)
        guarded = world.process("p").guarded_scheduler
        assert isinstance(guarded, GuardedScheduler)
        for attr in ("now", "call_at", "call_after", "call_soon"):
            assert hasattr(guarded, attr)


class TestRealtimeEngine:
    def test_now_advances_with_wall_clock(self, engine):
        t0 = engine.now
        engine.run_for(0.02)
        assert engine.now >= t0 + 0.015

    def test_call_after_fires_in_order(self, engine):
        fired = []
        engine.call_after(0.02, fired.append, "late")
        engine.call_after(0.005, fired.append, "early")
        engine.run_for(0.05)
        assert fired == ["early", "late"]
        assert engine.events_executed == 2

    def test_same_deadline_fires_in_scheduling_order(self, engine):
        # asyncio's raw timer heap does not promise FIFO for equal
        # deadlines; the engine's own (time, seq) heap must.
        fired = []
        deadline = engine.now + 0.01
        for i in range(20):
            engine.call_at(deadline, fired.append, i)
        engine.run_for(0.04)
        assert fired == list(range(20))

    def test_call_soon_runs_after_queued_peers(self, engine):
        fired = []
        engine.call_soon(fired.append, 1)
        engine.call_soon(fired.append, 2)
        engine.run_for(0.02)
        assert fired == [1, 2]

    def test_past_deadline_clamps_instead_of_raising(self, engine):
        fired = []
        engine.call_at(engine.now - 5.0, fired.append, "late-work")
        engine.run_for(0.02)
        assert fired == ["late-work"]

    def test_cancel_prevents_firing(self, engine):
        fired = []
        handle = engine.call_after(0.005, fired.append, "no")
        engine.call_after(0.005, fired.append, "yes")
        Clock.cancel(handle)
        engine.run_for(0.03)
        assert fired == ["yes"]
        assert engine.pending() == 0

    def test_callback_exception_does_not_stop_the_pump(self, engine):
        engine.loop.set_exception_handler(lambda loop, ctx: None)
        fired = []

        def boom():
            raise RuntimeError("kaboom")

        deadline = engine.now + 0.005
        engine.call_at(deadline, boom)
        engine.call_at(deadline, fired.append, "survived")
        engine.run_for(0.03)
        assert fired == ["survived"]
        assert engine.callback_errors == 1

    def test_run_until_predicate(self, engine):
        fired = []
        engine.call_after(0.02, fired.append, "x")
        assert engine.run_until(lambda: bool(fired), timeout=1.0) is True
        assert engine.run_until(lambda: False, timeout=0.02) is False

    def test_not_reentrant(self, engine):
        errors = []

        def reenter():
            try:
                engine.run_for(0.001)
            except RuntimeError as exc:
                errors.append(exc)

        engine.call_soon(reenter)
        engine.run_for(0.02)
        assert len(errors) == 1


class TestTimersOnTheEngine:
    """The exact timer objects every layer uses, ticking wall-clock."""

    def test_one_shot_timer(self, engine):
        fired = []
        timer = Timer(engine, 0.01, fired.append, "t")
        timer.start()
        assert timer.armed
        engine.run_for(0.03)
        assert fired == ["t"]
        assert not timer.armed

    def test_one_shot_restart_supersedes(self, engine):
        fired = []
        timer = Timer(engine, 0.01, fired.append, "t")
        timer.start()
        timer.start(0.03)  # re-arm: old deadline must not fire
        engine.run_for(0.02)
        assert fired == []
        engine.run_for(0.03)
        assert fired == ["t"]

    def test_periodic_timer(self, engine):
        timer = PeriodicTimer(engine, 0.01, lambda: None)
        timer.start(immediate=True)
        engine.run_for(0.045)
        timer.stop()
        assert timer.fired >= 3
        fired_at_stop = timer.fired
        engine.run_for(0.02)
        assert timer.fired == fired_at_stop

"""Unit tests for one-shot and periodic timers."""

from repro.sim.scheduler import Scheduler
from repro.runtime.clock import PeriodicTimer, Timer


def test_one_shot_fires_once():
    sched = Scheduler()
    fired = []
    timer = Timer(sched, 1.0, fired.append, "x")
    timer.start()
    sched.run()
    assert fired == ["x"]


def test_one_shot_restart_supersedes():
    sched = Scheduler()
    fired = []
    timer = Timer(sched, 1.0, lambda: fired.append(sched.now))
    timer.start()
    sched.run(until=0.5)
    timer.start()  # re-arm at t=0.5; should fire at 1.5, not 1.0
    sched.run()
    assert fired == [1.5]


def test_one_shot_cancel():
    sched = Scheduler()
    fired = []
    timer = Timer(sched, 1.0, fired.append, "x")
    timer.start()
    timer.cancel()
    sched.run()
    assert fired == []
    assert not timer.armed


def test_one_shot_interval_override():
    sched = Scheduler()
    fired = []
    timer = Timer(sched, 1.0, lambda: fired.append(sched.now))
    timer.start(interval=0.25)
    sched.run()
    assert fired == [0.25]


def test_armed_property():
    sched = Scheduler()
    timer = Timer(sched, 1.0, lambda: None)
    assert not timer.armed
    timer.start()
    assert timer.armed
    sched.run()
    assert not timer.armed


def test_periodic_fires_repeatedly():
    sched = Scheduler()
    times = []
    timer = PeriodicTimer(sched, 1.0, lambda: times.append(sched.now))
    timer.start()
    sched.run(until=3.5)
    timer.stop()
    assert times == [1.0, 2.0, 3.0]
    assert timer.fired == 3


def test_periodic_immediate_start():
    sched = Scheduler()
    times = []
    timer = PeriodicTimer(sched, 1.0, lambda: times.append(sched.now))
    timer.start(immediate=True)
    sched.run(until=2.5)
    timer.stop()
    assert times == [0.0, 1.0, 2.0]


def test_periodic_stop_from_callback():
    sched = Scheduler()
    times = []

    def once():
        times.append(sched.now)
        timer.stop()

    timer = PeriodicTimer(sched, 1.0, once)
    timer.start()
    sched.run()
    assert times == [1.0]


def test_periodic_stop_is_idempotent():
    sched = Scheduler()
    timer = PeriodicTimer(sched, 1.0, lambda: None)
    timer.start()
    timer.stop()
    timer.stop()
    sched.run()
    assert timer.fired == 0


def test_periodic_restart_resets_phase():
    sched = Scheduler()
    times = []
    timer = PeriodicTimer(sched, 1.0, lambda: times.append(sched.now))
    timer.start()
    sched.run(until=0.75)
    timer.start()  # restart at t=0.75: next fire at 1.75
    sched.run(until=2.0)
    timer.stop()
    assert times == [1.75]

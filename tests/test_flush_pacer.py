"""The one flush-deadline rule under both batchers, on virtual time.

``net.coalesce.Coalescer`` and ``store.writer.WalWriter`` share
``runtime.clock.FlushPacer``: a batch that starts while its device has
been quiet for ``max_delay`` leaves at the end of the current turn, one
that starts sooner leaves at ``last flush + max_delay``.  The DES makes
every instant exact, so these are equalities; the wall-clock side of the
same rule is ``tests/test_runtime_clock.py::TestTimerResolution``.
"""

from __future__ import annotations

import pytest

from repro import World
from repro.core.headers import DEFAULT_REGISTRY
from repro.layers.nak import _DATA_M
from repro.net.address import EndpointAddress
from repro.net.coalesce import Coalescer, decode_batch
from repro.obs import MetricsRegistry
from repro.sim.scheduler import Scheduler
from repro.store import DurabilityPolicy, MemoryBackend
from repro.store.wal import scan
from repro.store.writer import WalWriter

from conftest import manual_destinations

MAX_DELAY = 0.002
A = EndpointAddress("a", 0)
B = EndpointAddress("b", 0)
WAL = "wal.log"


class _CoalescerRig:
    """A Coalescer over a recording wire; one destination, 8 B payloads."""

    mtu = 1500

    def __init__(self, clock, max_items):
        self.clock = clock
        self.log = []
        self.entered = []
        self.flushes = []  # (instant, payloads in the datagram)
        self.batcher = Coalescer(self, clock, max_delay=MAX_DELAY, max_batch=max_items)

    def unicast(self, source, dest, payload):  # the wire under the coalescer
        subs = decode_batch(payload)
        self.flushes.append((self.clock.now, len(subs) if subs else 1))
        self.log.append("flush")

    def put(self):
        self.entered.append(self.clock.now)
        self.batcher.unicast(A, B, b"x" * 8)

    def force(self):
        self.batcher.flush(("u", A, (B,)))

    def deadline_flushes(self):
        return self.batcher.flushes_idle, self.batcher.flushes_paced


class _WalRig:
    """A group-commit WalWriter over a memory backend; records each fsync."""

    def __init__(self, clock, max_items):
        self.clock = clock
        self.log = []
        self.entered = []
        self.flushes = []  # (instant, records under the fsync)
        self.tickets = []
        self.backend = MemoryBackend()
        self.metrics = MetricsRegistry()
        policy = DurabilityPolicy(
            mode="group", max_delay=MAX_DELAY, max_batch_records=max_items
        )
        self.batcher = WalWriter(
            self.backend, WAL, policy, clock=clock, metrics=self.metrics
        )
        self.batcher.fault_hook = self._after_sync

    def _after_sync(self, phase, records, nbytes):
        if phase == "after_sync":
            self.flushes.append((self.clock.now, records))
            self.log.append("flush")

    def put(self):
        self.entered.append(self.clock.now)
        self.tickets.append(self.batcher.append(b"r%d" % len(self.tickets)))

    def force(self):
        self.batcher.flush()

    def triggers(self):
        family = self.metrics.get("store_flush_batches_total")
        return {s.labels["trigger"]: s.value for s in family.series()}

    def deadline_flushes(self):
        triggers = self.triggers()
        return triggers.get("idle", 0), triggers.get("paced", 0)


@pytest.fixture
def clock():
    return Scheduler()


@pytest.fixture(params=[_CoalescerRig, _WalRig], ids=["coalescer", "wal"])
def make_rig(request, clock):
    return lambda max_items=1000: request.param(clock, max_items)


class TestBothBatchers:
    def test_first_item_after_quiet_leaves_at_the_end_of_its_turn(self, clock, make_rig):
        rig = make_rig()

        def producer():
            rig.log.append("producer in")
            rig.put()
            rig.put()
            rig.log.append("producer out")

        clock.call_at(1.0, producer)
        clock.call_at(1.0, rig.log.append, "queued peer")
        clock.run()
        # Same instant, but behind the producing event and everything
        # already queued at that instant: whatever they add shares it.
        assert rig.log == ["producer in", "producer out", "queued peer", "flush"]
        assert rig.flushes == [(1.0, 2)]
        assert rig.deadline_flushes() == (1, 0)

    def test_item_soon_after_a_flush_leaves_one_max_delay_after_it(self, clock, make_rig):
        rig = make_rig()
        clock.call_at(1.0, rig.put)
        clock.call_at(1.0 + 0.3 * MAX_DELAY, rig.put)
        clock.call_at(1.0 + 0.6 * MAX_DELAY, rig.put)
        quiet_again = (1.0 + MAX_DELAY) + MAX_DELAY  # exactly max_delay later
        clock.call_at(quiet_again, rig.put)
        clock.run()
        assert rig.flushes == [
            (1.0, 1), (1.0 + MAX_DELAY, 2), (quiet_again, 1),
        ]
        assert rig.deadline_flushes() == (2, 1)

    def test_steady_stream_is_flushed_at_most_once_per_max_delay(self, clock, make_rig):
        rig = make_rig()
        span, step = 200 * MAX_DELAY, MAX_DELAY / 3.7
        for i in range(int(span / step)):
            clock.call_at(1.0 + i * step, rig.put)
        clock.run()
        assert sum(rig.deadline_flushes()) == len(rig.flushes) <= span / MAX_DELAY + 1
        instants = [at for at, _ in rig.flushes]
        assert all(b >= a + MAX_DELAY for a, b in zip(instants, instants[1:]))
        left = [at for at, items in rig.flushes for _ in range(items)]
        assert len(left) == len(rig.entered)
        assert max(out - into for into, out in zip(rig.entered, left)) <= MAX_DELAY
        # Under load the batches are what a timer from the last flush gives.
        assert {items for _, items in rig.flushes[1:-1]} <= {3, 4}

    def test_forced_flushes_restart_the_spacing(self, clock, make_rig):
        rig = make_rig(max_items=3)

        def fill():
            rig.log.append("fill in")
            for _ in range(3):
                rig.put()  # the third hits the size trigger
            rig.log.append("fill out")

        def put_and_force():
            rig.put()
            rig.force()

        clock.call_at(1.0, fill)
        clock.call_at(1.0 + 0.5 * MAX_DELAY, rig.put)
        clock.call_at(2.0, put_and_force)
        clock.call_at(2.0 + 0.5 * MAX_DELAY, rig.put)
        clock.run()
        assert rig.log[:3] == ["fill in", "flush", "fill out"]  # inline, as ever
        assert rig.flushes == [
            (1.0, 3), (1.0 + MAX_DELAY, 1), (2.0, 1), (2.0 + MAX_DELAY, 1),
        ]
        # Neither forced flush left a live deadline behind to fire too.
        assert rig.deadline_flushes() == (0, 2)


class TestCoalescerOnly:
    def test_a_frag_train_is_one_datagram(self):
        world = World(
            seed=5, network="lan", trace=False,
            coalesce={"max_delay": MAX_DELAY, "max_batch": 32},
        )
        handles = {
            name: world.process(name).endpoint().join(
                "grp", stack="FRAG(max_size=100):NAK:COM"
            )
            for name in "ab"
        }
        manual_destinations(handles)
        world.run(0.9)  # NAK's last status round is far more than max_delay ago
        stats, coalescer = world.network.inner.stats, world.network
        sent = stats.packets_sent
        payloads = []
        multicast = coalescer.inner.multicast
        coalescer.inner.multicast = (
            lambda source, dests, payload: (payloads.append(payload),
                                            multicast(source, dests, payload))
        )
        handles["a"].cast(b"f" * 500)
        assert stats.packets_sent == sent  # not inside the cast ...
        world.run(0.0)                     # ... at the end of its turn
        assert stats.packets_sent == sent + 1
        # The five fragments are one FRAG run: a single payload whose one
        # NAK data header numbers all five (seq .. hi).
        (payload,) = payloads
        nak = dict(DEFAULT_REGISTRY.unmarshal(payload).headers())["NAK"]
        assert (nak["kind"], nak["hi"] - nak["seq"] + 1) == (_DATA_M, 5)
        world.run(1.0)
        assert [d.data for d in handles["b"].delivery_log] == [b"f" * 500]


class TestWalWriterOnly:
    def test_wait_restarts_the_spacing_and_timer_is_gone(self, clock):
        rig = _WalRig(clock, 1000)

        def put_and_wait():
            rig.put()
            assert rig.tickets[-1].wait()

        clock.call_at(1.0, put_and_wait)
        clock.call_at(1.0 + 0.5 * MAX_DELAY, rig.put)
        clock.call_at(3.0, rig.put)
        clock.run()
        assert rig.flushes == [(1.0, 1), (1.0 + MAX_DELAY, 1), (3.0, 1)]
        assert rig.triggers() == {"wait": 1, "paced": 1, "idle": 1}

    def test_crash_before_the_end_of_the_turn_loses_the_record(self, clock):
        rig = _WalRig(clock, 1000)

        def append_then_crash():
            rig.put()
            assert rig.batcher.discard_pending() == 1

        clock.call_at(1.0, append_then_crash)
        clock.call_at(1.0 + 0.5 * MAX_DELAY, rig.put)
        clock.run()
        lost, kept = rig.tickets
        assert not lost.done() and kept.done()
        # Nothing was flushed at 1.0, so the next record found a quiet
        # disk; the log holds it alone, a clean prefix of what completed.
        assert rig.flushes == [(1.0 + 0.5 * MAX_DELAY, 1)]
        assert scan(rig.backend.read(WAL)).records == [b"r1"]

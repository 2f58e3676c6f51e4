"""NAK's status goes out only when it is news, within stated bounds.

A member that multicast data since the last status tick, and no subset
data, skips that tick's status (its data carried its high-water mark),
but never more than ``H - 1`` ticks in a row, ``H = max(1,
floor(problem_timeout / (2 * status_period)))``.  The previous era's
status goes out only while some view member has not been heard in the
current era.  A destination outside the view gets a USTATUS while it
is not gone: for ``H`` ticks after the last subset send to it, and for
as long as it has been heard from within ``problem_timeout``.  Every
test here runs on the DES over a 1 ms path and checks one bound that
skipping must keep.
"""

from repro import FaultModel, World
from repro.core.events import Downcall, DowncallType
from repro.core.headers import DEFAULT_REGISTRY
from repro.layers.nak import _DATA_M, _DATA_U, _STATUS, _USTATUS

from conftest import manual_destinations

PATH = 0.001  # one-way delay, no loss
PERIOD, NAK_DELAY, TIMEOUT = 0.25, 0.02, 1.5  # NAK's defaults
H = 3  # max(1, floor(TIMEOUT / (2 * PERIOD)))
#: A status's, the NAK's and the retransmission's trips.
TRIPS = 3 * PATH


class Rig:
    """a, b, c on ``stack`` (NAK:COM by default) over a clean 1 ms path.

    ``wire`` holds every datagram as ``(time, source, dest, kind,
    era)``; each predicate in ``drops`` over ``(source, dest, kind)``
    drops the first datagram it matches, and ``dropped`` records the
    time each one fired.  ``arrived`` maps ``(member, body)`` to the
    time it was first delivered."""

    def __init__(self, monkeypatch, view="abc", stack="NAK:COM"):
        self.world = World(seed=5, network="lan",
                           fault_model=FaultModel(base_delay=PATH))
        self.problems, self.arrived = [], {}
        self.handles = {
            n: self.world.process(n).endpoint().join(
                "grp", stack=stack,
                on_message=lambda d, n=n: self.arrived.setdefault(
                    (n, d.data), self.world.now),
                on_problem=lambda peer, n=n: self.problems.append(
                    (self.world.now, n, peer.node)),
            )
            for n in "abc"
        }
        manual_destinations({n: self.handles[n] for n in view})
        self.wire, self.drops, self.dropped = [], [], []
        unicast = self.world.network.unicast
        layer = stack.split(":")[0]

        def recorded(source, dest, data):
            nak = dict(DEFAULT_REGISTRY.unmarshal(data).headers()).get(layer)
            if nak is None:  # an NNAK stack's cast: not sequenced
                unicast(source, dest, data)
                return
            key = (source.node, dest.node, nak["kind"])
            self.wire.append((self.world.now, *key, nak.get("era", 0)))
            for drop in self.drops:
                if drop(*key):
                    self.drops.remove(drop)
                    self.dropped.append(self.world.now)
                    return
            unicast(source, dest, data)

        monkeypatch.setattr(self.world.network, "unicast", recorded)
        self.world.run(0.3)

    def address(self, name):
        return self.handles[name].endpoint_address

    def delivered(self, name, data):
        return (name, data) in self.arrived

    def count(self, since, source, dest=None, kind=_STATUS, era=None):
        return sum(
            1 for t, s, d, k, e in self.wire
            if t >= since and s == source and k == kind
            and dest in (None, d) and era in (None, e)
        )

    def cast_for(self, name, seconds, gap=0.01):
        """``name`` casts every ``gap`` s for ``seconds``: an active sender."""
        for i in range(round(seconds / gap)):
            self.handles[name].cast(b"m%04d" % i)
            self.world.run(gap)


class TestActiveSenderSkipsItsStatus:
    def test_a_sender_that_keeps_casting_sends_one_status_every_h_ticks(
            self, monkeypatch):
        rig = Rig(monkeypatch)
        start = rig.world.now
        rig.cast_for("a", 3.0)
        ticks = round(3.0 / PERIOD)
        statuses = rig.count(start, "a", "b")
        assert ticks // H <= statuses <= ticks // H + 1
        # A quiet member still sends on every tick.
        assert rig.count(start, "c", "b") in (ticks, ticks + 1)

    def test_the_last_cast_before_going_quiet_is_recovered_within_the_bound(
            self, monkeypatch):
        rig = Rig(monkeypatch)
        rig.cast_for("a", 1.0)
        rig.drops.append(lambda s, d, k: (s, d, k) == ("a", "b", _DATA_M))
        rig.handles["a"].cast(b"last")
        sent_at = rig.world.now
        assert rig.dropped == [sent_at]
        rig.world.run(2.0)
        # The tick after the cast may be skipped (a was active), the one
        # after that is not; then the gap timer and three trips.
        waited = rig.arrived["b", b"last"] - sent_at
        assert PERIOD < waited <= 2 * PERIOD + NAK_DELAY + TRIPS
        assert rig.delivered("c", b"last")

    def test_a_lost_status_carrying_a_unicast_mark_is_resent_within_h_periods(
            self, monkeypatch):
        rig = Rig(monkeypatch)
        rig.cast_for("a", 0.5)
        rig.drops.append(lambda s, d, k: (s, d, k) == ("a", "b", _DATA_U))
        rig.drops.append(lambda s, d, k: (s, d, k) == ("a", "b", _STATUS))
        rig.handles["a"].send([rig.address("b")], b"private")
        for i in range(200):  # a keeps casting until b has it
            if rig.delivered("b", b"private"):
                break
            rig.handles["a"].cast(b"n%04d" % i)
            rig.world.run(0.01)
        assert rig.delivered("b", b"private") and not rig.drops
        waited = rig.arrived["b", b"private"] - rig.dropped[1]
        # a's casts carry no unicast mark: b learns of it only from the
        # status a sends after skipping H - 1 ticks.
        assert (H - 1) * PERIOD < waited <= H * PERIOD + NAK_DELAY + TRIPS

    def test_a_crashed_active_sender_is_reported_within_the_bound(
            self, monkeypatch):
        rig = Rig(monkeypatch)
        rig.cast_for("a", 2.0)
        assert not rig.problems  # skipping never makes a live sender suspect
        crashed_at = rig.world.now
        rig.world.crash("a")
        rig.world.run(3.0)
        reports = {n: t for t, n, peer in rig.problems if peer == "a"}
        assert set(reports) == {"b", "c"}
        for at in reports.values():
            assert at - crashed_at <= TIMEOUT + PERIOD + PATH

    def test_an_active_sender_whose_data_never_arrives_is_not_suspected(
            self, monkeypatch):
        rig = Rig(monkeypatch)
        # Every multicast data datagram from a to b is lost, retransmits
        # included; a's status still reaches b every H periods.
        for _ in range(600):
            rig.drops.append(lambda s, d, k: (s, d, k) == ("a", "b", _DATA_M))
        rig.cast_for("a", 3.0, gap=0.02)
        assert not rig.problems


class TestPreviousEraStatus:
    def install(self, rig, names, epoch):
        members = [rig.address(n) for n in "abc"]
        for name in names:
            rig.handles[name].stack.down(Downcall(
                DowncallType.VIEW, members=members, extra={"epoch": epoch}))

    def test_only_a_straggler_in_the_old_era_is_sent_its_status(
            self, monkeypatch):
        rig = Rig(monkeypatch)
        rig.cast_for("a", 0.3)
        # a's last cast of era 0 is lost at c, and a and b move to era 1
        # before a's next status: only the old era's status reveals it.
        rig.drops.append(lambda s, d, k: (s, d, k) == ("a", "c", _DATA_M))
        rig.handles["a"].cast(b"tail")
        self.install(rig, "ab", epoch=1)
        moved_at = rig.world.now
        rig.world.run(1.0)
        assert rig.arrived["c", b"tail"] - moved_at <= PERIOD + NAK_DELAY + TRIPS
        # c is still in era 0: a keeps advertising it every tick.
        assert rig.count(moved_at, "a", "c", era=0) >= round(1.0 / PERIOD)
        self.install(rig, "c", epoch=1)
        rig.world.run(2 * PERIOD)  # c's first era-1 status reaches a and b
        settled = rig.world.now
        rig.world.run(2.0)
        assert rig.count(settled, "a", era=0) == 0
        assert rig.count(settled, "b", era=0) == 0
        assert rig.count(settled, "a", era=1) > 0


class TestUnicastStatus:
    def test_ustatus_to_a_crashed_destination_stops(self, monkeypatch):
        rig = Rig(monkeypatch)
        for name in "ab":
            rig.handles[name].send([rig.address("c")], b"to-c")
        rig.world.run(0.1)
        rig.world.crash("c")
        manual_destinations({n: rig.handles[n] for n in "ab"})
        crashed_at = rig.world.now
        # c's last status reached a and b within a period before the
        # crash; they advertise to it until it has been silent that long.
        rig.world.run(TIMEOUT + PERIOD + 0.1)
        early = {n: rig.count(crashed_at, n, "c", _USTATUS) for n in "ab"}
        assert all(H < sent <= TIMEOUT / PERIOD + 1 for sent in early.values())
        quiet_from = rig.world.now
        rig.world.run(5.0)
        for name in "ab":
            assert rig.count(quiet_from, name, "c", _USTATUS) == 0
        # The sequence state stays: a healed path resumes the stream.
        assert rig.handles["a"].focus("NAK")._usend_seq[rig.address("c")] == 1

    def test_a_live_destination_outside_the_view_learns_of_a_lost_unicast(
            self, monkeypatch):
        rig = Rig(monkeypatch)
        # a and b move on without c; c, alive, keeps casting its status
        # to its old view, so a hears it.
        manual_destinations({n: rig.handles[n] for n in "ab"})
        rig.world.run(0.5)
        lost = H + 2  # more USTATUS datagrams than the H-tick window
        rig.drops.append(lambda s, d, k: (s, d, k) == ("a", "c", _DATA_U))
        for _ in range(lost):
            rig.drops.append(lambda s, d, k: (s, d, k) == ("a", "c", _USTATUS))
        rig.handles["a"].send([rig.address("c")], b"private")
        sent_at = rig.world.now
        rig.world.run(5.0)
        assert not rig.drops and rig.delivered("c", b"private")
        waited = rig.arrived["c", b"private"] - sent_at
        assert waited <= (lost + 1) * PERIOD + NAK_DELAY + TRIPS

    def test_nnak_a_live_peer_learns_of_a_lost_unicast(self, monkeypatch):
        # NNAK has no status multicast: every mark goes by USTATUS.
        rig = Rig(monkeypatch, stack="NNAK:COM")
        lost = H + 2
        rig.drops.append(lambda s, d, k: (s, d, k) == ("a", "b", _DATA_U))
        for _ in range(lost):
            rig.drops.append(lambda s, d, k: (s, d, k) == ("a", "b", _USTATUS))
        rig.handles["a"].send([rig.address("b")], b"private")
        sent_at = rig.world.now
        for i in range(50):  # b keeps answering a: it is live
            rig.handles["b"].send([rig.address("a")], b"r%02d" % i)
            rig.world.run(0.1)
        assert not rig.drops and rig.delivered("b", b"private")
        waited = rig.arrived["b", b"private"] - sent_at
        assert waited <= (lost + 1) * PERIOD + NAK_DELAY + TRIPS

"""Integration tests for the MBRSHIP layer: virtual synchrony (Section 5)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import World
from repro.core.events import DowncallType, Upcall, UpcallType
from repro.core.layer import UP
from repro.core.message import Message
from repro.layers.mbrship import _DATA, _FLUSH, _FLUSH_OK, _INSTALL, _STABILITY
from repro.verify import check_view_agreement, check_virtual_synchrony

from conftest import join_group

STACK = "MBRSHIP:FRAG:NAK:COM"


def views_agree(handles, names=None):
    names = names or list(handles)
    views = {(handles[n].view.view_id, handles[n].view.members) for n in names}
    return len(views) == 1


class TestJoin:
    def test_first_member_gets_singleton_view(self, lan_world):
        handle = lan_world.process("a").endpoint().join("grp", stack=STACK)
        lan_world.run(0.5)
        assert handle.view is not None
        assert handle.view.members == (handle.endpoint_address,)

    def test_members_converge_on_same_view(self, lan_world):
        handles = join_group(lan_world, ["a", "b", "c", "d"], STACK)
        assert views_agree(handles)
        assert handles["a"].view.size == 4

    def test_age_order_by_join_time(self, lan_world):
        handles = join_group(lan_world, ["a", "b", "c"], STACK)
        members = handles["a"].view.members
        assert members[0] == handles["a"].endpoint_address
        assert members[1] == handles["b"].endpoint_address

    def test_view_history_is_monotone(self, lan_world):
        handles = join_group(lan_world, ["a", "b", "c"], STACK)
        for handle in handles.values():
            epochs = [v.view_id.epoch for v in handle.view_history]
            assert epochs == sorted(epochs)
            assert len(set(epochs)) == len(epochs)

    def test_concurrent_joins_converge(self):
        world = World(seed=21, network="lan")
        handles = {}
        for name in ["a", "b", "c", "d", "e"]:
            handles[name] = world.process(name).endpoint().join("grp", stack=STACK)
        world.run(6.0)
        assert views_agree(handles)
        assert handles["a"].view.size == 5


class TestMessaging:
    def test_cast_delivered_to_all_members(self, lan_world):
        handles = join_group(lan_world, ["a", "b", "c"], STACK)
        handles["b"].cast(b"hello")
        lan_world.run(1.0)
        for handle in handles.values():
            assert [m.data for m in handle.delivery_log] == [b"hello"]

    def test_per_source_fifo(self, lan_world):
        handles = join_group(lan_world, ["a", "b", "c"], STACK)
        for i in range(30):
            handles["a"].cast(f"a{i:02d}".encode())
            handles["b"].cast(f"b{i:02d}".encode())
        lan_world.run(3.0)
        for handle in handles.values():
            from_a = [m.data for m in handle.delivery_log if m.source.node == "a"]
            from_b = [m.data for m in handle.delivery_log if m.source.node == "b"]
            assert from_a == sorted(from_a)
            assert from_b == sorted(from_b)
            assert len(from_a) == len(from_b) == 30

    def test_casts_survive_lossy_network(self, lossy_world):
        handles = join_group(lossy_world, ["a", "b", "c"], STACK, final_settle=4.0)
        for i in range(40):
            handles["a"].cast(f"m{i:02d}".encode())
        lossy_world.run(20.0)
        for handle in handles.values():
            got = [m.data for m in handle.delivery_log]
            assert got == [f"m{i:02d}".encode() for i in range(40)]

    def test_subset_send_within_view(self, lan_world):
        handles = join_group(lan_world, ["a", "b", "c"], STACK)
        handles["a"].send([handles["c"].endpoint_address], b"psst")
        lan_world.run(1.0)
        assert [m.data for m in handles["c"].delivery_log] == [b"psst"]
        assert handles["b"].delivery_log == []


class TestCrash:
    def test_crash_removes_member(self, lan_world):
        handles = join_group(lan_world, ["a", "b", "c"], STACK)
        lan_world.crash("b")
        lan_world.run(6.0)
        for name in ("a", "c"):
            view = handles[name].view
            assert view.size == 2
            assert handles["b"].endpoint_address not in view.members
        assert views_agree(handles, ["a", "c"])

    def test_coordinator_crash_elects_next_oldest(self, lan_world):
        handles = join_group(lan_world, ["a", "b", "c"], STACK)
        lan_world.crash("a")  # a is the coordinator
        lan_world.run(6.0)
        for name in ("b", "c"):
            assert handles[name].view.coordinator == handles["b"].endpoint_address
        assert views_agree(handles, ["b", "c"])

    def test_figure2_partially_delivered_message_relayed(self, lan_world):
        """Figure 2: D's message M reached only C before D crashed; the
        flush must deliver M at every survivor before the new view."""
        handles = join_group(lan_world, ["a", "b", "c", "d"], STACK)
        lan_world.partition({"c", "d"}, {"a", "b"})
        handles["d"].cast(b"M")
        lan_world.run(0.05)  # M reaches C only
        lan_world.crash("d")
        lan_world.heal()
        lan_world.run(8.0)
        for name in ("a", "b", "c"):
            handle = handles[name]
            assert [m.data for m in handle.delivery_log] == [b"M"]
            assert handle.view.size == 3
        assert views_agree(handles, ["a", "b", "c"])
        survivors = [handles[n] for n in "abc"]
        check_view_agreement(survivors)
        check_virtual_synchrony(survivors)

    def test_virtual_synchrony_same_messages_before_view_change(self, lan_world):
        handles = join_group(lan_world, ["a", "b", "c", "d"], STACK)
        for i in range(10):
            handles["d"].cast(f"d{i}".encode())
        lan_world.run(0.01)  # messages still in flight
        lan_world.crash("d")
        lan_world.run(8.0)
        sets = {
            tuple(m.data for m in handles[n].delivery_log) for n in ("a", "b", "c")
        }
        assert len(sets) == 1  # identical delivery sequences per source

    def test_cascade_of_crashes(self, lan_world):
        handles = join_group(lan_world, ["a", "b", "c", "d", "e"], STACK)
        lan_world.crash("b")
        lan_world.run(0.5)
        lan_world.crash("c")
        lan_world.run(10.0)
        survivors = ["a", "d", "e"]
        for name in survivors:
            assert handles[name].view.size == 3
        assert views_agree(handles, survivors)

    def test_crash_during_flush_restarts(self, lan_world):
        handles = join_group(lan_world, ["a", "b", "c", "d"], STACK)
        lan_world.crash("d")
        lan_world.run(1.6)  # suspicion raised, flush under way
        lan_world.crash("a")  # coordinator dies mid-flush
        lan_world.run(10.0)
        for name in ("b", "c"):
            assert handles[name].view.size == 2
            assert handles[name].view.coordinator == handles["b"].endpoint_address
        assert views_agree(handles, ["b", "c"])

    def test_casts_during_view_change_are_queued_not_lost(self, lan_world):
        handles = join_group(lan_world, ["a", "b", "c"], STACK)
        lan_world.crash("c")
        lan_world.run(1.6)  # mid-flush
        handles["a"].cast(b"during-flush")
        lan_world.run(8.0)
        for name in ("a", "b"):
            assert b"during-flush" in [m.data for m in handles[name].delivery_log]

    def test_cast_made_by_the_delivery_that_completes_an_install(
            self, lan_world, monkeypatch):
        """Figure 2 again, with the coordinator's relay of M to B lost:
        B's install waits on M, and NAK's repair delivers it.  B's
        application casts from ``on_message`` for M.  That cast waits in
        the turn FIFO ahead of the VIEW downcall the same delivery
        queues, so it reaches MBRSHIP once the new view is installed.
        It must not get below ahead of the VIEW downcall: stamped with
        the new view but sequenced in NAK's old era, every member
        (B through loopback included) dropped it as stale."""
        from repro.core.headers import DEFAULT_REGISTRY

        handles = join_group(lan_world, ["a", "b", "c", "d"], STACK)
        a, b, d = (handles[n].endpoint_address for n in "abd")
        network, dropped = lan_world.network, []
        unicast = network.unicast

        def lose_relay_to_b(source, dest, data):
            if not dropped and (source, dest) == (a, b):
                headers = dict(DEFAULT_REGISTRY.unmarshal(data).headers())
                header = headers.get("MBRSHIP", {})
                if header.get("kind") == _DATA and header.get("origin") == d:
                    dropped.append(lan_world.now)
                    return
            unicast(source, dest, data)

        def cast_on_m(delivered):
            if delivered.data == b"M":
                handles["b"].cast(b"after M")

        monkeypatch.setattr(network, "unicast", lose_relay_to_b)
        handles["b"].on_message = cast_on_m
        lan_world.partition({"c", "d"}, {"a", "b"})
        handles["d"].cast(b"M")
        lan_world.run(0.05)  # M reaches C only
        lan_world.crash("d")
        lan_world.heal()
        lan_world.run(8.0)
        assert dropped
        survivors = [handles[n] for n in "abc"]
        for handle in survivors:
            assert [m.data for m in handle.delivery_log] == [b"M", b"after M"]
            assert handle.view.size == 3
        assert views_agree(handles, ["a", "b", "c"])
        check_virtual_synchrony(survivors)


class TestInstallMidRun:
    """NAK may deliver an INSTALL and what follows it in one run.  The
    VIEW downcall the install makes then waits in the turn FIFO, and the
    casts held through the view change go out behind it: never ahead of
    it, and never past a flush cut reported later in the same run."""

    @pytest.fixture
    def member(self, monkeypatch):
        """A member of view 7 whose coordinator is ``a``; what it passes
        below is recorded, not sent."""
        from repro.core.view import View, ViewId
        from repro.net.address import EndpointAddress

        world = World(seed=1, network="lan")
        handle = world.process("m").endpoint().join("grp", stack="MBRSHIP:COM")
        layer = handle.focus("MBRSHIP")
        coordinator = EndpointAddress("a", 0)
        members = [coordinator, layer.endpoint]
        layer.view = View(group=layer.group, view_id=ViewId(7, coordinator),
                          members=tuple(members))
        layer.state = "normal"
        below = []
        monkeypatch.setattr(layer.below, "down", below.append)

        def run(*headers):
            def deliver():
                for header in headers:
                    message = Message()
                    message.push_header("MBRSHIP", {
                        "failed": [], "joiners": [], "vector": {}, **header,
                        "origin": coordinator, "members": members})
                    layer.up(Upcall(UpcallType.SEND, message=message,
                                    source=coordinator))
            layer._turn.cross(deliver, UP)

        run({"kind": _FLUSH, "vid": 7, "round": 1})
        assert layer.state == "flushing"
        handle.cast(b"held")
        assert len(layer.queued_casts) == 1
        return layer, run, below, handle

    @staticmethod
    def _views_and_casts(below):
        out = []
        for downcall in below:
            if downcall.type is DowncallType.VIEW:
                out.append(("VIEW", downcall.extra["epoch"]))
            elif downcall.type is DowncallType.CAST:
                out.append(("CAST", downcall.message.peek_header("MBRSHIP")["vid"]))
        return out

    def test_a_flush_begun_in_the_same_run_keeps_the_casts(self, member):
        layer, run, below, _handle = member
        run({"kind": _INSTALL, "vid": 7, "new_vid": 8, "round": 1},
            {"kind": _FLUSH, "vid": 8, "round": 1})
        assert (layer.view.view_id.epoch, layer.state) == (8, "flushing")
        assert layer.my_seq == 0 and not layer.store
        assert len(layer.queued_casts) == 1
        assert self._views_and_casts(below) == [("VIEW", 8)]
        cuts = [d.message.peek_header("MBRSHIP")["vector"] for d in below
                if d.type is DowncallType.SEND
                and d.message.peek_header("MBRSHIP")["kind"] == _FLUSH_OK]
        assert cuts[-1] == {layer.endpoint: 0}

    def test_casts_go_out_behind_the_last_views_downcall(self, member):
        """Two installs in one run.  A cast made from ``on_view`` for the
        first waits in the turn FIFO between the first release callback
        and the second VIEW downcall: it must wait for the second."""
        layer, run, below, handle = member
        handle.on_view = lambda view: (
            handle.cast(b"on view 8") if view.view_id.epoch == 8 else None)
        run({"kind": _INSTALL, "vid": 7, "new_vid": 8, "round": 1},
            {"kind": _INSTALL, "vid": 8, "new_vid": 9, "round": 1})
        assert (layer.view.view_id.epoch, layer.state) == (9, "normal")
        assert layer.my_seq == 2 and not layer.queued_casts
        assert self._views_and_casts(below) == [
            ("VIEW", 8), ("VIEW", 9), ("CAST", 9), ("CAST", 9)]


class TestLeave:
    def test_graceful_leave_shrinks_view(self, lan_world):
        handles = join_group(lan_world, ["a", "b", "c"], STACK)
        handles["b"].leave()
        lan_world.run(4.0)
        assert handles["b"].left
        for name in ("a", "c"):
            assert handles[name].view.size == 2
            assert handles["b"].endpoint_address not in handles[name].view.members

    def test_coordinator_leave_hands_over(self, lan_world):
        handles = join_group(lan_world, ["a", "b", "c"], STACK)
        handles["a"].leave()
        lan_world.run(4.0)
        assert handles["a"].left
        for name in ("b", "c"):
            assert handles[name].view.coordinator == handles["b"].endpoint_address

    def test_last_member_leave(self, lan_world):
        handle = lan_world.process("a").endpoint().join("grp", stack=STACK)
        lan_world.run(0.5)
        handle.leave()
        lan_world.run(1.0)
        assert handle.left

    def test_rejoin_after_leave_uses_new_endpoint(self, lan_world):
        handles = join_group(lan_world, ["a", "b"], STACK)
        handles["b"].leave()
        lan_world.run(4.0)
        fresh = lan_world.process("b").endpoint().join("grp", stack=STACK)
        lan_world.run(4.0)
        assert fresh.view is not None
        assert fresh.view.size == 2
        assert handles["a"].view.members == fresh.view.members


class TestPartitions:
    def _partition_world(self, policy):
        world = World(seed=11, network="lan")
        handles = join_group(
            world, ["a", "b", "c", "d", "e"], f"MBRSHIP(partition='{policy}'):FRAG:NAK:COM"
        )
        world.partition({"a", "b", "c"}, {"d", "e"})
        world.run(5.0)
        return world, handles

    def test_evs_both_sides_progress(self):
        world, handles = self._partition_world("evs")
        assert {str(m) for m in handles["a"].view.members} == {"a:0", "b:0", "c:0"}
        assert {str(m) for m in handles["d"].view.members} == {"d:0", "e:0"}
        for n in "abcde":
            assert handles[n].focus("MBRSHIP").state == "normal"

    def test_primary_minority_blocks(self):
        world, handles = self._partition_world("primary")
        assert handles["a"].view.size == 3  # majority reconfigures
        assert handles["d"].focus("MBRSHIP").state == "blocked"
        assert handles["e"].focus("MBRSHIP").state == "blocked"

    def test_primary_minority_rejoins_after_heal(self):
        world, handles = self._partition_world("primary")
        world.heal()
        world.run(10.0)
        for n in "abcde":
            assert handles[n].view.size == 5
            assert handles[n].focus("MBRSHIP").state == "normal"
        assert views_agree(handles)

    def test_evs_manual_merge_after_heal(self):
        world, handles = self._partition_world("evs")
        world.heal()
        world.run(1.0)
        handles["d"].merge_with(handles["a"].endpoint_address)
        world.run(10.0)
        for n in "abcde":
            assert handles[n].view.size == 5
        assert views_agree(handles)

    def test_partition_scoped_delivery(self):
        world, handles = self._partition_world("evs")
        handles["a"].cast(b"majority")
        handles["d"].cast(b"minority")
        world.run(2.0)
        for n in "abc":
            assert [m.data for m in handles[n].delivery_log] == [b"majority"]
        for n in "de":
            assert [m.data for m in handles[n].delivery_log] == [b"minority"]

    def test_relacs_views_identical_or_disjoint(self):
        world, handles = self._partition_world("relacs")
        majority = {handles[n].view.members for n in "abc"}
        minority = {handles[n].view.members for n in "de"}
        assert len(majority) == 1 and len(minority) == 1
        assert not set(next(iter(majority))) & set(next(iter(minority)))


class TestStress:
    def test_churn_with_traffic_converges(self):
        world = World(seed=33, network="lan")
        handles = join_group(world, ["a", "b", "c", "d"], STACK)
        for i in range(10):
            handles["a"].cast(f"pre{i}".encode())
        world.run(1.0)
        world.crash("c")
        for i in range(10):
            handles["b"].cast(f"mid{i}".encode())
        world.run(8.0)
        joiner = world.process("e").endpoint().join("grp", stack=STACK)
        world.run(6.0)
        survivors = [handles["a"], handles["b"], handles["d"], joiner]
        views = {(h.view.view_id, h.view.members) for h in survivors}
        assert len(views) == 1
        # Traffic cast after the crash reached every survivor in order.
        for h in (handles["a"], handles["b"], handles["d"]):
            mid = [m.data for m in h.delivery_log if m.data.startswith(b"mid")]
            assert mid == [f"mid{i}".encode() for i in range(10)]


class TestThreeWayPartition:
    """A 6-member group split three ways, healed, and chain-merged."""

    def _split_world(self):
        world = World(seed=44, network="lan")
        handles = join_group(
            world, ["a", "b", "c", "d", "e", "f"],
            "MERGE(probe_period=0.5):MBRSHIP(partition='evs'):FRAG:NAK:COM",
        )
        world.partition({"a", "b"}, {"c", "d"}, {"e", "f"})
        world.run(6.0)
        return world, handles

    def test_three_components_each_progress(self):
        world, handles = self._split_world()
        for pair in (("a", "b"), ("c", "d"), ("e", "f")):
            views = {handles[n].view.members for n in pair}
            assert len(views) == 1
            assert handles[pair[0]].view.size == 2

    def test_components_chain_merge_after_heal(self):
        world, handles = self._split_world()
        world.heal()
        world.run(25.0)  # auto-merge probes chain the three back together
        views = {(handles[n].view.view_id, handles[n].view.members)
                 for n in "abcdef"}
        assert len(views) == 1
        assert handles["a"].view.size == 6
        check_view_agreement(handles.values())

    def test_messages_scoped_per_component_then_flow_after_merge(self):
        world, handles = self._split_world()
        handles["a"].cast(b"from-ab")
        handles["c"].cast(b"from-cd")
        handles["e"].cast(b"from-ef")
        world.run(2.0)
        assert [m.data for m in handles["b"].delivery_log] == [b"from-ab"]
        assert [m.data for m in handles["d"].delivery_log] == [b"from-cd"]
        assert [m.data for m in handles["f"].delivery_log] == [b"from-ef"]
        world.heal()
        world.run(25.0)
        handles["a"].cast(b"reunited")
        world.run(2.0)
        for n in "abcdef":
            assert handles[n].delivery_log[-1].data == b"reunited"


class TestStorePruning:
    """The relay store logs only unstable messages (Section 5's note)."""

    def test_long_lived_view_store_stays_bounded(self):
        world = World(seed=51, network="lan")
        handles = join_group(world, ["a", "b", "c"],
                             "MBRSHIP(stability_period=0.5):FRAG:NAK:COM")
        for batch in range(10):
            for i in range(20):
                handles["a"].cast(f"b{batch}i{i}".encode())
            world.run(2.0)  # several stability gossip rounds per batch
        layer = handles["b"].focus("MBRSHIP")
        assert layer.store_pruned > 100  # pruning really happened
        assert len(layer.store) < 100  # far below the 200 casts delivered
        # And delivery is still complete and ordered.
        got = [m.data for m in handles["c"].delivery_log]
        assert len(got) == 200

    def test_pruning_never_breaks_the_flush_guarantee(self):
        """Messages pruned as stable can never be needed by a relay: the
        Figure 2 scenario still holds after heavy pruning."""
        world = World(seed=52, network="lan")
        handles = join_group(world, ["a", "b", "c", "d"],
                             "MBRSHIP(stability_period=0.3):FRAG:NAK:COM")
        for i in range(50):
            handles["d"].cast(f"old{i}".encode())
        world.run(5.0)  # everything delivered and mostly pruned
        world.partition({"c", "d"}, {"a", "b"})
        handles["d"].cast(b"M")
        world.run(0.05)
        world.crash("d")
        world.heal()
        world.run(8.0)
        for name in ("a", "b", "c"):
            got = [m.data for m in handles[name].delivery_log]
            assert got[-1] == b"M"
            assert len(got) == 51
        check_virtual_synchrony([handles[n] for n in "abc"])


class TestStabilityGossip:
    """A member's delivery vector goes out as one cast per stability
    period, not as one send per member."""

    PERIOD = 0.25

    def test_one_cast_per_member_per_period_and_none_while_idle(
            self, monkeypatch):
        from repro import FaultModel
        from repro.layers.com import ComLayer

        world = World(seed=61, network="lan",
                      fault_model=FaultModel(base_delay=0.001))
        handles = join_group(
            world, [f"n{i}" for i in range(8)],
            f"MBRSHIP(stability_period={self.PERIOD}):FRAG:NAK:COM")
        assert all(h.view.size == 8 for h in handles.values())
        at_com = []  # (endpoint, time, COM entry point)

        def counting(entry):
            real = getattr(ComLayer, entry)

            def wrapper(layer, message, *args):
                header = dict(message.headers()).get("MBRSHIP", {})
                if header.get("kind") == _STABILITY:
                    at_com.append((layer.endpoint, layer.now, entry))
                real(layer, message, *args)
            return wrapper

        for entry in ("_cast", "_send"):
            monkeypatch.setattr(ComLayer, entry, counting(entry))
        world.run(2.0)
        assert at_com == []  # nobody has cast: every store is empty
        for handle in handles.values():
            for i in range(5):
                handle.cast(b"%d" % i)
        world.run(3.0)
        assert {entry for *_, entry in at_com} == {"_cast"}
        times = {}
        for endpoint, now, _ in at_com:
            times.setdefault(endpoint, []).append(now)
        assert len(times) >= 7  # a store emptied between ticks sends nothing
        for mine in times.values():
            assert all(b - a >= self.PERIOD - 1e-9 for a, b in zip(mine, mine[1:]))


def full_rebuild(members, me, delivered, my_seq, peer_vectors, store):
    """The store pruning this layer did until it kept per-origin floors:
    a full scan and rebuild on every call, kept here as the oracle."""
    vectors = []
    for member in members:
        if member == me:
            own = dict(delivered)
            own[me] = my_seq
            vectors.append(own)
        else:
            vector = peer_vectors.get(member)
            if vector is None:
                return dict(store)
            vectors.append(vector)
    stable = {origin: min(v.get(origin, 0) for v in vectors)
              for (origin, _seq) in store}
    return {(origin, seq): message for (origin, seq), message in store.items()
            if seq > stable.get(origin, 0)}


class TestIncrementalPruning:
    """``_prune_store`` pops only what its per-origin floors pass over,
    and leaves exactly the store the full rebuild leaves."""

    @settings(max_examples=150, deadline=None)
    @given(steps=st.lists(st.one_of(
        st.tuples(st.just("deliver"), st.integers(0, 3), st.integers(1, 4)),
        st.tuples(st.just("vector"), st.integers(1, 3),
                  st.lists(st.integers(0, 30), min_size=4, max_size=4)),
        st.tuples(st.just("partial"), st.integers(1, 3),
                  st.dictionaries(st.integers(0, 3), st.integers(0, 1 << 40))),
    ), max_size=40))
    def test_matches_the_full_rebuild_on_random_vectors(self, steps):
        from repro.core.view import View, ViewId
        from repro.net.address import EndpointAddress

        world = World(seed=1, network="lan")
        layer = world.process("m0").endpoint().join(
            "grp", stack="MBRSHIP:COM").focus("MBRSHIP")
        members = tuple(EndpointAddress(f"m{i}", 0) for i in range(4))
        me = layer.endpoint
        assert me == members[0]
        layer.view = View(group=layer.group, view_id=ViewId(7, me),
                          members=members)
        layer.delivered, layer.my_seq, layer.store = {}, 0, {}
        layer._peer_vectors, layer._pruned_to = {}, {}
        expected = {}
        for kind, who, values in steps:
            if kind == "deliver":  # ``values`` more from origin ``who``
                origin = members[who]
                for _ in range(values):
                    seq = layer.delivered.get(origin, 0) + 1
                    layer.delivered[origin] = seq
                    if origin == me:  # our own cast, looped back at once
                        layer.my_seq = seq
                    layer.store[(origin, seq)] = expected[(origin, seq)] = object()
            else:  # a peer's vector, whole or with origins missing
                if kind == "vector":
                    values = dict(enumerate(values))
                layer._peer_vectors[members[who]] = {
                    members[i]: count for i, count in values.items()}
            pruned = layer.store_pruned
            layer._prune_store()
            before = len(expected)
            expected = full_rebuild(members, me, layer.delivered, layer.my_seq,
                                    layer._peer_vectors, expected)
            assert layer.store == expected
            assert layer.store_pruned - pruned == before - len(expected)

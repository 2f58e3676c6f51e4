"""Tests for the routed WAN substrate (Figure 1's "routing" type)."""

import pytest

from repro import World
from repro.errors import ConfigurationError
from repro.net.address import EndpointAddress
from repro.net.wan import WanNetwork
from repro.sim.scheduler import Scheduler

from conftest import join_group


def three_site_wan(scheduler=None):
    """nyc -- chi -- sfo plus a slow direct nyc -- sfo backup link."""
    wan = WanNetwork(scheduler or Scheduler())
    for site in ("nyc", "chi", "sfo"):
        wan.add_site(site)
    wan.add_link("nyc", "chi", delay=0.010)
    wan.add_link("chi", "sfo", delay=0.020)
    wan.add_link("nyc", "sfo", delay=0.080)  # slow backup
    return wan


class TestTopology:
    def test_duplicate_site_rejected(self):
        wan = three_site_wan()
        with pytest.raises(ConfigurationError):
            wan.add_site("nyc")

    def test_link_to_unknown_site_rejected(self):
        wan = three_site_wan()
        with pytest.raises(ConfigurationError):
            wan.add_link("nyc", "lax")

    def test_route_prefers_low_latency_path(self):
        wan = three_site_wan()
        # nyc->sfo via chi costs 30ms; the direct link costs 80ms.
        assert wan.route("nyc", "sfo") == ["nyc", "chi", "sfo"]

    def test_route_same_site(self):
        wan = three_site_wan()
        assert wan.route("nyc", "nyc") == ["nyc"]

    def test_failover_to_backup_link(self):
        wan = three_site_wan()
        wan.fail_link("nyc", "chi")
        assert wan.route("nyc", "sfo") == ["nyc", "sfo"]
        wan.restore_link("nyc", "chi")
        assert wan.route("nyc", "sfo") == ["nyc", "chi", "sfo"]

    def test_no_route_when_all_links_down(self):
        wan = three_site_wan()
        wan.fail_link("nyc", "chi")
        wan.fail_link("nyc", "sfo")
        assert wan.route("nyc", "sfo") is None


class TestForwarding:
    def _pair(self):
        sched = Scheduler()
        wan = three_site_wan(sched)
        wan.place_node("a", "nyc")
        wan.place_node("b", "sfo")
        a, b = EndpointAddress("a", 0), EndpointAddress("b", 0)
        got = []
        wan.attach(a, lambda p: None)
        wan.attach(b, lambda p: got.append((sched.now, p)))
        return sched, wan, a, b, got

    def test_multi_hop_delivery_and_latency(self):
        """X-WAN: one-way latency grows with the hop count."""
        sched, wan, a, b, got = self._pair()
        wan.unicast(a, b, b"cross-country")
        sched.run()
        assert len(got) == 1
        arrival, packet = got[0]
        assert packet.payload == b"cross-country"
        assert 0.030 <= arrival <= 0.032  # 10ms + 20ms + local delivery
        assert wan.hops_forwarded == 2

        series = []
        for site in ("nyc", "chi", "sfo"):
            dest = EndpointAddress(f"at-{site}", 0)
            wan.place_node(dest.node, site)
            wan.attach(dest, lambda p: series.append(sched.now - start))
            start = sched.now
            wan.unicast(a, dest, b"x")
            sched.run()
        assert [round(t, 6) for t in series] == [0.00005, 0.01005, 0.03005]

    def test_link_failure_mid_simulation_reroutes(self):
        sched, wan, a, b, got = self._pair()
        wan.fail_link("chi", "sfo")
        wan.unicast(a, b, b"rerouted")
        sched.run()
        assert len(got) == 1
        assert got[0][0] >= 0.080  # took the slow backup

    def test_unplaced_node_raises(self):
        sched = Scheduler()
        wan = three_site_wan(sched)
        a = EndpointAddress("ghost", 0)
        wan.attach(a, lambda p: None)
        wan.place_node("other", "nyc")
        from repro.errors import AddressError

        with pytest.raises(AddressError):
            wan.unicast(a, EndpointAddress("other", 0), b"x")

    def test_total_disconnect_drops(self):
        sched, wan, a, b, got = self._pair()
        wan.fail_link("nyc", "chi")
        wan.fail_link("nyc", "sfo")
        wan.unicast(a, b, b"void")
        sched.run()
        assert got == []
        assert wan.no_route_drops == 1


class TestStacksOverWan:
    def _world(self):
        wan = three_site_wan()
        world = World(seed=3, network=wan)
        # The WAN was built with a placeholder scheduler; rebind it to
        # the world's so all delivery events share one timeline.
        wan.scheduler = world.scheduler
        for name, site in (("a", "nyc"), ("b", "chi"), ("c", "sfo")):
            wan.place_node(name, site)
        return world

    def test_virtual_synchrony_across_sites(self):
        world = self._world()
        handles = join_group(world, ["a", "b", "c"], "MBRSHIP:FRAG:NAK:COM",
                             settle=0.5, final_settle=3.0)
        views = {(h.view.view_id, h.view.members) for h in handles.values()}
        assert len(views) == 1
        handles["a"].cast(b"inter-site")
        world.run(2.0)
        for handle in handles.values():
            assert [m.data for m in handle.delivery_log] == [b"inter-site"]

    def test_link_cut_partitions_group_organically(self):
        """Cutting sfo's links partitions the group at the *topology*
        level; membership reacts exactly as with an injected partition."""
        world = self._world()
        wan = world.network
        handles = join_group(world, ["a", "b", "c"],
                             "MBRSHIP(partition='evs'):FRAG:NAK:COM",
                             settle=0.5, final_settle=3.0)
        wan.fail_link("chi", "sfo")
        wan.fail_link("nyc", "sfo")
        world.run(6.0)
        assert handles["a"].view.size == 2  # a,b carry on
        assert handles["c"].view.size == 1  # c alone in sfo
        wan.restore_link("chi", "sfo")
        wan.restore_link("nyc", "sfo")
        world.run(1.0)
        handles["c"].merge_with(handles["a"].endpoint_address)
        world.run(8.0)
        assert all(handles[n].view.size == 3 for n in "abc")

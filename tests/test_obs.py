"""The unified observability plane: registry, spans, exporters, report.

Covers the instrumentation API itself (metric families, label handling,
histogram math), the single HCPI seam that feeds it (a wrapper over
every layer's ``down``/``up``, installed only when a world observes),
and both export formats.  Substrate coverage: DES worlds here,
wall-clock span monotonicity under ``@pytest.mark.realtime``.
"""

from __future__ import annotations

import io
import json
import math
import random
from collections import Counter

import pytest

from repro import ObsOptions, StackConfig, World
from repro.core.layer import LayerContext
from repro.errors import ConfigurationError
from repro.net.address import EndpointAddress, GroupAddress
from repro.obs import (
    MetricsRegistry,
    SpanRecorder,
    read_jsonl,
    render_jsonl,
    render_layer_report,
    render_network_report,
)
from repro.obs.registry import Histogram

FULL_STACK = "TOTAL:MBRSHIP:FRAG:NAK:COM"


class CountingConfig(StackConfig):
    """Builds like :class:`StackConfig`, then counts every crossing its
    stacks' layers take from outside, by wrapping each layer's
    ``down``/``up`` after build as the benchmark harness's probes do."""

    def __init__(self, spec):
        super().__init__(spec=spec)
        self.counted = Counter()

    def build(self, context, deliver):
        stack = super().build(context, deliver)
        for layer in stack.layers:
            for direction in ("down", "up"):
                inner = getattr(layer, direction)
                setattr(layer, direction,
                        self._counting(layer, direction, inner))
        return stack

    def _counting(self, layer, direction, inner):
        key = (layer.name, direction)

        def crossing(event):
            if not layer.stopped:  # a stopped layer is not entered
                self.counted[key] += 1
            inner(event)

        return crossing


def exported_events(world):
    """``stack_layer_events_total`` as {(layer, direction): value}."""
    return {
        (s.labels["layer"], s.labels["direction"]): s.value
        for s in world.metrics.get("stack_layer_events_total").series()
    }


def run_observed_world(obs=None, casts=10, config=None):
    world = World(seed=11, network="lan", obs=obs)
    config = config or StackConfig(spec=FULL_STACK)
    handles = {}
    for name in ("a", "b"):
        handles[name] = world.process(name).endpoint().join("g", stack=config)
        world.run(0.5)
    world.run(2.0)
    for i in range(casts):
        handles["a"].cast(b"payload-%d" % i)
    world.run(3.0)
    return world, handles


# ----------------------------------------------------------------------
# MetricsRegistry
# ----------------------------------------------------------------------


class TestRegistry:
    def test_counter_inc_and_value(self):
        reg = MetricsRegistry()
        family = reg.counter("requests_total", "requests")
        family.inc()
        family.inc(4)
        assert family.value == 5

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        family = reg.counter("x_total", "x")
        with pytest.raises(ConfigurationError):
            family.inc(-1)

    def test_gauge_set_inc_dec(self):
        reg = MetricsRegistry()
        gauge = reg.gauge("depth", "queue depth")
        gauge.set(10)
        gauge.dec(3)
        gauge.inc(1)
        assert gauge.value == 8

    def test_labeled_series_are_independent(self):
        reg = MetricsRegistry()
        family = reg.counter("hits_total", "hits", labels=("layer",))
        family.labels(layer="NAK").inc(2)
        family.labels(layer="COM").inc(5)
        assert family.labels(layer="NAK").value == 2
        assert family.labels(layer="COM").value == 5

    def test_label_set_must_match_declaration(self):
        reg = MetricsRegistry()
        family = reg.counter("hits_total", "hits", labels=("layer",))
        with pytest.raises(ConfigurationError):
            family.labels(node="a")
        with pytest.raises(ConfigurationError):
            family.labels(layer="NAK", node="a")

    def test_redeclaration_is_idempotent_but_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        first = reg.counter("x_total", "x")
        again = reg.counter("x_total", "x")
        assert first is again
        with pytest.raises(ConfigurationError):
            reg.gauge("x_total", "x")

    def test_histogram_counts_sum_percentile(self):
        reg = MetricsRegistry()
        hist = reg.histogram("lat", "latency", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            hist.observe(value)
        values = hist._default().values()
        assert values["count"] == 5
        assert values["sum"] == pytest.approx(56.05)
        assert values["max"] == 50.0
        # The 50.0 sample lands in the overflow bucket.
        assert values["buckets"][-1][1] == 4
        assert hist._default().percentile(0) <= hist._default().percentile(100)

    def test_loopback_p50_is_within_ten_percent_of_the_exact_quantile(self):
        """TIME_BUCKETS is fine enough to be the one latency histogram:
        over loopback-range one-way latencies (tens to hundreds of µs,
        narrow to wide spreads) the interpolated p50 stays within 10 %
        of the exact sample median."""
        rng = random.Random(7)
        for median in (20e-6, 60e-6, 150e-6, 600e-6):
            for sigma in (0.1, 0.3, 0.6):
                samples = sorted(
                    rng.lognormvariate(math.log(median), sigma)
                    for _ in range(2001)
                )
                hist = Histogram({})
                for value in samples:
                    hist.observe(value)
                exact = samples[1000]
                assert abs(hist.percentile(50) - exact) <= 0.1 * exact

    def test_snapshot_is_sorted_and_json_able(self):
        reg = MetricsRegistry()
        reg.counter("b_total", "b").inc()
        reg.counter("a_total", "a").inc(2)
        snap = reg.snapshot()
        names = [record["name"] for record in snap]
        assert names == sorted(names)
        json.dumps(snap)  # must not raise


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------


class TestExporters:
    def make_registry(self):
        reg = MetricsRegistry()
        reg.counter("net_packets_sent_total", "sent",
                    labels=("component",)).labels(component="lan").inc(7)
        hist = reg.histogram("lat_seconds", "latency", buckets=(0.001, 0.1))
        hist.observe(0.0005)
        hist.observe(0.05)
        hist.observe(5.0)
        return reg

    def test_jsonl_roundtrip(self):
        reg = self.make_registry()
        text = render_jsonl(reg, meta={"seed": 1})
        snapshot = read_jsonl(io.StringIO(text))
        assert snapshot["meta"] == {"seed": 1}
        by_name = {
            (record["name"], tuple(sorted(record["labels"].items()))): record
            for record in snapshot["metrics"]
        }
        sent = by_name[("net_packets_sent_total", (("component", "lan"),))]
        assert sent["value"] == 7
        lat = by_name[("lat_seconds", ())]
        assert lat["count"] == 3

    def test_jsonl_rejects_garbage(self):
        with pytest.raises(ConfigurationError):
            read_jsonl(io.StringIO("not json\n"))
        with pytest.raises(ConfigurationError):
            read_jsonl(io.StringIO('{"kind":"mystery"}\n'))

    def test_an_export_runs_each_collector_once(self):
        reg = self.make_registry()
        gauge = reg.gauge("level", "collector-fed").labels()
        runs = []

        def collector():
            runs.append(1)
            gauge.set(len(runs))

        reg.add_collector(collector)
        reg.snapshot()
        assert len(runs) == 1
        snapshot = read_jsonl(io.StringIO(render_jsonl(reg)))
        level = [m for m in snapshot["metrics"] if m["name"] == "level"]
        assert len(runs) == 2 and level[0]["value"] == 2
        render_jsonl(reg)
        assert len(runs) == 3
        # A direct family read still reconciles first.
        assert reg.get("level").series()[0].value == 4

    def test_removed_collector_stops_running(self):
        reg = MetricsRegistry()
        runs = []

        def collector():
            runs.append(1)

        reg.add_collector(collector)
        reg.remove_collector(collector)
        reg.remove_collector(collector)  # already gone: a no-op
        reg.snapshot()
        assert runs == []


class TestCollectorLifecycle:
    """A stack's collectors — its layers' own — leave the registry when
    the stack stops; its observer's counts stay exact across the stop."""

    @pytest.mark.parametrize("obs", [None, ObsOptions.full()])
    def test_join_leave_churn_leaves_no_collectors_behind(self, obs):
        world = World(seed=5, network="lan", obs=obs)
        stack = "CREDIT:MBRSHIP:FRAG:NAK:COM"
        anchor = world.process("anchor").endpoint().join("g", stack=stack)
        world.run(0.5)
        registered = len(world.metrics._collectors)
        assert registered >= 1  # the anchor's CREDIT levels
        for cycle in range(50):
            handle = world.process(f"m{cycle}").endpoint().join(
                "g", stack=stack
            )
            world.run(0.5)
            assert len(handle.view.members) == 2
            assert len(world.metrics._collectors) > registered
            handle.leave()
            world.run(0.5)
            assert handle.left
        assert len(anchor.view.members) == 1
        assert len(world.metrics._collectors) == registered

    def test_event_counts_stay_exact_when_a_member_leaves_mid_traffic(self):
        # The leaver's stack stops inside its EXIT upcall, mid-turn, and
        # traffic sent before the view change still reaches it later.
        # A stopped layer is neither entered nor counted, so what the
        # stack exported by its stop is final.
        world = World(seed=5, network="lan", obs=ObsOptions.full())
        config = CountingConfig("CREDIT:MBRSHIP:FRAG:NAK:COM")
        handles = []
        for name in ("a", "b", "c"):
            handles.append(
                world.process(name).endpoint().join("g", stack=config)
            )
            world.run(0.5)
        world.run(1.0)
        a, b, leaver = handles
        assert len(leaver.view.members) == 3
        after_exit = []
        deliver = leaver.stack.deliver_from_network

        def watch(upcall):
            if leaver.left:
                after_exit.append(upcall)
            deliver(upcall)

        leaver.stack.deliver_from_network = watch
        for i in range(10):
            a.cast(b"a%d" % i)
            b.cast(b"b%d" % i)
        leaver.leave()
        for i in range(50):
            a.cast(b"a-late%d" % i)
            b.cast(b"b-late%d" % i)
            world.run(0.002)
        world.run(2.0)
        assert leaver.left and len(a.view.members) == 2
        assert after_exit  # the stopped stack was reached after its exit
        exported = exported_events(world)
        assert set(config.counted) <= set(exported)
        assert exported == {key: config.counted[key] for key in exported}


# ----------------------------------------------------------------------
# The HCPI seam
# ----------------------------------------------------------------------


class TestLayerSeam:
    def test_off_by_default(self):
        world, _ = run_observed_world(obs=None)
        names = [family.name for family in world.metrics.families()]
        assert not any(name.startswith("stack_") for name in names)
        assert len(world.spans) == 0
        # Network counters are registry-backed regardless.
        assert any(name.startswith("net_") for name in names)

    def test_layer_metrics_cover_every_layer_both_directions(self):
        world, handles = run_observed_world(obs=ObsOptions.full())
        events = world.metrics.get("stack_layer_events_total")
        seen = {
            (series.labels["layer"], series.labels["direction"])
            for series in events.series()
        }
        for layer in ("TOTAL", "MBRSHIP", "FRAG", "NAK", "COM"):
            assert (layer, "down") in seen
            assert (layer, "up") in seen

    def test_nothing_is_installed_with_observation_off(self):
        world, handles = run_observed_world(obs=None)
        for handle in handles.values():
            assert handle.stack.observer is None
            for layer in handle.stack.layers:
                # A crossing is the class's own down/up: a plain call.
                assert "down" not in vars(layer)
                assert "up" not in vars(layer)

    def test_event_counts_match_crossings_counted_from_outside(self):
        config = CountingConfig(FULL_STACK)
        world, _ = run_observed_world(obs=ObsOptions.full(), config=config)
        exported = exported_events(world)
        # Two stacks share each (layer, direction) series.
        assert set(exported) == {
            (layer, direction)
            for layer in FULL_STACK.split(":") for direction in ("down", "up")
        }
        assert exported == {key: config.counted[key] for key in exported}
        assert sum(exported.values()) > 0

    def test_spans_record_nested_traversals(self):
        world, handles = run_observed_world(obs=ObsOptions.full(), casts=3)
        spans = world.spans.spans()
        assert spans
        # TOTAL holds a cast until the end of the turn: the application's
        # traversal ends in TOTAL, and the release is a traversal of its
        # own from the layer below.
        down_casts = [
            [event.layer for event in span.events]
            for span in spans if span.direction == "down" and span.kind == "CAST"
        ]
        assert ["TOTAL"] in down_casts
        down_casts = [
            span for span in spans
            if span.direction == "down" and span.kind == "CAST"
            and len(span.events) >= 4
        ]
        assert down_casts
        span = down_casts[0]
        layers = [event.layer for event in span.events]
        assert layers[:4] == ["MBRSHIP", "FRAG", "NAK", "COM"]
        # Nesting: every event fits inside the span, self-times sum to
        # no more than the full traversal.
        for event in span.events:
            assert span.started <= event.enter <= event.exit <= span.finished
        assert sum(e.self_time for e in span.events) <= (
            span.duration + 1e-9
        )

    def test_span_header_depths_grow_downward(self):
        world, _ = run_observed_world(obs=ObsOptions.full(), casts=3)
        span = next(
            s for s in world.spans.spans()
            if s.direction == "down" and s.kind == "CAST" and len(s.events) >= 4
        )
        com = next(e for e in span.events if e.layer == "COM")
        assert com.depth_in >= span.events[0].depth_in

    def test_header_bytes_counted_both_ways(self):
        world, _ = run_observed_world(obs=ObsOptions.full(), casts=10)
        hdr = world.metrics.get("stack_header_bytes_total")
        pushed = sum(
            s.value for s in hdr.series() if s.labels["direction"] == "down"
        )
        popped = sum(
            s.value for s in hdr.series() if s.labels["direction"] == "up"
        )
        assert pushed > 0
        assert popped > 0

    def test_span_recorder_bound_evicts_oldest(self):
        recorder = SpanRecorder(max_spans=4)
        from repro.obs import MessageSpan

        for i in range(10):
            recorder.add(MessageSpan(recorder.new_id(), "e", "g", "CAST",
                                     "down", float(i)))
        assert len(recorder) == 4
        assert recorder.recorded == 10
        assert [span.started for span in recorder.spans()] == [6.0, 7.0, 8.0, 9.0]

    def test_sampling_keeps_counts_exact_and_thins_the_spans(self):
        """``sample=N`` observes one traversal in N in detail; what it
        *counts* — layer events, traversals — stays exact."""
        def observe(obs):
            world, _ = run_observed_world(obs=obs, casts=40)

            def series(name):
                return {
                    tuple(sorted(s.labels.items())): s.value
                    for s in world.metrics.get(name).series()
                }

            return (series("stack_layer_events_total"),
                    series("stack_spans_total"), world.spans.recorded)

        events, traversals, spans = observe(
            ObsOptions(layer_metrics=True, spans=True))
        sampled = ObsOptions.production(sample=4)
        assert sampled == ObsOptions(layer_metrics=True, spans=True, sample=4)
        sampled_events, sampled_traversals, sampled_spans = observe(sampled)
        assert sampled_events == events
        assert sampled_traversals == traversals
        assert spans == sum(traversals.values())  # sample=1 records them all
        assert 0.2 * spans <= sampled_spans <= 0.3 * spans

    def test_context_obs_decides_what_a_stack_observes(self):
        world = World(seed=13, network="lan")  # observation off
        context = LayerContext(
            scheduler=world.scheduler,
            network=world.network,
            endpoint=EndpointAddress("a", 0),
            group=GroupAddress("g"),
            rng=world.rng.stream("test"),
            trace=world.trace,
            metrics=world.metrics,
            obs=ObsOptions(layer_metrics=True),
        )
        stack = StackConfig(spec="NAK:COM").build(context, lambda upcall: None)
        assert stack.observer is not None
        # Every events series exists from install on, before traffic.
        assert set(exported_events(world)) == {
            (layer, direction)
            for layer in ("NAK", "COM") for direction in ("down", "up")
        }
        assert world.metrics.get("stack_spans_total") is not None


# ----------------------------------------------------------------------
# Report rendering + CLI
# ----------------------------------------------------------------------


class TestReport:
    def snapshot(self, tmp_path, obs=ObsOptions.full()):
        world, _ = run_observed_world(obs=obs)
        path = str(tmp_path / "snap.jsonl")
        world.write_metrics(path, meta={"test": "obs"})
        return path

    def test_layer_report_contains_every_layer(self, tmp_path):
        snapshot = read_jsonl(self.snapshot(tmp_path))
        report = render_layer_report(snapshot)
        for layer in ("TOTAL", "MBRSHIP", "FRAG", "NAK", "COM"):
            assert layer in report
        assert "TOTAL (all layers)" in report
        assert "test=obs" in report

    def test_layer_report_without_instrumentation_is_explicit(self, tmp_path):
        snapshot = read_jsonl(self.snapshot(tmp_path, obs=None))
        with pytest.raises(ConfigurationError) as exc:
            render_layer_report(snapshot)
        assert "layer_metrics" in str(exc.value)

    def test_network_report_lists_components(self, tmp_path):
        snapshot = read_jsonl(self.snapshot(tmp_path, obs=None))
        report = render_network_report(snapshot)
        assert "net_packets_sent_total" in report
        assert "component=lan" in report

    def test_cli_obs_report(self, tmp_path, capsys):
        from repro.__main__ import main

        path = self.snapshot(tmp_path)
        assert main(["obs-report", path, "--network"]) == 0
        out = capsys.readouterr().out
        assert "NAK" in out
        assert "net_packets_sent_total" in out

    def test_cli_obs_report_missing_file(self, tmp_path, capsys):
        from repro.__main__ import main

        assert main(["obs-report", str(tmp_path / "nope.jsonl")]) == 2


# ----------------------------------------------------------------------
# Stats views
# ----------------------------------------------------------------------


class TestStatsViews:
    def test_network_stats_attributes_read_through_registry(self):
        world, _ = run_observed_world()
        stats = world.network.stats
        sent_attr = stats.packets_sent
        sent_metric = (
            world.metrics.get("net_packets_sent_total")
            .labels(component="lan").value
        )
        assert sent_attr == sent_metric > 0
        assert stats.per_node_sent.get("a", 0) > 0
        assert stats.as_dict()["packets_sent"] == sent_attr

    def test_rebind_carries_values(self):
        from repro.net.network import Network
        from repro.sim.scheduler import Scheduler
        from repro.net.address import EndpointAddress

        sched = Scheduler()
        net = Network(sched)
        a, b = EndpointAddress("a", 0), EndpointAddress("b", 0)
        net.attach(a, lambda p: None)
        net.attach(b, lambda p: None)
        net.unicast(a, b, b"hello")
        sched.run_until_idle()
        before = net.stats.as_dict()
        assert before["packets_sent"] == 1

        shared = MetricsRegistry()
        net.stats.rebind(shared)
        assert net.stats.as_dict() == before
        assert (
            shared.get("net_packets_sent_total")
            .labels(component="net").value == 1
        )
        # New traffic lands in the new registry.
        net.unicast(a, b, b"again")
        sched.run_until_idle()
        assert net.stats.packets_sent == 2

    def test_world_adopts_prebuilt_network_counters(self):
        from repro.net.lan import LanNetwork
        from repro.sim.scheduler import Scheduler

        # A pre-built network starts on a private registry ...
        world = World(seed=21, network="lan")
        assert isinstance(world.network, LanNetwork)
        # ... and a world built around an instance rebinds it.
        sched_world = World(seed=22)
        net = LanNetwork(sched_world.scheduler)
        adopted = World(seed=22, network=net)
        assert net.stats.registry is adopted.metrics

"""The substrate seam, end to end over real OS UDP sockets.

The satellite integration test from the runtime issue: RealtimeEngine
endpoints join a group over UdpTransport and exchange totally ordered
multicasts, with zero changes inside any protocol layer.  Everything
here moves real datagrams over loopback, hence the ``realtime`` marker.
"""

from __future__ import annotations

import pytest

from repro.errors import NetworkError, PacketTooLargeError
from repro.net.address import EndpointAddress
from repro.runtime.engine import RealtimeEngine
from repro.runtime.transport import UdpTransport, decode_frame, encode_frame
from repro.runtime.world import RealtimeWorld

pytestmark = pytest.mark.realtime

#: Section 7 stack with test-speed membership timers.
STACK = (
    "TOTAL:MBRSHIP(join_timeout=0.2,stability_period=0.25)"
    ":FRAG(max_size=700):NAK:COM"
)


def settle_two_members(world, ga, gb, timeout=8.0):
    ok = world.run_while(
        lambda: ga.view is not None and ga.view.size == 2
        and gb.view is not None and gb.view.size == 2,
        timeout=timeout,
    )
    assert ok, f"views never settled: {ga.view} / {gb.view}"


class TestFrameCodec:
    def test_roundtrip(self):
        src = EndpointAddress("alice", 3)
        dst = EndpointAddress("bob", 0)
        frame = encode_frame(src, dst, b"payload bytes", 123.456)
        out_src, out_dst, sent_at, payload = decode_frame(frame)
        assert (out_src, out_dst, payload) == (src, dst, b"payload bytes")
        assert sent_at == pytest.approx(123.456)
        # magic, timestamp, two address lengths; nothing else.
        fixed = 4 + 8 + 2 + 2
        assert frame[:4] == b"HRS3"
        assert len(frame) == fixed + len(src.marshal()) + len(dst.marshal()) + 13

    def test_a_frame_of_another_layout_is_refused(self):
        frame = encode_frame(EndpointAddress("a", 1), EndpointAddress("b", 2),
                             b"x", 1.0)
        with pytest.raises(NetworkError):
            decode_frame(b"HRS2" + frame[4:])

    def test_malformed_frames_are_counted_not_raised(self):
        engine = RealtimeEngine()
        try:
            transport = UdpTransport(engine)
            transport._on_datagram(b"")
            transport._on_datagram(b"NOPE" + b"\x00" * 32)
            assert transport.stats.packets_undecodable == 2
            assert transport.stats.packets_delivered == 0
        finally:
            engine.close()


class TestLoopbackGroup:
    def test_totally_ordered_multicast_over_real_udp(self):
        with RealtimeWorld(seed=3, mtu=1400) as world:
            ga = world.process("a").endpoint().join("grp", stack=STACK)
            gb = world.process("b").endpoint().join("grp", stack=STACK)
            settle_two_members(world, ga, gb)

            # Concurrent casts from both members: TOTAL must impose one
            # agreed order, identical at every member.
            for i in range(5):
                ga.cast(f"a{i}".encode())
                gb.cast(f"b{i}".encode())
            ok = world.run_while(
                lambda: len(ga.delivery_log) >= 10 and len(gb.delivery_log) >= 10,
                timeout=8.0,
            )
            assert ok, (len(ga.delivery_log), len(gb.delivery_log))

            seq_a = [(d.source, d.data) for d in ga.delivery_log]
            seq_b = [(d.source, d.data) for d in gb.delivery_log]
            assert seq_a == seq_b
            totals = [d.info.get("total_seq") for d in ga.delivery_log]
            assert totals == sorted(totals)
            # Per-source FIFO inside the total order.
            for node in ("a", "b"):
                from_node = [d for s, d in seq_a if s.node == node]
                assert from_node == sorted(from_node)

    def test_fragmentation_is_exercised_for_real(self):
        with RealtimeWorld(seed=4, mtu=1400) as world:
            ga = world.process("a").endpoint().join("grp", stack=STACK)
            gb = world.process("b").endpoint().join("grp", stack=STACK)
            settle_two_members(world, ga, gb)
            sent_before = world.stats.packets_sent

            big = bytes(range(256)) * 12  # 3072 B ≫ FRAG max_size of 700
            ga.cast(big)
            ok = world.run_while(
                lambda: any(d.data == big for d in gb.delivery_log), timeout=8.0
            )
            assert ok
            # The message cannot have crossed in one datagram.
            assert world.stats.packets_sent - sent_before >= 4

    def test_metrics_mirror_network_stats(self):
        with RealtimeWorld(seed=5) as world:
            ga = world.process("a").endpoint().join("grp", stack=STACK)
            gb = world.process("b").endpoint().join("grp", stack=STACK)
            settle_two_members(world, ga, gb)
            ga.cast(b"ping")
            world.run_while(lambda: len(gb.delivery_log) >= 1, timeout=8.0)

            stats = world.stats
            assert stats.packets_sent > 0
            assert stats.packets_delivered > 0
            assert stats.bytes_delivered > 0
            assert stats.per_node_sent.get("a", 0) > 0
            hist = stats.latency
            assert hist.count == stats.packets_delivered
            assert 0.0 <= hist.percentile(50) <= hist.percentile(99)
            assert hist.max < 5.0  # loopback, not a WAN

    def test_oversize_payload_refused_like_the_simulated_network(self):
        with RealtimeWorld(seed=6, mtu=256) as world:
            world.process("a")
            world.add_peer("b", "127.0.0.1", 1)
            with pytest.raises(PacketTooLargeError):
                world.network.unicast(
                    EndpointAddress("a", 0), EndpointAddress("b", 0), b"x" * 300
                )


class TestTwoEnginesTwoWorlds:
    """The real deployment shape: one engine per world, as in separate
    OS processes, cooperating over loopback sockets (driven alternately
    here so the test stays in one process)."""

    def test_join_and_exchange_across_worlds(self):
        anchor = EndpointAddress("a", 0)
        wa = RealtimeWorld(seed=1)
        wb = RealtimeWorld(seed=2)
        try:
            wa.process("a")
            wb.process("b")
            host_a = wa.network.peers["a"]
            host_b = wb.network.peers["b"]
            wa.add_peer("b", *host_b)
            wb.add_peer("a", *host_a)
            wa.seed_group("grp", [anchor])
            wb.seed_group("grp", [anchor])

            ga = wa.process("a").endpoint().join("grp", stack=STACK)
            gb = wb.process("b").endpoint().join("grp", stack=STACK)

            def run_both(predicate, timeout):
                deadline = wa.now + timeout
                while not predicate() and wa.now < deadline:
                    wa.run(0.02)
                    wb.run(0.02)
                return predicate()

            assert run_both(
                lambda: ga.view is not None and ga.view.size == 2
                and gb.view is not None and gb.view.size == 2,
                timeout=10.0,
            ), f"views never settled: {ga.view} / {gb.view}"

            ga.cast(b"from engine A")
            gb.cast(b"from engine B")
            assert run_both(
                lambda: len(ga.delivery_log) >= 2 and len(gb.delivery_log) >= 2,
                timeout=10.0,
            )
            assert [(d.source, d.data) for d in ga.delivery_log] == [
                (d.source, d.data) for d in gb.delivery_log
            ]
        finally:
            wa.close()
            wb.close()


class TestRealtimeObservability:
    """The observability plane on the wall-clock substrate."""

    def test_spans_are_monotone_in_wall_time(self):
        from repro.obs import ObsOptions

        with RealtimeWorld(seed=9, obs=ObsOptions.full()) as world:
            ga = world.process("a").endpoint().join("grp", stack=STACK)
            gb = world.process("b").endpoint().join("grp", stack=STACK)
            settle_two_members(world, ga, gb)
            for i in range(5):
                ga.cast(b"tick-%d" % i)
            world.run_while(lambda: len(gb.delivery_log) >= 5, timeout=8.0)

            spans = world.spans.spans()
            assert spans, "realtime run recorded no spans"
            for span in spans:
                assert span.finished >= span.started
                previous_enter = span.started
                for event in span.events:
                    # Within one span, entries advance monotonically and
                    # every crossing nests inside the traversal.
                    assert event.enter >= previous_enter
                    assert event.exit >= event.enter
                    assert span.started <= event.enter
                    assert event.exit <= span.finished
                    assert event.self_time >= 0.0
                    previous_enter = event.enter

    def test_layer_self_time_is_nonzero_on_wall_clock(self):
        from repro.obs import ObsOptions

        with RealtimeWorld(seed=10, obs=ObsOptions.full()) as world:
            ga = world.process("a").endpoint().join("grp", stack=STACK)
            gb = world.process("b").endpoint().join("grp", stack=STACK)
            settle_two_members(world, ga, gb)
            for i in range(20):
                ga.cast(b"x" * 200)
            world.run_while(lambda: len(gb.delivery_log) >= 20, timeout=8.0)

            family = world.metrics.get("stack_layer_self_seconds")
            total = sum(series.values()["sum"] for series in family.series())
            # Virtual time stands still inside a DES layer call; wall
            # time does not.
            assert total > 0.0

    def test_transport_latency_feeds_registry_histogram(self):
        from repro.obs import ObsOptions

        with RealtimeWorld(seed=11, obs=ObsOptions.off()) as world:
            ga = world.process("a").endpoint().join("grp", stack=STACK)
            gb = world.process("b").endpoint().join("grp", stack=STACK)
            settle_two_members(world, ga, gb)
            ga.cast(b"ping")
            world.run_while(lambda: len(gb.delivery_log) >= 1, timeout=8.0)

            hist = (
                world.metrics.get("transport_latency_seconds")
                .labels(component="udp-os")
            )
            assert hist is world.stats.latency and hist.count > 0

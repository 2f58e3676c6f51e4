"""Edge-case and adversarial-input tests across the stack."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import FaultModel, World, known_layers
from repro.core.headers import DEFAULT_REGISTRY
from repro.errors import HeaderError

# The fuzz tests marshal NAK/COM headers directly; loading the layer
# library registers their codecs with the default registry.
known_layers()

from conftest import drain, join_group, manual_destinations


class TestUnmarshalFuzz:
    """The wire decoder must reject arbitrary garbage cleanly — no
    hangs, no exceptions other than HeaderError (Section 2's garbling
    threat model, below any checksum layer)."""

    @given(data=st.binary(max_size=512))
    @settings(max_examples=300, deadline=None)
    def test_random_bytes_never_crash_decoder(self, data):
        try:
            DEFAULT_REGISTRY.unmarshal(data)
        except HeaderError:
            pass  # rejection is the expected outcome

    @given(
        flip_at=st.integers(min_value=0, max_value=200),
        xor=st.integers(min_value=1, max_value=255),
    )
    @settings(max_examples=200, deadline=None)
    def test_single_byte_corruption_never_crashes_decoder(self, flip_at, xor):
        from repro.core.message import Message
        from repro.net.address import EndpointAddress, GroupAddress

        message = Message(b"payload-bytes")
        message.push_header("NAK", {"kind": 0, "era": 1, "seq": 9})
        message.push_header(
            "COM",
            {"group": GroupAddress("g"), "source": EndpointAddress("n", 0),
             "kind": 0},
        )
        data = DEFAULT_REGISTRY.marshal(message)
        index = flip_at % len(data)
        corrupted = data[:index] + bytes([data[index] ^ xor]) + data[index + 1:]
        try:
            DEFAULT_REGISTRY.unmarshal(corrupted)
        except HeaderError:
            pass


class TestNakWindowEviction:
    @pytest.mark.parametrize("path", ["cast", "send"])
    def test_eviction_produces_lost_message_not_hang(self, path):
        """A receiver NAK-ing past the sender's tiny buffer gets GONE
        placeholders and LOST_MESSAGE upcalls — the paper's exact
        fallback — rather than retransmissions that cannot come, in the
        multicast and the unicast sequence space alike."""
        world = World(
            seed=19,
            network="udp",
            fault_model=FaultModel(base_delay=0.004, loss_rate=0.25),
        )
        a = world.process("a").endpoint()
        b = world.process("b").endpoint()
        ha = a.join("grp", stack="NAK(window=4):COM")
        hb = b.join("grp", stack="NAK(window=4):COM")
        members = [ha.endpoint_address, hb.endpoint_address]
        ha.set_destinations(members)
        hb.set_destinations(members)
        world.run(0.3)
        for i in range(120):
            payload = f"m{i:03d}".encode()
            if path == "cast":
                ha.cast(payload)
            else:
                ha.send([hb.endpoint_address], payload)
        world.run(30.0)
        nak_b = hb.focus("NAK")
        received = [m.data for m in hb.delivery_log]
        # Whatever arrived is still in FIFO order; holes became
        # LOST_MESSAGE reports instead of stalling the stream.
        assert received == sorted(received)
        assert nak_b.lost_reported > 0
        assert len(received) + nak_b.lost_reported >= 100

    def test_stream_keeps_flowing_after_losses(self):
        world = World(
            seed=20,
            network="udp",
            fault_model=FaultModel(base_delay=0.004, loss_rate=0.3),
        )
        a = world.process("a").endpoint()
        b = world.process("b").endpoint()
        ha = a.join("grp", stack="NAK(window=2):COM")
        hb = b.join("grp", stack="NAK(window=2):COM")
        members = [ha.endpoint_address, hb.endpoint_address]
        ha.set_destinations(members)
        hb.set_destinations(members)
        world.run(0.3)
        for i in range(60):
            ha.cast(f"x{i:02d}".encode())
            world.run(0.05)
        world.run(10.0)
        # The tail of the stream still arrives despite earlier evictions.
        assert hb.delivery_log and hb.delivery_log[-1].data == b"x59"


class TestCausalUnderLoss:
    def test_causality_survives_lossy_network(self, lossy_world):
        handles = join_group(
            lossy_world, ["a", "b", "c"],
            "CAUSAL:CAUSAL_TS:MBRSHIP:FRAG:NAK:COM",
            settle=1.0, final_settle=4.0,
        )

        def reply(delivered):
            if delivered.data == b"ping":
                handles["b"].cast(b"pong")

        handles["b"].on_message = reply
        handles["a"].cast(b"ping")
        lossy_world.run(10.0)
        for name in ("a", "c"):
            data = [m.data for m in handles[name].delivery_log]
            assert b"ping" in data and b"pong" in data
            assert data.index(b"ping") < data.index(b"pong")
        from repro.verify import check_causal_order

        check_causal_order(handles.values())


class TestEmptyAndOddPayloads:
    def test_empty_cast_body(self, lan_world):
        handles = join_group(lan_world, ["a", "b"], "MBRSHIP:FRAG:NAK:COM")
        handles["a"].cast(b"")
        lan_world.run(1.0)
        assert [m.data for m in handles["b"].delivery_log] == [b""]

    def test_binary_payload_with_wire_magic(self, lan_world):
        """Bodies containing the wire format's own magic bytes must not
        confuse framing."""
        handles = join_group(lan_world, ["a", "b"], "MBRSHIP:FRAG:NAK:COM")
        evil = b"\x48\x52" * 50 + bytes(range(256))
        handles["a"].cast(evil)
        lan_world.run(1.0)
        assert [m.data for m in handles["b"].delivery_log] == [evil]

    def test_payload_exactly_at_network_mtu_boundary(self):
        world = World(seed=25, network="lan", mtu=600)
        handles = {}
        for name in ("a", "b"):
            handles[name] = world.process(name).endpoint().join(
                "grp", stack="MBRSHIP:FRAG(max_size=256):NAK:COM"
            )
            world.run(0.4)
        world.run(2.0)
        payload = b"z" * 4096
        handles["a"].cast(payload)
        world.run(2.0)
        assert [m.data for m in handles["b"].delivery_log] == [payload]

    def test_oversized_unfragmented_payload_raises(self):
        from repro.errors import PacketTooLargeError

        world = World(seed=26, network="lan", mtu=400)
        a = world.process("a").endpoint()
        b = world.process("b").endpoint()
        ha = a.join("grp", stack="COM")
        hb = b.join("grp", stack="COM")
        ha.set_destinations([ha.endpoint_address, hb.endpoint_address])
        world.run(0.2)
        with pytest.raises(PacketTooLargeError):
            ha.cast(b"k" * 1000)


class TestAlternateWireModes:
    @pytest.mark.parametrize("mode", ["compact", "packed"])
    def test_whole_stack_over_alternate_wire(self, mode):
        """The compact and bit-packed wire modes are drop-in
        replacements for the aligned production format."""
        world = World(seed=27, network="lan", wire_mode=mode)
        handles = join_group(world, ["a", "b", "c"], "TOTAL:MBRSHIP:FRAG:NAK:COM")
        for i in range(5):
            handles["b"].cast(f"c{i}".encode())
        world.run(2.0)
        orders = {tuple(m.data for m in h.delivery_log) for h in handles.values()}
        assert len(orders) == 1
        assert len(next(iter(orders))) == 5

    def test_packed_mode_sends_fewer_bytes(self):
        def bytes_for(mode):
            world = World(seed=28, network="lan", wire_mode=mode, trace=False)
            handles = join_group(world, ["a", "b"], "TOTAL:MBRSHIP:FRAG:NAK:COM",
                                 settle=0.3, final_settle=2.0)
            before = world.network.stats.bytes_sent
            for i in range(50):
                handles["a"].cast(b"x" * 32)
            world.run(3.0)
            assert len(handles["b"].delivery_log) == 50
            return world.network.stats.bytes_sent - before

        assert bytes_for("packed") < bytes_for("aligned")

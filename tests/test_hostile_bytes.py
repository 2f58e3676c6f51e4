"""Hostile bytes on the one receive path.

Section 2's network "may delay, lose, or garble" messages, and nothing
tells the receiver which datagrams it garbled: every datagram takes the
same lazy unmarshal, and what a flipped byte does is decided by the
bytes alone — a frame that does not parse is dropped at the demux, a
header that does not decode is dropped at its layer's pop, a body flip
is CHKSUM's, and NAK repairs the gap.  Pinned here:

* a group on the Section 7 membership stack under 5 % garbling and 1 %
  loss, on the DES in both span modes (``aligned``, ``compact``) and
  over real sockets: the order and view checkers pass, and every
  delivered payload is one that was sent;
* a coalesced batch with one sub-payload flipped: the clean subs are
  delivered from the batch, and NAK repairs the flipped one alone.
"""

from __future__ import annotations

import pytest

from repro import FaultModel, World
from repro.net.coalesce import decode_batch
from repro.verify import (
    check_fifo_per_source, check_view_agreement, check_virtual_synchrony,
)

STACK = "MBRSHIP:FRAG:NAK:CHKSUM:COM"
NAMES = ("a", "b", "c", "d")
HOSTILE = FaultModel(garble_rate=0.05, loss_rate=0.01)


def garbled_group(world, rounds, pause):
    """Form a group of ``NAMES`` cleanly, cast ``rounds`` messages from
    every member under :data:`HOSTILE`, then clear the faults and let
    the group settle.  Returns the handles and what each member sent."""
    handles = {}
    for name in NAMES:
        handles[name] = world.process(name).endpoint().join("grp", stack=STACK)
        world.run(0.3)
    assert world.run_while(
        lambda: all(h.view is not None and h.view.size == len(NAMES)
                    for h in handles.values()),
        timeout=10.0)
    world.set_faults(HOSTILE)
    sent = {str(h.endpoint_address): [] for h in handles.values()}
    for i in range(rounds):
        for name, handle in handles.items():
            body = b"%s-%04d" % (name.encode(), i)
            handle.cast(body)
            sent[str(handle.endpoint_address)].append(body)
        world.run(pause)
    world.set_faults(None)
    total = len(NAMES) * rounds
    world.run_while(
        lambda: all(len(h.delivery_log) >= total for h in handles.values()),
        timeout=20.0)
    return handles, sent


def check_group(handles, sent):
    members = list(handles.values())
    check_view_agreement(members)
    check_virtual_synchrony(members)
    check_fifo_per_source(members, sent)
    for handle in members:
        for delivered in handle.delivery_log:
            assert delivered.data in sent[str(delivered.source)], delivered
    assert sum(h.focus("CHKSUM").garbled_dropped for h in members) > 0


class TestGarbledGroupOnTheDes:
    @pytest.mark.parametrize("mode", ("aligned", "compact"))
    def test_checkers_pass_and_only_sent_payloads_are_delivered(self, mode):
        world = World(seed=9, network="lan", wire_mode=mode)
        handles, sent = garbled_group(world, rounds=500, pause=0.01)
        check_group(handles, sent)
        # No crash and no partition: every garbled copy reached a demux.
        assert world.network.stats.packets_garbled >= 300
        assert all(len(h.delivery_log) == len(NAMES) * 500
                   for h in handles.values())


@pytest.mark.realtime
class TestGarbledGroupOverRealSockets:
    def test_checkers_pass_and_only_sent_payloads_are_delivered(self):
        from repro.runtime.world import RealtimeWorld

        world = RealtimeWorld(seed=9)
        try:
            handles, sent = garbled_group(world, rounds=60, pause=0.01)
            check_group(handles, sent)
            assert world.stats.packets_garbled > 0
        finally:
            world.close()


class TestOneFlippedSubOfABatch:
    """Three casts leave in one coalesced datagram; the path flips one
    byte of the second one's body.  The frame still tiles, so the batch
    is unwrapped: CHKSUM drops the flipped sub alone, the first is
    delivered at once, and NAK resends only the second — the third
    waits for it in FIFO order."""

    BODIES = (b"first-of-three", b"second-of-three", b"third-of-three")

    class FlipTheSecondBody(FaultModel):
        """A clean path that flips one body byte of the first 3-sub batch."""

        flipped = False

        def plan_deliveries(self, rng, payload, extra_delay=0.0):
            subs = decode_batch(payload)
            if self.flipped or subs is None or len(subs) != 3:
                return super().plan_deliveries(rng, payload, extra_delay)
            self.flipped = True
            at = payload.index(TestOneFlippedSubOfABatch.BODIES[1])
            data = bytearray(payload)
            data[at] ^= 0x01
            return [(self.base_delay + extra_delay, bytes(data), True)]

    def test_the_clean_subs_are_delivered_and_nak_repairs_the_flipped_one(self):
        world = World(seed=4, network="lan", coalesce=True)
        handles = {}
        for name in ("a", "b"):
            handles[name] = world.process(name).endpoint().join(
                "grp", stack="NAK:CHKSUM:COM")
        members = [h.endpoint_address for h in handles.values()]
        for handle in handles.values():
            handle.set_destinations(members)
        world.run(0.3)
        path = self.FlipTheSecondBody()
        world.set_faults(path)
        for body in self.BODIES:
            handles["a"].cast(body)
        world.run(0.005)  # the batch has arrived; no NAK has fired yet
        b = handles["b"]
        assert path.flipped
        assert [d.data for d in b.delivery_log] == [self.BODIES[0]]
        assert b.focus("CHKSUM").garbled_dropped == 1
        assert world.network.batches_rejected == 0
        world.run(1.0)
        assert [d.data for d in b.delivery_log] == list(self.BODIES)
        assert handles["a"].focus("NAK").retransmissions == 1

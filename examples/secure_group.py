#!/usr/bin/env python
"""The Horus security architecture (Section 11).

"A security architecture for Horus provides for authentication and
encryption of messages, using a novel approach that combines security
features with fault-tolerance."

The combination on display: per-view group keys ride the membership
machinery (KEYDIST — the coordinator rekeys on every view change), the
CRYPT layer encrypts under the current view key, and SIGN, below it,
authenticates every datagram as it travels — ciphertext, nonce and key
id (encrypt-then-MAC).  The demo shows an outsider with the wrong key being
rejected, eavesdroppers seeing only ciphertext, and a member's removal
rotating the group key so it is cryptographically locked out of the
future conversation.

Run:  python examples/secure_group.py
"""

from repro import World

SECURE_STACK = (
    "KEYDIST(master_secret='deployment-secret')"
    ":MBRSHIP:FRAG:NAK"
    ":CRYPT(key='deployment-secret')"
    ":SIGN(key='deployment-secret')"
    ":COM"
)


def main() -> None:
    world = World(seed=15, network="lan")

    handles = {}
    for name in ("alice", "bob", "carol"):
        handles[name] = world.process(name).endpoint().join(
            "vault", stack=SECURE_STACK
        )
        world.run(0.5)
    world.run(3.0)
    kd = handles["alice"].focus("KEYDIST")
    print("== the group shares a per-view key ==")
    print(f"  view {handles['alice'].view.view_id}; key id {kd.key_source.current()[0]}")

    print("== traffic is encrypted on the wire ==")
    wire = []
    original_deliver = world.network._deliver
    world.network._deliver = lambda p: (wire.append(p.payload), original_deliver(p))
    handles["alice"].cast(b"the launch code is 0000")
    world.run(1.0)
    leaked = any(b"launch code" in payload for payload in wire)
    print(f"  bob read: {handles['bob'].delivery_log[-1].data.decode()!r}")
    print(f"  plaintext visible to an eavesdropper: {leaked}")

    print("== an outsider with the wrong secret cannot speak ==")
    intruder = world.process("mallory").endpoint().join(
        "vault",
        stack=(
            "MBRSHIP:FRAG:NAK"
            ":CRYPT(key='guessed-wrong')"
            ":SIGN(key='guessed-wrong')"
            ":COM"
        ),
    )
    world.run(4.0)
    in_view = any(
        m.node == "mallory" for m in handles["alice"].view.members
    )
    print(f"  mallory admitted to the view: {in_view}")
    rejected = handles["alice"].focus("SIGN").rejected
    print(f"  forged messages rejected at alice: {rejected > 0}")

    print("== removing a member rotates the key ==")
    kid_before = kd.key_source.current()[0]
    world.crash("carol")
    world.run(8.0)
    kid_after = kd.key_source.current()[0]
    print(f"  key id {kid_before} -> {kid_after} after carol's departure")
    carol_has_new_key = (
        handles["carol"].focus("KEYDIST").key_source.key_for(kid_after)
        is not None
    )
    print(f"  carol holds the new key: {carol_has_new_key}")
    handles["alice"].cast(b"carol cannot read this")
    world.run(1.0)
    print(f"  bob still receives: {handles['bob'].delivery_log[-1].data.decode()!r}")


if __name__ == "__main__":
    main()

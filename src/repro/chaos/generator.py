"""Seeded random scenario generation.

``generate_scenario(seed, index)`` is a pure function: the op timeline
comes entirely from ``random.Random(derive_seed(seed, f"chaos.gen.{index}"))``,
so a soak is fully described by its base seed and scenario count, and
any scenario from it can be regenerated in isolation.

The generator is constrained, not uniform — it only emits storms the
stack is *supposed* to survive, so every violation a soak finds is a
real bug rather than an impossible demand:

* at most a minority of nodes is ever dead at once (primary-partition
  membership cannot make progress without a majority, and a storm that
  kills one is a liveness test, not a safety test);
* ``recover`` only targets currently-crashed nodes, ``heal`` only fires
  when partitioned, and one partition is never stacked on another;
* fault models stay mild (loss/duplication/garbling well under the
  retransmission layers' give-up thresholds);
* every scenario carries at least one load injection, so the order and
  virtual-synchrony checkers always have messages to judge.
"""

from __future__ import annotations

import random
from typing import List

from repro.chaos.scenario import (
    DEFAULT_CHAOS_STACK,
    OVERLOAD_CHAOS_STACK,
    STATEFUL_CHAOS_STACK,
    ChaosOp,
    Crash,
    FaninStorm,
    Heal,
    InjectLoad,
    Partition,
    Recover,
    Scenario,
    SetFaults,
    SlowReceiver,
    WanSqueeze,
)
from repro.sim.rand import derive_seed

#: Per-profile pacing: (min duration, max duration, settle, max ops).
#: The realtime profile is shorter — its seconds are wall-clock.
_PROFILES = {
    "sim": (4.0, 8.0, 25.0, 10),
    "realtime": (2.0, 4.0, 8.0, 6),
}

#: Mild fault-model palettes (kwargs for FaultModel), chosen to stay
#: under the NAK/stability layers' recovery capacity.
_FAULT_PALETTES = (
    {"loss_rate": 0.05},
    {"loss_rate": 0.10, "duplicate_rate": 0.05},
    {"garble_rate": 0.05},
    {"loss_rate": 0.05, "reorder_rate": 0.2, "reorder_delay": 0.05},
    {"duplicate_rate": 0.10},
)


#: Extra op kinds the rng may draw in overload mode.  Kept out of the
#: base palette so existing ``(seed, index)`` timelines — and the soak
#: digests checked in against them — stay byte-identical unless the
#: caller opts in with ``overload=True``.
_OVERLOAD_KINDS = ("slow_receiver", "fanin_storm", "wan_squeeze")


#: Faults-through-flush: what the links do from the first op to the end
#: of the storm — every crash, flush, install and re-join included.
_FLUSH_FAULTS = {"jitter": 0.0002, "loss_rate": 0.01,
                 "reorder_rate": 0.08, "reorder_delay": 0.005}

#: Its pacing: (crash→recover cycles, casts/s per member, settle).
_FLUSH_PROFILES = {"sim": (3, 20.0, 25.0), "realtime": (1, 10.0, 10.0)}


def generate_scenario(
    seed: int,
    index: int,
    nodes: int = 4,
    stack: str = DEFAULT_CHAOS_STACK,
    profile: str = "sim",
    stateful: bool = False,
    overload: bool = False,
    faults_through_flush: bool = False,
) -> Scenario:
    """Deterministically generate scenario ``index`` of a soak.

    ``stateful=True`` marks the scenario for the runner's durable-client
    mode and (when ``stack`` was left at the default) swaps in
    :data:`~repro.chaos.scenario.STATEFUL_CHAOS_STACK` so the stack
    carries TOTAL + XFER.  The op timeline is unchanged — the same
    ``(seed, index)`` yields the same storm either way.

    ``overload=True`` widens the op palette with the overload plane
    (``slow_receiver``, ``fanin_storm``, ``wan_squeeze``) so storms
    compose with crashes and partitions, guarantees at least one
    slow-receiver + fan-in pair, and (when ``stack`` was left at the
    default) swaps in :data:`~repro.chaos.scenario.OVERLOAD_CHAOS_STACK`
    so CREDIT is there to absorb it.  Overload timelines are their own
    deterministic family — same ``(seed, index, overload)``, same storm.

    ``faults_through_flush=True`` generates the storm the base family
    never does (``nodes`` is lifted to at least 8): every member casts
    at a Poisson rate while 1 % loss + 8 % reordering stay on across
    every crash → flush → install → recover.  Own rng stream
    (``chaos.gen.flush.{index}``) again.
    """
    if profile not in _PROFILES:
        raise ValueError(f"unknown chaos profile {profile!r}")
    if faults_through_flush:
        return _generate_faults_through_flush(
            seed, index, max(nodes, 8), stack, profile
        )
    if stateful and stack == DEFAULT_CHAOS_STACK:
        stack = STATEFUL_CHAOS_STACK
    if overload and stack == DEFAULT_CHAOS_STACK:
        stack = OVERLOAD_CHAOS_STACK
    rng = random.Random(derive_seed(seed, f"chaos.gen.{index}"))
    lo, hi, settle, max_ops = _PROFILES[profile]
    duration = rng.uniform(lo, hi)
    names = tuple(f"n{i}" for i in range(nodes))

    ops: List[ChaosOp] = []
    dead: set = set()
    partitioned = False
    max_dead = (nodes - 1) // 2  # keep a primary component possible

    palette = ("crash", "recover", "partition", "heal", "set_faults",
               "load", "load")
    if overload:
        palette = palette + _OVERLOAD_KINDS

    n_ops = rng.randint(3, max_ops)
    for _ in range(n_ops):
        at = round(rng.uniform(0.2, duration * 0.8), 2)
        kind = rng.choice(palette)
        if kind == "crash" and len(dead) < max_dead:
            victim = rng.choice([n for n in names if n not in dead])
            dead.add(victim)
            ops.append(Crash(at=at, node=victim))
        elif kind == "recover" and dead:
            back = rng.choice(sorted(dead))
            dead.discard(back)
            ops.append(Recover(at=at, node=back))
        elif kind == "partition" and not partitioned and nodes >= 3:
            shuffled = list(names)
            rng.shuffle(shuffled)
            # Majority side first so the primary partition keeps going.
            cut = rng.randint(1, (nodes - 1) // 2)
            ops.append(Partition(
                at=at,
                components=(tuple(sorted(shuffled[cut:])),
                            tuple(sorted(shuffled[:cut]))),
            ))
            partitioned = True
        elif kind == "heal" and partitioned:
            ops.append(Heal(at=at))
            partitioned = False
        elif kind == "set_faults":
            faults = rng.choice(_FAULT_PALETTES)
            ops.append(SetFaults.of(at, **faults))
        elif kind == "slow_receiver":
            live = [n for n in names if n not in dead] or list(names)
            ops.append(SlowReceiver(
                at=at,
                node=rng.choice(live),
                rate=float(rng.choice((2048, 4096, 8192))),
            ))
        elif kind == "fanin_storm":
            live = [n for n in names if n not in dead] or list(names)
            ops.append(FaninStorm(
                at=at,
                target=rng.choice(live),
                count=rng.randint(10, 30),
                size=rng.choice((64, 256, 1024)),
            ))
        elif kind == "wan_squeeze":
            ops.append(WanSqueeze(at=at))
        else:
            # Load from a node that is up at generation time, so every
            # scenario actually gives the checkers messages to judge.
            live = [n for n in names if n not in dead] or list(names)
            ops.append(InjectLoad(
                at=at,
                node=rng.choice(live),
                count=rng.randint(2, 6),
                size=rng.choice((16, 64, 256)),
            ))

    if not any(isinstance(op, InjectLoad) for op in ops):
        ops.append(InjectLoad(
            at=round(duration * 0.5, 2), node=names[0], count=4, size=64
        ))
    if overload:
        # Every overload storm carries at least one slow-receiver +
        # fan-in pair aimed at the same node — the canonical squeeze.
        target = rng.choice(list(names))
        if not any(isinstance(op, SlowReceiver) for op in ops):
            ops.append(SlowReceiver(
                at=round(duration * 0.25, 2), node=target, rate=4096.0
            ))
        if not any(isinstance(op, FaninStorm) for op in ops):
            ops.append(FaninStorm(
                at=round(duration * 0.4, 2), target=target,
                count=rng.randint(10, 30), size=256,
            ))

    return Scenario(
        name=f"s{seed}-{index}",
        nodes=names,
        ops=tuple(ops),
        stack=stack,
        duration=duration,
        settle=settle,
        stateful=stateful,
    )


def _generate_faults_through_flush(
    seed: int, index: int, nodes: int, stack: str, profile: str
) -> Scenario:
    """The faults-through-flush family: closing cuts taken under traffic.

    One :class:`SetFaults` at the start is never lifted; victims (never
    the founding coordinator) crash and recover one after another, each
    down ~3 s so the survivors flush it out (detection takes ~1.5 s);
    every cast is its own :class:`InjectLoad`, for the shrinker's sake.
    """
    rng = random.Random(derive_seed(seed, f"chaos.gen.flush.{index}"))
    cycles, rate, settle = _FLUSH_PROFILES[profile]
    names = tuple(f"n{i}" for i in range(nodes))

    ops: List[ChaosOp] = [SetFaults.of(0.0, **_FLUSH_FAULTS)]
    at = 0.0
    for _ in range(cycles):
        victim = rng.choice(names[1:])
        at = round(at + rng.uniform(0.5, 1.0), 2)
        ops.append(Crash(at=at, node=victim))
        at = round(at + rng.uniform(2.5, 3.0), 2)
        ops.append(Recover(at=at, node=victim))
    duration = at + 1.0
    for name in names:
        cast_at = rng.expovariate(rate)
        while cast_at < duration:
            ops.append(InjectLoad(
                at=round(cast_at, 4), node=name, count=1,
                size=rng.choice((16, 64, 256)),
            ))
            cast_at += rng.expovariate(rate)

    return Scenario(
        name=f"s{seed}-{index}-flush",
        nodes=names,
        ops=tuple(ops),
        stack=stack,
        duration=duration,
        settle=settle,
    )

"""Experiment F1 — Figure 1: run-time LEGO stacking of protocol layers.

Figure 1 shows layers stacked at run time and tabulates ~20 protocol
types.  This bench regenerates the protocol-type table from the live
registry, composes a spread of distinct stacks at run time (the LEGO
claim), and measures (a) composition cost and (b) traffic through a
composed stack (the paper's Section 10 problem 1: a call per boundary).
"""

from repro import World
from repro.core.stack import known_layers, parse_stack_spec
from repro.properties.registry import PROFILES

from _util import join_members, report, table

#: A spread of meaningful stacks, all composed from one layer library.
STACKS = [
    "COM",
    "NAK:COM",
    "NNAK:COM",
    "FRAG:NAK:COM",
    "NAK:NFRAG:COM",
    "NAK:CHKSUM:COM",
    "NAK:SIGN:CRYPT:COM",
    "COMPRESS:NAK:COM",
    "CREDIT:MBRSHIP:FRAG:NAK:COM",
    "PRIO:COM",
    "MBRSHIP:FRAG:NAK:COM",
    "FLUSH:VSS:BMS:FRAG:NAK:COM",
    "TOTAL:MBRSHIP:FRAG:NAK:COM",
    "CAUSAL:CAUSAL_TS:MBRSHIP:FRAG:NAK:COM",
    "STABLE:MBRSHIP:FRAG:NAK:COM",
    "SAFE:STABLE:MBRSHIP:FRAG:NAK:COM",
    "PINWHEEL:MBRSHIP:FRAG:NAK:COM",
    "MERGE:MBRSHIP:FRAG:NAK:COM",
    "LOGGER:TRACER:ACCOUNT:MBRSHIP:FRAG:NAK:COM",
    "TOTAL:STABLE:MBRSHIP:COMPRESS:FRAG:NAK:CHKSUM:COM",
]


def test_figure1_protocol_type_table(benchmark):
    rows = [
        [name, profile.purpose or "-"]
        for name, profile in sorted(PROFILES.items())
    ]
    report("figure1_protocol_types", table(["protocol type", "used for"], rows))
    assert len(rows) >= 20  # at least Figure 1's breadth of types
    benchmark(known_layers)


def test_figure1_runtime_stacking(benchmark):
    """Every stack composes at run time from the same layer library."""

    def compose_all():
        world = World(seed=1, network="lan", trace=False)
        for index, spec in enumerate(STACKS):
            endpoint = world.process(f"n{index}").endpoint()
            endpoint.join(f"g{index}", stack=spec)
        return world

    world = benchmark(compose_all)
    rows = [[spec, len(parse_stack_spec(spec))] for spec in STACKS]
    report("figure1_stacks_composed", table(["stack", "layers"], rows))
    assert len(world.processes()) == len(STACKS)


def _run_traffic(messages: int = 100) -> int:
    world = World(seed=2, network="lan", trace=False)
    handles = {}
    for name in ("a", "b"):
        handles[name] = world.process(name).endpoint().join(
            "grp", stack="MBRSHIP:FRAG:NAK:COM"
        )
        world.run(0.4)
    world.run(2.0)
    for i in range(messages):
        handles["a"].cast(b"x" * 64)
    world.run(5.0)
    assert len(handles["b"].delivery_log) == messages
    return world.scheduler.events_executed


def test_traffic_through_the_stack(benchmark):
    """A hundred casts through the Section 7 stack: boundary crossings
    are procedure calls, and none of them costs a scheduler event."""
    events = benchmark(_run_traffic)
    assert events > 0

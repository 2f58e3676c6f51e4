"""Stack synthesis: from required properties to a concrete stack.

"Vice versa, given a set of network properties and required properties
for an application, it is possible to figure out if a stack exists that
can implement the requirements. ... we can even create a minimal stack.
Rather than looking at this as stacking protocols on top of each other,
a different interpretation is that Horus actually builds a single
protocol for the particular application on the fly." (Section 6)

The search is uniform-cost (Dijkstra) over property sets: a state is
the frozenset of properties available at some stack height; an edge
adds one layer whose requirements are met, at that layer's cost.  With
16 properties the state space is at most 2^16, so the search is exact
and fast.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.errors import SynthesisError
from repro.properties.checker import _network_props
from repro.properties.cost import layer_cost
from repro.properties.props import P
from repro.properties.registry import PROFILES, LayerProfile


def synthesize_stack(
    required: Iterable[P],
    network="atm",
    candidates: Optional[Iterable[str]] = None,
    costs: Optional[Dict[str, float]] = None,
    max_depth: int = 12,
) -> List[str]:
    """Find the minimal-cost well-formed stack providing ``required``.

    Args:
        required: properties the application demands.
        network: substrate name or explicit property set beneath the stack.
        candidates: layer names the synthesizer may use (default: every
            registered layer with a property profile).
        costs: per-layer cost overrides.
        max_depth: bound on stack height.

    Returns:
        Layer names, **top first** (ready for ``":".join(...)`` and
        :class:`repro.core.stack.StackConfig`).

    Raises:
        SynthesisError: when no stack within ``max_depth`` provides the
            required properties.
    """
    goal = frozenset(required)
    start = _network_props(network)
    pool: List[Tuple[str, LayerProfile]] = [
        (name, PROFILES[name])
        for name in (candidates if candidates is not None else sorted(PROFILES))
        if name in PROFILES
    ]
    if goal <= start:
        return []

    counter = itertools.count()
    # Priority queue of (cost, tiebreak, properties, layers-bottom-first).
    frontier: List[Tuple[float, int, FrozenSet[P], Tuple[str, ...]]] = [
        (0.0, next(counter), start, ())
    ]
    best_cost: Dict[FrozenSet[P], float] = {start: 0.0}
    while frontier:
        cost, _, props, layers = heapq.heappop(frontier)
        if cost > best_cost.get(props, float("inf")):
            continue  # stale entry
        if goal <= props:
            return list(reversed(layers))  # top first
        if len(layers) >= max_depth:
            continue
        for name, profile in pool:
            if not profile.satisfied_by(props):
                continue
            new_props = profile.apply(props)
            if new_props == props:
                continue  # layer adds nothing here
            new_cost = cost + layer_cost(name, costs)
            if new_cost < best_cost.get(new_props, float("inf")):
                best_cost[new_props] = new_cost
                heapq.heappush(
                    frontier,
                    (new_cost, next(counter), new_props, layers + (name,)),
                )
    raise SynthesisError(
        "no stack provides {"
        + ", ".join(str(p) for p in sorted(goal))
        + "} over the given network (within depth "
        + str(max_depth)
        + ")"
    )


def synthesize_spec(required: Iterable[P], network="atm", **kwargs) -> str:
    """Like :func:`synthesize_stack` but returns the colon spec string."""
    layers = synthesize_stack(required, network, **kwargs)
    return ":".join(layers)

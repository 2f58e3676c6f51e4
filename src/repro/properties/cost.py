"""Per-layer cost model for minimal-stack synthesis.

"If we can associate a cost with each of the properties, possibly on a
per-layer basis, we can even create a minimal stack." (Section 6)

Costs are abstract units roughly proportional to per-message overhead:
header bytes pushed plus processing. They only need to *rank* stacks
sensibly — e.g. NNAK cheaper than NAK, BMS cheaper than MBRSHIP — so
the synthesizer prefers the smallest machinery that meets requirements.
"""

from __future__ import annotations

from typing import Dict, Iterable

#: Default per-layer costs (abstract units).
DEFAULT_COSTS: Dict[str, float] = {
    "COM": 1.0,
    "NFRAG": 1.5,
    "NNAK": 2.0,
    "NAK": 3.0,
    "FRAG": 1.5,
    "BMS": 4.0,
    "VSS": 3.0,
    "FLUSH": 3.0,
    "MBRSHIP": 8.0,
    "STABLE": 3.0,
    "PINWHEEL": 2.0,
    "TOTAL": 4.0,
    "CAUSAL_TS": 2.0,
    "CAUSAL": 3.0,
    "SAFE": 3.0,
    "MERGE": 2.0,
    "CHKSUM": 1.0,
    "SIGN": 2.0,
    "CRYPT": 3.0,
    "COMPRESS": 2.0,
    "CREDIT": 2.0,
    "PRIO": 1.5,
    "LOGGER": 2.0,
    "TRACER": 0.5,
    "ACCOUNT": 0.5,
    "SOCKETS": 0.5,
}


def layer_cost(name: str, costs: Dict[str, float] = None) -> float:
    """Cost of one layer (unknown layers default to 1.0)."""
    table = DEFAULT_COSTS if costs is None else costs
    return table.get(name, 1.0)


def stack_cost(layers: Iterable[str], costs: Dict[str, float] = None) -> float:
    """Total cost of a stack (sum of its layers)."""
    return sum(layer_cost(name, costs) for name in layers)

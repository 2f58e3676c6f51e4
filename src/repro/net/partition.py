"""Network partitions.

Section 9 of the paper discusses at length how Horus copes with
partitioning failures (primary partition, extended virtual synchrony,
Relacs view synchrony).  The :class:`PartitionController` is the
substrate side of that story: it decides, per pair of *nodes*, whether
packets can flow.  Membership layers above observe partitions only as
silence and react with their configured partition policy.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set


class PartitionController:
    """Reachability oracle for a simulated network.

    By default every node can reach every other node.  Installing a
    partition assigns each named node to a component; nodes in different
    components cannot exchange packets.  Nodes never mentioned in the
    partition remain mutually reachable (they form an implicit extra
    component together).
    """

    def __init__(self) -> None:
        self._component_of: Dict[str, int] = {}
        #: Monotone counter of partition-change events, for tracing.
        self.generation = 0

    @property
    def partitioned(self) -> bool:
        """Whether any partition is currently installed."""
        return bool(self._component_of)

    def partition(self, components: Iterable[Iterable[str]]) -> None:
        """Split the network into the given components.

        ``components`` is an iterable of node-name groups, e.g.
        ``[{"a", "b"}, {"c"}]``.  A node may appear in at most one
        component.
        """
        mapping: Dict[str, int] = {}
        for index, component in enumerate(components):
            for node in component:
                if node in mapping:
                    raise ValueError(f"node {node!r} appears in two components")
                mapping[node] = index
        self._component_of = mapping
        self.generation += 1

    def isolate(self, node: str, others: Iterable[str]) -> None:
        """Convenience: cut ``node`` off from all ``others``."""
        self.partition([{node}, set(others) - {node}])

    def heal(self) -> None:
        """Remove all partitions; full connectivity is restored."""
        if self._component_of:
            self._component_of = {}
            self.generation += 1

    def reachable(self, node_a: str, node_b: str) -> bool:
        """Whether a packet from ``node_a`` can reach ``node_b`` now."""
        if node_a == node_b:
            return True
        comp_a = self._component_of.get(node_a)
        comp_b = self._component_of.get(node_b)
        if comp_a is None and comp_b is None:
            return True
        return comp_a == comp_b

    def components(self, universe: Iterable[str]) -> List[Set[str]]:
        """Partition ``universe`` into its current reachability classes."""
        remaining = set(universe)
        result: List[Set[str]] = []
        while remaining:
            seed = min(remaining)
            component = {n for n in remaining if self.reachable(seed, n)}
            result.append(component)
            remaining -= component
        return result

"""The substrate-neutral metrics registry.

One :class:`MetricsRegistry` serves a whole world — simulated or
realtime — because nothing in it knows about time sources: callers
observe durations they measured against whatever
:class:`~repro.runtime.clock.Clock` they own.  On the DES that makes
every snapshot a pure function of the seed (virtual timestamps are
deterministic); on the realtime engine the same code yields wall-clock
numbers.  That symmetry is the point: the Section 10 methodology of
"measure before optimizing" only works if both substrates feed one
pipeline.

Three instrument kinds, Prometheus-shaped so the exporter is trivial:

* :class:`Counter` — monotone accumulator (``inc``).
* :class:`Gauge` — settable level (``set``/``inc``/``dec``).
* :class:`Histogram` — fixed-bucket distribution with exact
  count/sum/min/max.  Buckets (not reservoirs) keep snapshots
  byte-identical across same-seed DES runs.

Instruments with label names are *families*: ``family.labels(layer="NAK",
direction="down")`` returns (creating on first use) the child series for
that label combination.  Unlabeled instruments accept ``inc``/``set``/
``observe`` directly.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

#: Latency buckets (seconds): microseconds through tens of seconds,
#: 1-2.5-5 per decade — fine enough for per-layer self-times on both the
#: virtual and the wall clock.
TIME_BUCKETS: Tuple[float, ...] = tuple(
    base * scale
    for scale in (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)
    for base in (1.0, 2.5, 5.0)
)

#: Size buckets (bytes): powers of two through 64 KiB (the base MTU).
SIZE_BUCKETS: Tuple[float, ...] = tuple(float(1 << n) for n in range(5, 17))


class Counter:
    """Monotone accumulator; one labeled series of a counter family."""

    kind = "counter"
    __slots__ = ("labels", "value")

    def __init__(self, labels: Dict[str, str]) -> None:
        self.labels = labels
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ConfigurationError("counters only go up; use a gauge")
        self.value += amount

    def values(self) -> Dict[str, Any]:
        """Exportable value dict for snapshots."""
        return {"value": self.value}

    def __repr__(self) -> str:
        return f"<Counter {self.labels} value={self.value}>"


class Gauge:
    """Settable level; one labeled series of a gauge family."""

    kind = "gauge"
    __slots__ = ("labels", "value")

    def __init__(self, labels: Dict[str, str]) -> None:
        self.labels = labels
        self.value: float = 0

    def set(self, value: float) -> None:
        """Set the gauge to ``value``."""
        self.value = value

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` to the gauge."""
        self.value += amount

    def dec(self, amount: float = 1) -> None:
        """Subtract ``amount`` from the gauge."""
        self.value -= amount

    def values(self) -> Dict[str, Any]:
        """Exportable value dict for snapshots."""
        return {"value": self.value}

    def __repr__(self) -> str:
        return f"<Gauge {self.labels} value={self.value}>"


class Histogram:
    """Fixed-bucket distribution; one labeled series of a histogram family.

    ``counts[i]`` is the number of observations ``<= uppers[i]`` and
    ``> uppers[i-1]``; observations above the last bound land in the
    implicit ``+Inf`` overflow.  Exact ``count``/``sum``/``min``/``max``
    ride along, so means are exact and quantiles are bucket-resolution.
    """

    kind = "histogram"
    __slots__ = ("labels", "uppers", "counts", "overflow", "count", "sum",
                 "min", "max")

    def __init__(
        self, labels: Dict[str, str], buckets: Sequence[float] = TIME_BUCKETS
    ) -> None:
        self.labels = labels
        self.uppers: Tuple[float, ...] = tuple(buckets)
        if list(self.uppers) != sorted(set(self.uppers)):
            raise ConfigurationError("histogram buckets must be sorted and unique")
        self.counts: List[int] = [0] * len(self.uppers)
        self.overflow = 0
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        index = bisect_left(self.uppers, value)
        if index < len(self.counts):
            self.counts[index] += 1
        else:
            self.overflow += 1

    @property
    def mean(self) -> float:
        """Exact arithmetic mean of all observations."""
        return self.sum / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Bucket-resolution ``p``-th percentile (0-100).

        Linear interpolation inside the winning bucket; observations in
        the overflow report the exact observed maximum.
        """
        if not self.count:
            return 0.0
        target = (p / 100.0) * self.count
        seen = 0
        lower = 0.0
        for upper, bucket_count in zip(self.uppers, self.counts):
            if seen + bucket_count >= target and bucket_count:
                frac = (target - seen) / bucket_count
                return min(lower + (upper - lower) * frac, self.max)
            seen += bucket_count
            lower = upper
        return self.max

    def values(self) -> Dict[str, Any]:
        """Exportable value dict for snapshots (zeros normalized)."""
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else 0.0,
            "max": self.max,
            "buckets": [
                [upper, cumulative]
                for upper, cumulative in zip(self.uppers, self._cumulative())
            ],
            "overflow": self.overflow,
        }

    def _cumulative(self) -> List[int]:
        out: List[int] = []
        running = 0
        for bucket_count in self.counts:
            running += bucket_count
            out.append(running)
        return out

    def __repr__(self) -> str:
        return f"<Histogram {self.labels} n={self.count} sum={self.sum:.6g}>"


class MetricFamily:
    """All series of one named instrument, keyed by label values."""

    __slots__ = ("name", "kind", "help", "label_names", "_factory",
                 "_children", "_registry")

    def __init__(
        self,
        name: str,
        kind: str,
        help_text: str,
        label_names: Tuple[str, ...],
        factory: Callable[[Dict[str, str]], Any],
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.label_names = label_names
        self._factory = factory
        self._children: Dict[Tuple[str, ...], Any] = {}
        #: Owning registry, set by MetricsRegistry._family; lets series()
        #: run the registry's collectors so collector-fed values are
        #: fresh even on direct family reads.
        self._registry: Any = None

    def labels(self, **labelvalues: Any):
        """The child series for this label combination (created on first use)."""
        try:
            key = tuple(str(labelvalues[name]) for name in self.label_names)
        except KeyError as exc:
            raise ConfigurationError(
                f"metric {self.name!r} requires labels {self.label_names}"
            ) from exc
        if len(labelvalues) != len(self.label_names):
            raise ConfigurationError(
                f"metric {self.name!r} takes labels {self.label_names}, "
                f"got {tuple(sorted(labelvalues))}"
            )
        child = self._children.get(key)
        if child is None:
            child = self._factory(dict(zip(self.label_names, key)))
            self._children[key] = child
        return child

    def series(self) -> List[Any]:
        """Every child series, sorted by label values (deterministic).

        Reconciles collector-fed values first (see
        :meth:`MetricsRegistry.collect`) so reading a family directly
        agrees with a full snapshot.
        """
        if self._registry is not None:
            self._registry.collect()
        return self._sorted_series()

    def _sorted_series(self) -> List[Any]:
        """The children as they stand: for an export that has just
        collected, so each collector runs once per export."""
        return [self._children[key] for key in sorted(self._children)]

    # -- unlabeled convenience --------------------------------------------

    def _default(self):
        if self.label_names:
            raise ConfigurationError(
                f"metric {self.name!r} is labeled {self.label_names}; "
                "call .labels(...) first"
            )
        return self.labels()

    def inc(self, amount: float = 1) -> None:
        """Unlabeled shorthand for ``family.labels().inc(amount)``."""
        self._default().inc(amount)

    def set(self, value: float) -> None:
        """Unlabeled shorthand for ``family.labels().set(value)``."""
        self._default().set(value)

    def dec(self, amount: float = 1) -> None:
        """Unlabeled shorthand for ``family.labels().dec(amount)``."""
        self._default().dec(amount)

    def observe(self, value: float) -> None:
        """Unlabeled shorthand for ``family.labels().observe(value)``."""
        self._default().observe(value)

    @property
    def value(self) -> float:
        """Unlabeled shorthand for the single series' value."""
        return self._default().value

    def __repr__(self) -> str:
        return (
            f"<MetricFamily {self.name} kind={self.kind} "
            f"series={len(self._children)}>"
        )


class MetricsRegistry:
    """One namespace of metric families, shared by every component.

    Declarations are idempotent: asking twice for the same (name, kind,
    labels) returns the same family, so a transport, twenty stacks, and
    a benchmark harness can all say ``registry.counter("x", ...)``
    without coordinating.  Conflicting redeclarations raise.
    """

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}
        self._collectors: List[Callable[[], None]] = []

    def add_collector(self, collector: Callable[[], None]) -> None:
        """Register a callable run before every read of the registry.

        Collectors pull values that are maintained elsewhere (a layer's
        own crossing counters, say) into registry series at export time
        instead of on the hot path.  They must be idempotent between
        state changes — :func:`collect` may run any number of times.
        """
        self._collectors.append(collector)

    def remove_collector(self, collector: Callable[[], None]) -> None:
        """Deregister ``collector``; a no-op if it is not registered.

        Whoever registered a collector removes it when the state it reads
        goes away (a stack does so when it stops), so the registry neither
        keeps dead state alive nor runs its collector at every export.
        """
        try:
            self._collectors.remove(collector)
        except ValueError:
            pass

    def collect(self) -> None:
        """Run every registered collector (in registration order)."""
        for collector in self._collectors:
            collector()

    def counter(
        self, name: str, help_text: str = "", labels: Sequence[str] = ()
    ) -> MetricFamily:
        """Declare (or fetch) a counter family."""
        return self._family(name, "counter", help_text, labels, Counter)

    def gauge(
        self, name: str, help_text: str = "", labels: Sequence[str] = ()
    ) -> MetricFamily:
        """Declare (or fetch) a gauge family."""
        return self._family(name, "gauge", help_text, labels, Gauge)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = TIME_BUCKETS,
    ) -> MetricFamily:
        """Declare (or fetch) a histogram family with the given buckets."""
        bucket_tuple = tuple(buckets)
        return self._family(
            name, "histogram", help_text, labels,
            lambda label_dict: Histogram(label_dict, bucket_tuple),
        )

    def _family(
        self,
        name: str,
        kind: str,
        help_text: str,
        labels: Sequence[str],
        factory: Callable[[Dict[str, str]], Any],
    ) -> MetricFamily:
        label_names = tuple(labels)
        existing = self._families.get(name)
        if existing is not None:
            if existing.kind != kind or existing.label_names != label_names:
                raise ConfigurationError(
                    f"metric {name!r} already declared as {existing.kind} "
                    f"with labels {existing.label_names}"
                )
            return existing
        family = MetricFamily(name, kind, help_text, label_names, factory)
        family._registry = self
        self._families[name] = family
        return family

    def get(self, name: str) -> Optional[MetricFamily]:
        """The family called ``name``, or ``None``."""
        return self._families.get(name)

    def families(self) -> List[MetricFamily]:
        """Every family, sorted by name (deterministic).

        Runs the collectors first: every export path (JSONL snapshot,
        ad-hoc iteration) reads through here, so
        collector-fed series are reconciled before they are seen.
        """
        self.collect()
        return [self._families[name] for name in sorted(self._families)]

    def snapshot(self) -> List[Dict[str, Any]]:
        """A JSON-able snapshot: one record per series, fully ordered.

        Records carry ``name``/``type``/``help``/``labels`` plus the
        series' value fields; same-seed DES runs produce identical
        snapshots byte for byte once serialized with sorted keys.
        """
        records: List[Dict[str, Any]] = []
        for family in self.families():
            for series in family._sorted_series():
                record: Dict[str, Any] = {
                    "name": family.name,
                    "type": family.kind,
                    "help": family.help,
                    "labels": series.labels,
                }
                record.update(series.values())
                records.append(record)
        return records

    def __repr__(self) -> str:
        return f"<MetricsRegistry families={len(self._families)}>"

"""Snapshot exporters: JSON-lines and Prometheus text format.

Two consumers, two formats:

* **JSONL** — the archival/benchmark format.  One self-describing record
  per line (``kind`` is ``meta``, ``metric``, or ``span``), written with
  sorted keys so two identical registries serialize byte-identically —
  the property the DES determinism regression pins down.
* **Prometheus text** — the operational format, close enough to the
  exposition format that a real scraper ingests it.  A minimal parser
  lives alongside the renderer so round-tripping is testable without
  any dependency.
"""

from __future__ import annotations

import io
import json
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.errors import ConfigurationError
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import SpanRecorder

PathOrFile = Union[str, "io.TextIOBase"]


# ----------------------------------------------------------------------
# JSON lines
# ----------------------------------------------------------------------


def snapshot_records(
    registry: MetricsRegistry,
    spans: Optional[SpanRecorder] = None,
    meta: Optional[Dict[str, Any]] = None,
) -> List[Dict[str, Any]]:
    """The full snapshot as a list of JSON-able records."""
    records: List[Dict[str, Any]] = [{"kind": "meta", **(meta or {})}]
    for record in registry.snapshot():
        records.append({"kind": "metric", **record})
    if spans is not None:
        for span in spans.spans():
            records.append({"kind": "span", **span.to_dict()})
    return records


def render_jsonl(
    registry: MetricsRegistry,
    spans: Optional[SpanRecorder] = None,
    meta: Optional[Dict[str, Any]] = None,
) -> str:
    """Render the snapshot as JSON-lines text (sorted keys, stable)."""
    lines = [
        json.dumps(record, sort_keys=True, separators=(",", ":"))
        for record in snapshot_records(registry, spans, meta)
    ]
    return "\n".join(lines) + "\n"


def write_jsonl(
    target: PathOrFile,
    registry: MetricsRegistry,
    spans: Optional[SpanRecorder] = None,
    meta: Optional[Dict[str, Any]] = None,
) -> None:
    """Write the JSONL snapshot to a path or open text file."""
    text = render_jsonl(registry, spans, meta)
    if isinstance(target, str):
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        target.write(text)


def read_jsonl(source: PathOrFile) -> Dict[str, Any]:
    """Parse a JSONL snapshot into ``{"meta", "metrics", "spans"}``."""
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = source.read()
    meta: Dict[str, Any] = {}
    metrics: List[Dict[str, Any]] = []
    spans: List[Dict[str, Any]] = []
    for line_number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"snapshot line {line_number} is not JSON: {exc}"
            ) from exc
        kind = record.pop("kind", None)
        if kind == "meta":
            meta = record
        elif kind == "metric":
            metrics.append(record)
        elif kind == "span":
            spans.append(record)
        else:
            raise ConfigurationError(
                f"snapshot line {line_number} has unknown kind {kind!r}"
            )
    return {"meta": meta, "metrics": metrics, "spans": spans}


# ----------------------------------------------------------------------
# Prometheus text format
# ----------------------------------------------------------------------


def _label_text(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{name}="{_escape(value)}"' for name, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def _escape(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _format_number(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def render_prometheus(registry: MetricsRegistry) -> str:
    """Render every family in the Prometheus text exposition format.

    Counters get a ``_total``-less literal name (names here already end
    in ``_total`` by convention); histograms expand to ``_bucket`` /
    ``_sum`` / ``_count`` series with cumulative ``le`` bounds.
    """
    out: List[str] = []
    for family in registry.families():
        out.append(f"# HELP {family.name} {family.help}")
        out.append(f"# TYPE {family.name} {family.kind}")
        for series in family._sorted_series():
            if family.kind in ("counter", "gauge"):
                out.append(
                    f"{family.name}{_label_text(series.labels)} "
                    f"{_format_number(series.value)}"
                )
                continue
            values = series.values()
            cumulative = 0
            for upper, running in values["buckets"]:
                cumulative = running
                labels = dict(series.labels)
                labels["le"] = _format_number(float(upper))
                out.append(
                    f"{family.name}_bucket{_label_text(labels)} {cumulative}"
                )
            inf_labels = dict(series.labels)
            inf_labels["le"] = "+Inf"
            out.append(
                f"{family.name}_bucket{_label_text(inf_labels)} "
                f"{values['count']}"
            )
            out.append(
                f"{family.name}_sum{_label_text(series.labels)} "
                f"{_format_number(values['sum'])}"
            )
            out.append(
                f"{family.name}_count{_label_text(series.labels)} "
                f"{values['count']}"
            )
    return "\n".join(out) + "\n"


def parse_prometheus(text: str) -> Dict[str, Dict[Tuple[Tuple[str, str], ...], float]]:
    """Minimal Prometheus text parser for round-trip verification.

    Returns ``{series_name: {sorted_label_items: value}}``; histogram
    expansions appear under their expanded names (``x_bucket`` etc.).
    Not a general scraper — it understands exactly what
    :func:`render_prometheus` emits.
    """
    parsed: Dict[str, Dict[Tuple[Tuple[str, str], ...], float]] = {}
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        name_and_labels, _, value_text = line.rpartition(" ")
        if not name_and_labels:
            raise ConfigurationError(f"unparsable sample line: {raw_line!r}")
        labels: Dict[str, str] = {}
        name = name_and_labels
        if name_and_labels.endswith("}"):
            name, _, label_blob = name_and_labels.partition("{")
            for item in _split_labels(label_blob[:-1]):
                key, _, quoted = item.partition("=")
                labels[key] = _unescape(quoted.strip()[1:-1])
        value = float("inf") if value_text == "+Inf" else float(value_text)
        parsed.setdefault(name, {})[tuple(sorted(labels.items()))] = value
    return parsed


def _split_labels(blob: str) -> List[str]:
    """Split ``a="x",b="y"`` on commas outside quotes."""
    items: List[str] = []
    current: List[str] = []
    in_quotes = False
    previous = ""
    for ch in blob:
        if ch == '"' and previous != "\\":
            in_quotes = not in_quotes
        if ch == "," and not in_quotes:
            items.append("".join(current))
            current = []
        else:
            current.append(ch)
        previous = ch
    if current:
        items.append("".join(current))
    return items


def _unescape(value: str) -> str:
    return (
        value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
    )

"""Snapshot exporter: JSON lines.

One self-describing record per line (``kind`` is ``meta``, ``metric``,
or ``span``), written with sorted keys so two identical registries
serialize byte-identically — the property the DES determinism
regression pins down.  ``python -m repro obs-report`` and CI read it.
"""

from __future__ import annotations

import io
import json
from typing import Any, Dict, List, Optional, Union

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

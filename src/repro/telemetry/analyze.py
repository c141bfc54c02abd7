"""Trace analysis: loading, summaries, profiles, and export.

Backs the ``repro trace summary|show|export`` commands and the
``repro verify --profile`` report.  All functions work on plain record
dictionaries (see :mod:`repro.telemetry.trace` for the schema), so tests
and docs can feed synthetic traces without touching the filesystem.
"""

from __future__ import annotations

import glob
import json
import os
from collections import defaultdict
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.telemetry.trace import TRACE_SCHEMA_VERSION, _FILE_PREFIX

__all__ = [
    "TraceNotFound",
    "load_trace",
    "summarize_trace",
    "render_summary",
    "render_tree",
    "export_chrome",
    "profile_records",
    "render_profile",
    "canonical_tree",
]

#: Attribute keys that carry timing or environment noise; stripped by
#: :func:`canonical_tree` so identical runs compare equal.  Import scan
#: counts depend on the module rows the process already holds.
_VOLATILE_ATTRS = frozenset({
    "wall", "wall_seconds", "created_at", "pid",
    "skeleton", "whole_file",
})


# --------------------------------------------------------------------- #
# Loading
# --------------------------------------------------------------------- #

class TraceNotFound(ValueError):
    """No trace files under the requested directory.

    A distinct subclass so the CLI can tell "there is nothing here" (a
    missing, empty, or fully-rotated-away directory — exit 1 with a
    one-line message) apart from "the trace is unreadable" (schema from
    the future, I/O errors — exit 2)."""


def load_trace(directory: str) -> List[Dict[str, Any]]:
    """Read every trace file (live + rotated) under ``directory``.

    Records are returned oldest-first per node.  Raises
    :class:`TraceNotFound` if the directory holds no trace files, plain
    ``ValueError`` if a file declares a newer schema.
    """
    pattern = os.path.join(directory, f"{_FILE_PREFIX}*.jsonl*")
    paths = sorted(glob.glob(pattern))
    if not paths:
        raise TraceNotFound(f"no trace files under {directory!r}")

    def _order(path: str) -> Tuple[str, int]:
        base, _, suffix = path.partition(".jsonl")
        rotation = int(suffix.lstrip(".")) if suffix.lstrip(".") else 0
        # Higher rotation index = older; read those first.
        return (base, -rotation)

    records: List[Dict[str, Any]] = []
    for path in sorted(paths, key=_order):
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn tail line after a crash
                if record.get("t") == "meta":
                    schema = record.get("schema", 0)
                    if schema > TRACE_SCHEMA_VERSION:
                        raise ValueError(
                            f"{path}: trace schema {schema} is newer than "
                            f"supported {TRACE_SCHEMA_VERSION}")
                    continue
                records.append(record)
    return records


def _spans(records: Iterable[Dict[str, Any]],
           kind: Optional[str] = None) -> List[Dict[str, Any]]:
    return [rec for rec in records if rec.get("t") == "span"
            and (kind is None or rec.get("kind") == kind)]


def _events(records: Iterable[Dict[str, Any]],
            kind: Optional[str] = None) -> List[Dict[str, Any]]:
    return [rec for rec in records if rec.get("t") == "event"
            and (kind is None or rec.get("kind") == kind)]


# --------------------------------------------------------------------- #
# Summary
# --------------------------------------------------------------------- #

def summarize_trace(records: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold a merged trace into the payload behind ``repro trace summary``."""
    pass_spans = _spans(records, "pass")
    subgoal_spans = _spans(records, "subgoal")
    discharges = _events(records, "method")
    cache_events = _events(records, "cache")

    passes = [{
        "name": span.get("name", "?"),
        "seconds": round(float(span.get("dur", 0.0)), 6),
        "subgoals": span.get("attrs", {}).get("subgoals"),
        "solver": span.get("attrs", {}).get("solver"),
    } for span in pass_spans]
    passes.sort(key=lambda item: -item["seconds"])

    subgoals = [{
        "key": span.get("attrs", {}).get("key", "?"),
        "method": span.get("attrs", {}).get("method"),
        "seconds": round(float(span.get("dur", 0.0)), 6),
    } for span in subgoal_spans]
    subgoals.sort(key=lambda item: -item["seconds"])

    methods: Dict[str, Dict[str, Any]] = {}
    solvers: Dict[str, Dict[str, Any]] = {}
    for event in discharges:
        attrs = event.get("attrs", {})
        wall = float(attrs.get("wall", 0.0))
        for table, key in ((methods, attrs.get("method") or "?"),
                           (solvers, attrs.get("backend") or "(no solver)")):
            entry = table.setdefault(key, {"count": 0, "seconds": 0.0})
            entry["count"] += 1
            entry["seconds"] = round(entry["seconds"] + wall, 6)

    cache: Dict[str, int] = defaultdict(int)
    for event in cache_events:
        outcome = event.get("attrs", {}).get("outcome", "?")
        cache[f"{event.get('name', '?')}.{outcome}"] += 1

    # Module import scans, by path; each event counts its run's own.
    scans = {"skeleton": 0, "whole_file": 0}
    for event in _events(records, "deps"):
        for path in scans:
            scans[path] += int(event.get("attrs", {}).get(path) or 0)

    return {
        "schema": TRACE_SCHEMA_VERSION,
        "records": len(records),
        "passes": passes,
        "subgoals": subgoals,
        "methods": dict(sorted(methods.items())),
        "solvers": dict(sorted(solvers.items())),
        "cache": dict(sorted(cache.items())),
        "scans": scans,
    }


def render_summary(summary: Dict[str, Any], top: int = 10) -> List[str]:
    """Text lines for ``repro trace summary``."""
    lines = [f"trace summary: {summary['records']} records "
             f"(schema {summary['schema']})"]

    if summary["passes"]:
        lines.append("")
        lines.append(f"slowest passes (top {min(top, len(summary['passes']))}):")
        for item in summary["passes"][:top]:
            subgoals = (f"  {item['subgoals']} subgoals"
                        if item.get("subgoals") is not None else "")
            lines.append(f"  {item['name']:40s} {item['seconds']:9.4f}s"
                         f"{subgoals}")

    if summary["subgoals"]:
        lines.append("")
        lines.append(
            f"slowest subgoals (top {min(top, len(summary['subgoals']))}):")
        for item in summary["subgoals"][:top]:
            lines.append(f"  {item['key']:16s} {item['method'] or '?':24s} "
                         f"{item['seconds']:9.4f}s")

    for title, table in (("per-method discharge", summary["methods"]),
                         ("per-solver discharge", summary["solvers"])):
        if table:
            lines.append("")
            lines.append(f"{title}:")
            for name, entry in table.items():
                lines.append(f"  {name:32s} {entry['count']:5d} calls "
                             f"{entry['seconds']:9.4f}s")

    if summary["cache"]:
        lines.append("")
        lines.append("cache outcomes:")
        for name, count in summary["cache"].items():
            lines.append(f"  {name:32s} {count:6d}")

    scans = summary.get("scans") or {}
    if any(scans.values()):
        lines.append("")
        lines.append(f"import scans: {scans['skeleton']} skeleton, "
                     f"{scans['whole_file']} whole-file")
    return lines


# --------------------------------------------------------------------- #
# Tree rendering (``repro trace show``)
# --------------------------------------------------------------------- #

def render_tree(records: Sequence[Dict[str, Any]],
                max_depth: Optional[int] = None) -> List[str]:
    """Indented span/event tree, children ordered by start time."""
    children: Dict[Optional[int], List[Dict[str, Any]]] = defaultdict(list)
    for rec in records:
        if rec.get("t") in ("span", "event"):
            children[rec.get("parent")].append(rec)
    for bucket in children.values():
        bucket.sort(key=lambda rec: rec.get("start", rec.get("ts", 0.0)))

    lines: List[str] = []

    def _walk(parent: Optional[int], depth: int) -> None:
        if max_depth is not None and depth > max_depth:
            return
        for rec in children.get(parent, []):
            indent = "  " * depth
            attrs = rec.get("attrs") or {}
            note = " ".join(f"{key}={value}" for key, value in sorted(attrs.items())
                            if not isinstance(value, (list, dict)))
            if rec["t"] == "span":
                lines.append(f"{indent}{rec.get('name')} [{rec.get('kind')}] "
                             f"{float(rec.get('dur', 0.0)):.4f}s"
                             + (f"  {note}" if note else ""))
            else:
                lines.append(f"{indent}* {rec.get('name')} [{rec.get('kind')}]"
                             + (f"  {note}" if note else ""))
            _walk(rec.get("id"), depth + 1)

    _walk(None, 0)
    return lines


# --------------------------------------------------------------------- #
# Export (Chrome trace-event format)
# --------------------------------------------------------------------- #

def export_chrome(records: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Convert to Chrome's ``chrome://tracing`` / Perfetto JSON format."""
    events = []
    nodes = sorted({rec.get("node", "main") for rec in records
                    if rec.get("t") in ("span", "event")})
    pids = {node: index + 1 for index, node in enumerate(nodes)}
    for rec in records:
        if rec.get("t") == "span":
            events.append({
                "name": rec.get("name"),
                "cat": rec.get("kind", "span"),
                "ph": "X",
                "ts": float(rec.get("start", 0.0)) * 1e6,
                "dur": float(rec.get("dur", 0.0)) * 1e6,
                "pid": pids.get(rec.get("node", "main"), 0),
                "tid": 1,
                "args": rec.get("attrs") or {},
            })
        elif rec.get("t") == "event":
            events.append({
                "name": rec.get("name"),
                "cat": rec.get("kind", "event"),
                "ph": "i",
                "s": "t",
                "ts": float(rec.get("ts", 0.0)) * 1e6,
                "pid": pids.get(rec.get("node", "main"), 0),
                "tid": 1,
                "args": rec.get("attrs") or {},
            })
    return {"traceEvents": events,
            "metadata": {"schema": TRACE_SCHEMA_VERSION,
                         "nodes": {str(pid): node
                                   for node, pid in pids.items()}}}


# --------------------------------------------------------------------- #
# Profiling (``repro verify --profile``)
# --------------------------------------------------------------------- #

def profile_records(records: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Aggregate spans into self-time per function group.

    A *group* is ``kind:name`` for structural spans (``scheduler``,
    ``watch``) and just ``kind`` for the high-cardinality ones (every pass
    and subgoal has its own name); self time is a span's duration minus the
    duration of its direct children, so the report answers "where did the
    wall clock actually go" rather than double-counting nested regions.
    """
    spans = _spans(records)
    by_id = {span["id"]: span for span in spans if "id" in span}
    child_seconds: Dict[int, float] = defaultdict(float)
    for span in spans:
        parent = span.get("parent")
        if parent in by_id:
            child_seconds[parent] += float(span.get("dur", 0.0))

    groups: Dict[str, Dict[str, float]] = {}
    for span in spans:
        kind = span.get("kind", "span")
        if kind in ("pass", "subgoal"):
            group = kind
        else:
            group = f"{kind}:{span.get('name', '?')}"
        total = float(span.get("dur", 0.0))
        self_time = max(0.0, total - child_seconds.get(span.get("id"), 0.0))
        entry = groups.setdefault(group, {"count": 0, "total_seconds": 0.0,
                                          "self_seconds": 0.0})
        entry["count"] += 1
        entry["total_seconds"] += total
        entry["self_seconds"] += self_time

    for entry in groups.values():
        entry["total_seconds"] = round(entry["total_seconds"], 6)
        entry["self_seconds"] = round(entry["self_seconds"], 6)

    ordered = dict(sorted(groups.items(),
                          key=lambda item: -item[1]["self_seconds"]))
    return {
        "schema": TRACE_SCHEMA_VERSION,
        "spans": len(spans),
        "groups": ordered,
        "total_self_seconds": round(
            sum(entry["self_seconds"] for entry in groups.values()), 6),
    }


def render_profile(profile: Dict[str, Any]) -> List[str]:
    """Text lines for the ``--profile`` report."""
    lines = [f"profile: {profile['spans']} spans, "
             f"{profile['total_self_seconds']:.4f}s self time"]
    header = f"{'group':28s} {'count':>6s} {'self(s)':>10s} {'total(s)':>10s}"
    lines.append(header)
    lines.append("-" * len(header))
    for group, entry in profile["groups"].items():
        lines.append(f"{group:28s} {entry['count']:6d} "
                     f"{entry['self_seconds']:10.4f} "
                     f"{entry['total_seconds']:10.4f}")
    return lines


# --------------------------------------------------------------------- #
# Canonical form (determinism tests)
# --------------------------------------------------------------------- #

def canonical_tree(records: Sequence[Dict[str, Any]]) -> List[Any]:
    """A timestamp- and id-free view of the span/event tree.

    Two identical runs (same passes, same cache state) must produce equal
    canonical trees; sibling order follows emission order, which is
    deterministic for sequential execution.
    """
    children: Dict[Optional[int], List[Dict[str, Any]]] = defaultdict(list)
    for rec in records:
        if rec.get("t") in ("span", "event"):
            children[rec.get("parent")].append(rec)

    def _canon(rec: Dict[str, Any]) -> Dict[str, Any]:
        attrs = {key: value for key, value in (rec.get("attrs") or {}).items()
                 if key not in _VOLATILE_ATTRS}
        return {
            "t": rec["t"],
            "name": rec.get("name"),
            "kind": rec.get("kind"),
            "attrs": attrs,
            "children": [_canon(child)
                         for child in children.get(rec.get("id"), [])],
        }

    return [_canon(rec) for rec in children.get(None, [])]

"""Human-readable and machine-readable reports for verification runs.

The verifier returns :class:`~repro.verify.results.VerificationResult`
objects; this module renders collections of them as plain-text tables,
Markdown, or JSON-serialisable dictionaries.  The CLI (``python -m repro``)
and the benchmark drivers use these helpers, and they are handy in notebooks
or CI logs when a whole pass suite is re-verified after a change.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Sequence

from repro.verify.results import VerificationResult


class ReportSummary:
    """Aggregate statistics over a collection of verification results."""

    def __init__(self, total: int = 0, verified: int = 0, rejected: int = 0,
                 unsupported: int = 0, total_subgoals: int = 0,
                 total_seconds: float = 0.0, slowest_pass: str = "",
                 slowest_seconds: float = 0.0,
                 counterexamples: Optional[List[str]] = None) -> None:
        self.total = total
        self.verified = verified
        self.rejected = rejected
        self.unsupported = unsupported
        self.total_subgoals = total_subgoals
        self.total_seconds = total_seconds
        self.slowest_pass = slowest_pass
        self.slowest_seconds = slowest_seconds
        self.counterexamples = [] if counterexamples is None else counterexamples

    @property
    def all_verified(self) -> bool:
        return self.verified == self.total and self.total > 0


def summarize(results: Iterable[VerificationResult]) -> ReportSummary:
    """Fold a sequence of verification results into a :class:`ReportSummary`."""
    summary = ReportSummary()
    for result in results:
        summary.total += 1
        if result.verified:
            summary.verified += 1
        elif not result.supported:
            summary.unsupported += 1
        else:
            summary.rejected += 1
        summary.total_subgoals += result.num_subgoals
        summary.total_seconds += result.time_seconds
        if result.time_seconds > summary.slowest_seconds:
            summary.slowest_seconds = result.time_seconds
            summary.slowest_pass = result.pass_name
        if result.counterexample is not None:
            summary.counterexamples.append(result.pass_name)
    return summary


def result_to_dict(result: VerificationResult) -> Dict[str, object]:
    """A JSON-serialisable view of one verification result."""
    counterexample = None
    if result.counterexample is not None:
        counterexample = {
            "kind": result.counterexample.kind,
            "description": result.counterexample.description,
            "confirmed": result.counterexample.confirmed,
            "input_qasm": (
                result.counterexample.input_circuit.to_qasm()
                if result.counterexample.input_circuit is not None
                else None
            ),
        }
    return {
        "pass": result.pass_name,
        "verified": result.verified,
        "supported": result.supported,
        "subgoals": result.num_subgoals,
        "paths_explored": result.paths_explored,
        "time_seconds": round(result.time_seconds, 6),
        "lines_of_code": result.analysis.lines_of_code if result.analysis else 0,
        "templates": list(result.analysis.templates_used) if result.analysis else [],
        "utilities": list(result.analysis.utilities_used) if result.analysis else [],
        "rules_used": list(result.rules_used),
        "failure_reasons": list(result.failure_reasons),
        "counterexample": counterexample,
    }


def to_json(results: Sequence[VerificationResult], indent: int = 2,
            stats: Optional[object] = None) -> str:
    """Serialise a batch of results (plus the summary) to JSON text.

    ``stats`` is an :class:`~repro.engine.driver.EngineStats` (or anything
    with a ``to_dict()``); when given, the payload gains an ``engine`` block
    with a fixed field order (``cache_hits``, ``cache_misses``, ``jobs``,
    ``wall_seconds``, ...) so JSON output is byte-for-byte comparable across
    runs that did the same work.
    """
    summary = summarize(results)
    payload = {
        "summary": {
            "total": summary.total,
            "verified": summary.verified,
            "rejected": summary.rejected,
            "unsupported": summary.unsupported,
            "total_subgoals": summary.total_subgoals,
            "total_seconds": round(summary.total_seconds, 6),
            "all_verified": summary.all_verified,
        },
        "results": [result_to_dict(result) for result in results],
    }
    if stats is not None:
        payload["engine"] = stats.to_dict()
    return json.dumps(payload, indent=indent)


def _stats_lines(stats: Optional[object]) -> List[str]:
    """Engine-statistics footer lines: the one-line run summary."""
    if stats is None:
        return []
    return [stats.summary_line()]


def _status(result: VerificationResult) -> str:
    if result.verified:
        return "verified"
    if not result.supported:
        return "unsupported"
    return "REJECTED"


def to_text(results: Sequence[VerificationResult], title: Optional[str] = None,
            stats: Optional[object] = None) -> str:
    """Render results as the fixed-width table used by the CLI."""
    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    header = f"{'pass':34s} {'status':>11s} {'subgoals':>8s} {'time(s)':>8s}"
    lines.append(header)
    lines.append("-" * len(header))
    for result in results:
        cached = "  (cached)" if result.from_cache else ""
        lines.append(
            f"{result.pass_name:34s} {_status(result):>11s} "
            f"{result.num_subgoals:8d} {result.time_seconds:8.2f}{cached}"
        )
    summary = summarize(results)
    lines.append("-" * len(header))
    lines.append(
        f"{summary.verified}/{summary.total} verified, {summary.rejected} rejected, "
        f"{summary.unsupported} unsupported; "
        f"{summary.total_subgoals} subgoals in {summary.total_seconds:.2f}s "
        f"(slowest: {summary.slowest_pass or 'n/a'})"
    )
    for name in summary.counterexamples:
        lines.append(f"counterexample produced for {name}")
    lines.extend(_stats_lines(stats))
    return "\n".join(lines)


def to_markdown(results: Sequence[VerificationResult], title: Optional[str] = None,
                stats: Optional[object] = None) -> str:
    """Render results as a GitHub-flavoured Markdown table."""
    lines: List[str] = []
    if title:
        lines.append(f"## {title}")
        lines.append("")
    lines.append("| pass | status | subgoals | time (s) | templates | utilities |")
    lines.append("|---|---|---:|---:|---|---|")
    for result in results:
        templates = ", ".join(result.analysis.templates_used) if result.analysis else ""
        utilities = ", ".join(result.analysis.utilities_used) if result.analysis else ""
        lines.append(
            f"| `{result.pass_name}` | {_status(result)} | {result.num_subgoals} "
            f"| {result.time_seconds:.2f} | {templates} | {utilities} |"
        )
    summary = summarize(results)
    lines.append("")
    lines.append(
        f"**{summary.verified} / {summary.total} verified** "
        f"({summary.rejected} rejected, {summary.unsupported} unsupported), "
        f"{summary.total_seconds:.2f}s total."
    )
    stats_lines = _stats_lines(stats)
    if stats_lines:
        lines.append("")
        lines.extend(f"_{line}_" for line in stats_lines)
    return "\n".join(lines)

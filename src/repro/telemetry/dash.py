"""``repro dash``: the whole observability stack on one offline page.

Everything this repo records — history rows, store analytics, the fuzz
corpus — already lives in files next to the proof cache.  This module
folds them into a single self-contained HTML report: inline CSS, inline
SVG charts, **no JavaScript and no external references**, so the file
renders identically from a laptop, a CI artifact tab, or an air-gapped
triage box.

Every section renders unconditionally.  Missing inputs (no history yet,
no traced run, no corpus) degrade to an explicit "no data"
placeholder rather than a vanishing section, so the report's shape is
stable and CI can assert on section ids:

* ``history-trends`` — wall seconds and pass counts across recorded runs;
* ``latest-run`` — the newest run's slowest passes;
* ``tier-ratios`` — pass/subgoal hit-ratio evolution from the
  ``store_stats`` history table, plus the latest canonical aggregate;
* ``fuzz-corpus`` — corpus size and failure-kind breakdown.

All chart geometry is computed with plain arithmetic and emitted as SVG
polylines/rects; readers who block SVG still get the numbers, because
each chart is paired with a text summary.
"""

from __future__ import annotations

import html
import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.telemetry.history import TelemetryHistory, history_path
from repro.telemetry.stats import load_store_stats

__all__ = ["render_dashboard", "write_dashboard", "DASH_SECTIONS"]

#: Section ids, in page order.  CI asserts each appears in the output.
DASH_SECTIONS = (
    "history-trends",
    "latest-run",
    "tier-ratios",
    "fuzz-corpus",
)

_MAX_RUNS_PLOTTED = 30

_CSS = """
body { font-family: ui-monospace, Menlo, Consolas, monospace;
       margin: 2rem auto; max-width: 60rem; color: #1a1a24;
       background: #fbfbfd; }
h1 { font-size: 1.3rem; }
h2 { font-size: 1.05rem; border-bottom: 1px solid #d7d7e0;
     padding-bottom: .25rem; margin-top: 2rem; }
table { border-collapse: collapse; margin: .6rem 0; }
th, td { text-align: left; padding: .15rem .8rem .15rem 0;
         font-size: .85rem; }
th { border-bottom: 1px solid #c9c9d4; }
td.num, th.num { text-align: right; }
.placeholder { color: #8a8a99; font-style: italic; }
.meta { color: #6a6a7a; font-size: .8rem; }
svg { background: #ffffff; border: 1px solid #e3e3ec; margin: .4rem 0; }
svg text { font-size: 9px; fill: #6a6a7a; }
"""


def _esc(value: object) -> str:
    return html.escape(str(value), quote=True)


# --------------------------------------------------------------------- #
# SVG primitives
# --------------------------------------------------------------------- #
def _sparkline(values: Sequence[float], *, width: int = 640,
               height: int = 90, label: str = "") -> str:
    """A single polyline chart; empty input yields an empty-axes frame."""
    pad = 8
    parts = [f'<svg width="{width}" height="{height}" role="img" '
             f'aria-label="{_esc(label)}">']
    if values:
        top = max(max(values), 1e-9)
        span_x = max(len(values) - 1, 1)
        points = []
        for index, value in enumerate(values):
            x = pad + (width - 2 * pad) * index / span_x
            y = (height - pad) - (height - 2 * pad) * (value / top)
            points.append(f"{x:.1f},{y:.1f}")
        parts.append('<polyline fill="none" stroke="#4a6fb5" '
                     f'stroke-width="1.5" points="{" ".join(points)}"/>')
        parts.append(f'<text x="{pad}" y="{pad + 2}">'
                     f"max {top:.4g}</text>")
    parts.append("</svg>")
    return "".join(parts)


def _hbars(rows: Sequence[tuple], *, width: int = 640,
           bar: int = 14, label: str = "") -> str:
    """Horizontal bars for ``(name, value)`` rows, widest value full-scale."""
    if not rows:
        return ""
    gap = 6
    left = 220
    height = len(rows) * (bar + gap) + gap
    top_value = max(max(value for _, value in rows), 1e-9)
    parts = [f'<svg width="{width}" height="{height}" role="img" '
             f'aria-label="{_esc(label)}">']
    for index, (name, value) in enumerate(rows):
        y = gap + index * (bar + gap)
        length = (width - left - 80) * (value / top_value)
        parts.append(f'<text x="4" y="{y + bar - 3}">{_esc(name)}</text>')
        parts.append(f'<rect x="{left}" y="{y}" width="{max(length, 1):.1f}" '
                     f'height="{bar}" fill="#4a6fb5"/>')
        parts.append(f'<text x="{left + max(length, 1) + 6:.1f}" '
                     f'y="{y + bar - 3}">{value:.4f}s</text>')
    parts.append("</svg>")
    return "".join(parts)


def _ratio_lines(series: Sequence[Dict], *, width: int = 640,
                 height: int = 110) -> str:
    """Pass (blue) and subgoal (green) hit ratios per run, 0..1 scale."""
    pad = 10
    parts = [f'<svg width="{width}" height="{height}" role="img" '
             'aria-label="tier hit ratios over runs">']
    span_x = max(len(series) - 1, 1)

    def ratio(row: Dict, hits_key: str, misses_key: str) -> float:
        hits = int(row.get(hits_key) or 0)
        total = hits + int(row.get(misses_key) or 0)
        return hits / total if total else 0.0

    for hits_key, misses_key, colour in (
            ("pass_hits", "pass_misses", "#4a6fb5"),
            ("subgoal_hits", "subgoal_misses", "#2f7d4f")):
        points = []
        for index, row in enumerate(series):
            x = pad + (width - 2 * pad) * index / span_x
            y = (height - pad) - (height - 2 * pad) * ratio(
                row, hits_key, misses_key)
            points.append(f"{x:.1f},{y:.1f}")
        if points:
            parts.append('<polyline fill="none" stroke="' + colour +
                         f'" stroke-width="1.5" points="{" ".join(points)}"/>')
    parts.append(f'<text x="{pad}" y="{pad + 2}">1.0</text>')
    parts.append(f'<text x="{pad}" y="{height - 2}">0.0 '
                 "&#183; pass=blue subgoal=green</text>")
    parts.append("</svg>")
    return "".join(parts)


def _placeholder(text: str) -> str:
    return f'<p class="placeholder">{_esc(text)}</p>'


# --------------------------------------------------------------------- #
# Sections
# --------------------------------------------------------------------- #
def _section(section_id: str, title: str, body: str) -> str:
    return (f'<section id="{section_id}"><h2>{_esc(title)}</h2>'
            f"{body}</section>")


def _history_trends(runs: List[Dict]) -> str:
    if not runs:
        return _placeholder("no recorded runs yet — run a traced "
                            "`repro verify` to populate history.sqlite")
    oldest_first = list(reversed(runs))
    walls = [float(run.get("wall_seconds") or 0.0) for run in oldest_first]
    body = [f"<p>{len(runs)} recorded run(s); newest #{runs[0]['id']}, "
            f"latest wall {walls[-1]:.4f}s.</p>",
            _sparkline(walls, label="wall seconds per run"),
            "<table><tr><th>run</th><th class=num>passes</th>"
            "<th class=num>subgoals</th><th class=num>wall s</th>"
            "<th>backend</th><th>git</th></tr>"]
    for run in runs[:10]:
        body.append(
            f"<tr><td>#{run['id']}</td>"
            f"<td class=num>{int(run.get('passes') or 0)}</td>"
            f"<td class=num>{int(run.get('subgoals') or 0)}</td>"
            f"<td class=num>{float(run.get('wall_seconds') or 0.0):.4f}</td>"
            f"<td>{_esc(run.get('backend') or '-')}</td>"
            f"<td>{_esc(run.get('git') or '-')}</td></tr>")
    body.append("</table>")
    return "".join(body)


def _latest_run(runs: List[Dict]) -> str:
    if not runs:
        return _placeholder("no traced run recorded yet")
    run = runs[0]
    summary = run.get("summary") or {}
    body = [f"<p>run #{run['id']}: {int(run.get('passes') or 0)} passes, "
            f"{int(run.get('subgoals') or 0)} subgoals, "
            f"{float(run.get('wall_seconds') or 0.0):.4f}s wall.</p>"]

    passes = summary.get("passes") or []
    if passes:
        rows = [(item.get("name") or "?",
                 float(item.get("seconds") or 0.0)) for item in passes[:8]]
        body.append(_hbars(rows, label="slowest passes"))
    else:
        body.append(_placeholder("no pass spans in the recorded summary"))
    return "".join(body)


def _tier_ratios(series: List[Dict], latest: Optional[Dict]) -> str:
    if not series and not latest:
        return _placeholder("no store analytics recorded yet — traced runs "
                            "write store-stats.json and a history row")
    body = []
    if series:
        body.append(f"<p>{len(series)} run(s) with store analytics.</p>")
        body.append(_ratio_lines(series[-_MAX_RUNS_PLOTTED:]))
    if latest:
        tiers = latest.get("tiers") or {}
        body.append("<table><tr><th>tier</th><th class=num>hits</th>"
                    "<th class=num>misses</th><th class=num>ratio</th></tr>")
        for tier in ("pass", "subgoal"):
            row = tiers.get(tier) or {}
            misses = int(row.get("misses") or 0) + int(row.get("stale") or 0)
            ratio = row.get("ratio")
            body.append(
                f"<tr><td>{tier}</td>"
                f"<td class=num>{int(row.get('hits') or 0)}</td>"
                f"<td class=num>{misses}</td>"
                f"<td class=num>"
                f"{'-' if ratio is None else format(ratio, '.3f')}</td></tr>")
        stored = int((tiers.get("certificate") or {}).get("stored") or 0)
        body.append(f"<tr><td>certificate</td><td class=num>-</td>"
                    f"<td class=num>-</td><td class=num>-</td></tr></table>")
        body.append(f"<p class=meta>certificates stored: {stored}; wasted "
                    f"evictions: {int(latest.get('wasted_evictions') or 0)}; "
                    f"hot keys tracked: "
                    f"{len(latest.get('hot_keys') or [])}.</p>")
    return "".join(body)


def _fuzz_corpus(corpus_dir: Optional[os.PathLike]) -> str:
    entries: List[Dict] = []
    corrupt = 0
    meta: Optional[Dict] = None
    if corpus_dir is not None and Path(corpus_dir).exists():
        # Imported lazily: the fuzz package pulls in circuit machinery the
        # rest of the dashboard never needs.
        from repro.fuzz.corpus import load_corpus, load_meta
        entries, corrupt = load_corpus(str(corpus_dir))
        meta = load_meta(str(corpus_dir))
    if not entries and meta is None:
        return _placeholder("no fuzz corpus found — `repro fuzz` records "
                            "minimised failures here")
    kinds: Dict[str, int] = {}
    for entry in entries:
        kind = str(entry.get("kind") or "?")
        kinds[kind] = kinds.get(kind, 0) + 1
    body = [f"<p>{len(entries)} corpus entr"
            f"{'y' if len(entries) == 1 else 'ies'}"
            + (f", {corrupt} corrupt line(s) skipped" if corrupt else "")
            + ".</p>"]
    if kinds:
        body.append("<table><tr><th>failure kind</th>"
                    "<th class=num>entries</th></tr>")
        for kind, count in sorted(kinds.items()):
            body.append(f"<tr><td>{_esc(kind)}</td>"
                        f"<td class=num>{count}</td></tr>")
        body.append("</table>")
    if meta:
        body.append(f"<p class=meta>campaign: seed "
                    f"{_esc(meta.get('seed', '-'))}, "
                    f"{_esc(meta.get('circuits', '-'))} circuits tried.</p>")
    return "".join(body)


# --------------------------------------------------------------------- #
# Entry points
# --------------------------------------------------------------------- #
def render_dashboard(cache_dir: os.PathLike, *,
                     corpus_dir: Optional[os.PathLike] = None,
                     max_runs: int = _MAX_RUNS_PLOTTED) -> str:
    """The full report as one HTML string.

    Reads are strictly best-effort: a history database is only *opened*
    when its file already exists (rendering a report must not create
    stores), and every source degrades to its section's placeholder.
    """
    runs: List[Dict] = []
    series: List[Dict] = []
    if history_path(cache_dir).exists():
        try:
            with TelemetryHistory(cache_dir) as history:
                runs = history.runs(limit=max_runs)
                series = history.store_stats_series(limit=max_runs)
        except Exception:
            runs, series = [], []

    latest_stats = load_store_stats(cache_dir)
    if latest_stats is None and series:
        latest_stats = series[-1].get("payload")

    sections = [
        _section("history-trends", "History trends", _history_trends(runs)),
        _section("latest-run", "Latest run", _latest_run(runs)),
        _section("tier-ratios", "Store tier hit ratios",
                 _tier_ratios(series, latest_stats)),
        _section("fuzz-corpus", "Fuzz corpus", _fuzz_corpus(corpus_dir)),
    ]
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">'
        "<title>repro dash</title>"
        f"<style>{_CSS}</style></head><body>"
        "<h1>repro dash</h1>"
        f'<p class="meta">cache: {_esc(cache_dir)} &#183; self-contained '
        "report: no scripts, no network.</p>"
        + "".join(sections) + "</body></html>\n")


def write_dashboard(cache_dir: os.PathLike, out_path: os.PathLike, *,
                    corpus_dir: Optional[os.PathLike] = None) -> Path:
    """Render and atomically write the report; returns the output path."""
    out = Path(out_path)
    text = render_dashboard(cache_dir, corpus_dir=corpus_dir)
    tmp = out.with_name(out.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, out)
    return out

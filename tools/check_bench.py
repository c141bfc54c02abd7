#!/usr/bin/env python3
"""Bench-regression checker: fresh ``repro bench`` output vs the recorded
baselines in ``benchmarks/recorded/``.

Raw wall-clock numbers do not transfer between machines, so the checker
never compares seconds against seconds.  Each bench kind instead gets two
classes of invariant:

* **Structural (noise-free).**  Facts that are deterministic on any
  machine: verdicts identical between compared modes, the suite size,
  the number of trace records a warm run emits, a warm run's pass and
  subgoal hits.  These must match the recorded baseline *exactly* — a drift here
  means the bench is measuring different work, not that the machine is
  slow.
* **Ratio (noise-tolerant).**  Dimensionless figures of merit — the
  tracing-on and accounting-on overhead percentages — bounded loosely
  enough to survive a busy shared runner while still catching an
  order-of-magnitude regression.

Run from the repository root::

    PYTHONPATH=src python -m repro.bench.telemetry --record fresh.json
    python tools/check_bench.py --kind telemetry --fresh fresh.json

Exit status is nonzero on any failed invariant; every failure is listed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List

REPO_ROOT = Path(__file__).resolve().parent.parent
RECORDED_DIR = REPO_ROOT / "benchmarks" / "recorded"

# CI invokes this script without PYTHONPATH=src; the ratio-bound logic it
# shares with `repro trace diff` lives in repro.telemetry.bounds, so put
# the in-repo sources on the path before importing it.
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.telemetry.bounds import DEFAULT_MAX_OVERHEAD_PCT, exceeds_ratio  # noqa: E402


def _load(path: Path) -> Dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"check_bench: cannot read {path}: {exc}")


def check_telemetry(fresh: Dict, recorded: Dict, *,
                    max_overhead_pct: float) -> List[str]:
    errors = []
    if fresh.get("verdicts_identical") is not True:
        errors.append("telemetry: tracing changed verdicts")
    if fresh.get("passes") != recorded.get("passes"):
        errors.append(
            f"telemetry: suite size {fresh.get('passes')} != recorded "
            f"{recorded.get('passes')}")
    # A warm run's record count is deterministic; a change means the
    # instrumentation itself changed and the baseline must be re-recorded.
    fresh_records = fresh.get("records_per_warm_run")
    if fresh_records != recorded.get("records_per_warm_run"):
        errors.append(
            f"telemetry: records per warm run {fresh_records!r} drifted "
            f"from recorded {recorded.get('records_per_warm_run')!r}")
    overhead = float(fresh.get("overhead_pct", 0.0))
    if exceeds_ratio(100.0 + overhead, 100.0, max_pct=max_overhead_pct):
        errors.append(
            f"telemetry: tracing overhead {overhead:+.1f}% exceeds the "
            f"{max_overhead_pct}% CI bound (recorded: "
            f"{recorded.get('overhead_pct'):+.1f}%)")
    return errors


def check_stats(fresh: Dict, recorded: Dict, *,
                max_overhead_pct: float) -> List[str]:
    errors = []
    if fresh.get("verdicts_identical") is not True:
        errors.append("stats: store accounting changed verdicts")
    if fresh.get("aggregates_identical") is not True:
        errors.append("stats: canonical aggregates differed between "
                      "enabled warm runs (determinism promise broken)")
    if fresh.get("passes") != recorded.get("passes"):
        errors.append(
            f"stats: suite size {fresh.get('passes')} != recorded "
            f"{recorded.get('passes')}")
    # Warm-run tier counters are deterministic on any machine; drift means
    # the accounting itself changed and the baseline must be re-recorded.
    for key in ("pass_hits", "subgoal_hits"):
        if fresh.get(key) != recorded.get(key):
            errors.append(
                f"stats: {key} {fresh.get(key)!r} drifted from recorded "
                f"{recorded.get(key)!r}")
    overhead = float(fresh.get("overhead_pct", 0.0))
    if exceeds_ratio(100.0 + overhead, 100.0, max_pct=max_overhead_pct):
        errors.append(
            f"stats: accounting overhead {overhead:+.1f}% exceeds the "
            f"{max_overhead_pct}% CI bound (recorded: "
            f"{recorded.get('overhead_pct'):+.1f}%)")
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kind", required=True,
                        choices=("telemetry", "stats"),
                        help="which bench the fresh JSON came from")
    parser.add_argument("--fresh", required=True, metavar="PATH",
                        help="JSON written by `repro bench <kind> --record`")
    parser.add_argument("--recorded", default=None, metavar="PATH",
                        help="baseline JSON (default: "
                             "benchmarks/recorded/bench-<kind>.json)")
    parser.add_argument("--max-overhead-pct", type=float,
                        default=DEFAULT_MAX_OVERHEAD_PCT,
                        help="telemetry/stats: overhead ceiling (%%)")
    args = parser.parse_args(argv)

    recorded_path = Path(args.recorded) if args.recorded else \
        RECORDED_DIR / f"bench-{args.kind}.json"
    fresh = _load(Path(args.fresh))
    recorded = _load(recorded_path)

    if args.kind == "stats":
        errors = check_stats(fresh, recorded,
                             max_overhead_pct=args.max_overhead_pct)
    else:
        errors = check_telemetry(fresh, recorded,
                                 max_overhead_pct=args.max_overhead_pct)

    if errors:
        for error in errors:
            print(f"check_bench: {error}", file=sys.stderr)
        return 1
    print(f"check_bench: {args.kind} bench within recorded bounds "
          f"({recorded_path.relative_to(REPO_ROOT)})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Store-analytics overhead benchmark: accounting off vs on, warm suite.

The proof-store analytics (:mod:`repro.telemetry.stats`) are *always on*
in normal runs, so their budget is stricter than tracing's: per-access
accounting must stay a small fraction of even a warm suite, where every
access is a cache hit and no proof work hides the bookkeeping.

Same discipline as :mod:`repro.bench.telemetry`: populate a scratch
cache once (cold), then alternate warm runs with the recorder disabled
and enabled, ``repeats`` times each, interleaved so drift biases both
sides equally, and compare the minimum walls with the collector paused.
Two invariants ride along as hard pass/fail bits: verdicts must be
identical in both modes (analytics observe a run, never steer one), and
the canonical aggregate must be byte-identical between enabled runs —
the determinism promise ``repro stats --format json`` is built on.

Run as ``repro bench stats [--record PATH]`` or
``python -m repro.bench.stats``; CI bounds the recorded overhead with
``tools/check_bench.py --kind stats``.
"""

from __future__ import annotations

import argparse
import gc
import json
import tempfile
import time
from typing import Dict, List, Optional, Sequence

from repro.bench.table2 import pass_kwargs_for
from repro.engine import verify_passes
from repro.passes import ALL_VERIFIED_PASSES, EXTENSION_PASSES
from repro.telemetry import stats as store_stats


def _suite(pass_classes: Optional[Sequence] = None) -> List:
    return list(pass_classes) if pass_classes is not None \
        else list(ALL_VERIFIED_PASSES) + list(EXTENSION_PASSES)


def _warm_run(suite, cache_dir: str):
    started = time.perf_counter()
    report = verify_passes(suite, cache_dir=cache_dir,
                           pass_kwargs_fn=pass_kwargs_for)
    return time.perf_counter() - started, report


def run_stats_bench(pass_classes: Optional[Sequence] = None,
                    repeats: int = 20) -> Dict[str, object]:
    """Measure warm-suite wall with store accounting off vs on."""
    suite = _suite(pass_classes)
    off_walls: List[float] = []
    on_walls: List[float] = []
    canonical_blobs: List[str] = []
    latest: Optional[Dict] = None
    with tempfile.TemporaryDirectory(prefix="repro-bench-stats-") as cache_dir:
        was_enabled = store_stats.set_enabled(True)
        gc_was_enabled = gc.isenabled()
        try:
            cold = verify_passes(suite, cache_dir=cache_dir,
                                 pass_kwargs_fn=pass_kwargs_for)
            verdicts = [(r.pass_name, r.verified) for r in cold.results]
            enabled_verdicts = verdicts

            gc.collect()
            gc.disable()
            for _ in range(repeats):
                store_stats.set_enabled(False)
                wall, report = _warm_run(suite, cache_dir)
                off_walls.append(wall)

                store_stats.set_enabled(True)
                wall, report = _warm_run(suite, cache_dir)
                on_walls.append(wall)
                enabled_verdicts = [(r.pass_name, r.verified)
                                    for r in report.results]
                latest = store_stats.load_store_stats(cache_dir)
                if latest is not None:
                    canonical_blobs.append(store_stats.canonical_bytes(latest))
        finally:
            if gc_was_enabled:
                gc.enable()
            store_stats.set_enabled(was_enabled)

    off = min(off_walls)
    on = min(on_walls)
    tiers = (latest or {}).get("canonical", {}).get("tiers", {})
    return {
        "passes": len(suite),
        "repeats": repeats,
        "warm_off_seconds": round(off, 6),
        "warm_on_seconds": round(on, 6),
        "overhead_pct": round((on - off) / max(off, 1e-9) * 100.0, 3),
        # Warm-run tier counters: deterministic, so the recorded file pins
        # them exactly and CI catches accounting drift, not just slowness.
        "pass_hits": int((tiers.get("pass") or {}).get("hits") or 0),
        "subgoal_hits": int((tiers.get("subgoal") or {}).get("hits") or 0),
        "verdicts_identical": enabled_verdicts == verdicts,
        "aggregates_identical": len(set(canonical_blobs)) <= 1
                                and bool(canonical_blobs),
    }


def render(payload: Dict[str, object]) -> List[str]:
    return [
        f"stats bench: {payload['passes']} passes, warm, "
        f"min of {payload['repeats']}",
        f"  accounting off: {payload['warm_off_seconds']:.4f}s",
        f"  accounting on : {payload['warm_on_seconds']:.4f}s "
        f"({payload['pass_hits']} pass hits / "
        f"{payload['subgoal_hits']} subgoal hits per run)",
        f"  overhead      : {payload['overhead_pct']:+.1f}%",
        f"  verdicts identical  : {payload['verdicts_identical']}",
        f"  aggregates identical: {payload['aggregates_identical']}",
    ]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=20, metavar="N",
                        help="warm runs per mode (min is reported)")
    parser.add_argument("--record", default=None, metavar="PATH",
                        help="write the measured comparison as JSON")
    args = parser.parse_args(list(argv) if argv is not None else None)

    payload = run_stats_bench(repeats=args.repeats)
    for line in render(payload):
        print(line)
    if args.record:
        with open(args.record, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    ok = payload["verdicts_identical"] and payload["aggregates_identical"]
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())

"""Telemetry overhead benchmark: tracing off vs on, warm suite.

The telemetry design rule is "always cheap": instrumented sites pay one
global read and a ``None`` comparison when tracing is off, and streaming
spans to the JSONL sink must stay a small fraction of even a *warm* run —
the worst case for relative overhead, since a warm 47-pass suite does no
proof work at all and every microsecond of bookkeeping shows.

The measurement: populate a scratch cache once (cold), then alternate
warm runs with tracing disabled and enabled, ``repeats`` times each, and
compare the minimum walls.  A warm suite is single-digit milliseconds, so
ambient noise (co-tenant load, frequency scaling, a stray GC cycle) dwarfs
the true overhead in any *single* run; min-of-N is the standard filter —
slowness is one-sided, so the floors are the clean signal and means or
medians smear multi-millisecond hiccups into a microsecond-scale effect.
The collector is paused around the timed region for the same reason.
Verdicts must be identical in both modes — telemetry observes a run, it
must never steer one.

Run as ``repro bench telemetry [--record PATH]`` or
``python -m repro.bench.telemetry``; CI bounds the recorded overhead with
``tools/check_bench.py``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import tempfile
import time
from typing import Dict, List, Optional, Sequence

from repro.bench.table2 import pass_kwargs_for
from repro.engine import verify_passes
from repro.passes import ALL_VERIFIED_PASSES, EXTENSION_PASSES
from repro.telemetry import trace as _trace


def _suite(pass_classes: Optional[Sequence] = None) -> List:
    return list(pass_classes) if pass_classes is not None \
        else list(ALL_VERIFIED_PASSES) + list(EXTENSION_PASSES)


def _warm_run(suite, cache_dir: str):
    started = time.perf_counter()
    report = verify_passes(suite, cache_dir=cache_dir,
                           pass_kwargs_fn=pass_kwargs_for)
    return time.perf_counter() - started, report


def run_telemetry_bench(pass_classes: Optional[Sequence] = None,
                        repeats: int = 20) -> Dict[str, object]:
    """Measure warm-suite wall with tracing off vs on.

    Off/on runs are interleaved so slow drift (thermal, a background
    process) biases both sides equally instead of whichever came second.
    """
    suite = _suite(pass_classes)
    off_walls: List[float] = []
    on_walls: List[float] = []
    spans = events = 0
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as cache_dir, \
            tempfile.TemporaryDirectory(prefix="repro-bench-trace-") as trace_dir:
        cold = verify_passes(suite, cache_dir=cache_dir,
                             pass_kwargs_fn=pass_kwargs_for)
        verdicts = [(r.pass_name, r.verified) for r in cold.results]

        traced_verdicts = verdicts
        gc_was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            for index in range(repeats):
                wall, report = _warm_run(suite, cache_dir)
                off_walls.append(wall)
                assert _trace.current() is None

                _trace.configure(os.path.join(trace_dir, str(index)),
                                 node="bench")
                try:
                    wall, report = _warm_run(suite, cache_dir)
                finally:
                    summary = _trace.shutdown()
                on_walls.append(wall)
                spans, events = summary["spans"], summary["events"]
                traced_verdicts = [(r.pass_name, r.verified)
                                   for r in report.results]
        finally:
            if gc_was_enabled:
                gc.enable()

    off = min(off_walls)
    on = min(on_walls)
    return {
        "passes": len(suite),
        "repeats": repeats,
        "warm_off_seconds": round(off, 6),
        "warm_on_seconds": round(on, 6),
        "overhead_pct": round((on - off) / max(off, 1e-9) * 100.0, 3),
        "records_per_warm_run": {"spans": spans, "events": events},
        "verdicts_identical": traced_verdicts == verdicts,
    }


def render(payload: Dict[str, object]) -> List[str]:
    records = payload["records_per_warm_run"]
    return [
        f"telemetry bench: {payload['passes']} passes, warm, "
        f"min of {payload['repeats']}",
        f"  tracing off: {payload['warm_off_seconds']:.4f}s",
        f"  tracing on : {payload['warm_on_seconds']:.4f}s "
        f"({records['spans']} spans / {records['events']} events per run)",
        f"  overhead   : {payload['overhead_pct']:+.1f}%",
        f"  verdicts identical: {payload['verdicts_identical']}",
    ]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=20, metavar="N",
                        help="warm runs per mode (min is reported)")
    parser.add_argument("--record", default=None, metavar="PATH",
                        help="write the measured comparison as JSON")
    args = parser.parse_args(list(argv) if argv is not None else None)

    payload = run_telemetry_bench(repeats=args.repeats)
    for line in render(payload):
        print(line)
    if args.record:
        with open(args.record, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 0 if payload["verdicts_identical"] else 1


if __name__ == "__main__":
    raise SystemExit(main())

"""Table 2 driver: verify every pass and report LOC / subgoals / time.

Run as ``python -m repro.bench.table2``; the pytest-benchmark wrapper lives in
``benchmarks/test_table2_verification.py``.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.engine.driver import default_pass_kwargs, verify_passes
from repro.passes import (
    ALL_VERIFIED_PASSES,
    NEW_IN_032_PASSES,
    PASS_CATEGORIES,
    UNSUPPORTED_PASSES,
)
from repro.verify.verifier import VerificationResult


def pass_kwargs_for(pass_class, coupling=None) -> Optional[Dict]:
    """Constructor keyword arguments used when verifying one pass.

    Kept as the historical import point; the canonical table lives in
    :func:`repro.engine.driver.default_pass_kwargs`.
    """
    return default_pass_kwargs(pass_class, coupling)


@dataclass
class Table2Row:
    """One row of the reproduced Table 2."""

    pass_name: str
    category: str
    lines_of_code: int
    subgoals: int
    verification_time: float
    verified: bool


def category_of(pass_class) -> str:
    for category, members in PASS_CATEGORIES.items():
        if pass_class in members:
            return category
    return "other"


def run_table2(pass_classes: Sequence = None, coupling=None,
               cache_dir: Optional[str] = None) -> List[Table2Row]:
    """Verify every pass and produce the Table 2 rows.

    Routed through the batch engine with caching off by default (pass
    ``cache_dir`` to opt in) *and* per-pass subgoal tables, so each row's
    time measures independently proving that pass's own obligations —
    matching the paper's per-pass accounting.
    """
    pass_classes = list(pass_classes or ALL_VERIFIED_PASSES)
    report = verify_passes(
        pass_classes,
        cache_dir=cache_dir,
        use_cache=cache_dir is not None,
        pass_kwargs_fn=lambda cls: pass_kwargs_for(cls, coupling),
        share_subgoals=False,
    )
    rows: List[Table2Row] = []
    for pass_class, result in zip(pass_classes, report.results):
        loc = result.analysis.lines_of_code if result.analysis else 0
        rows.append(
            Table2Row(
                pass_name=result.pass_name,
                category=category_of(pass_class),
                lines_of_code=loc,
                subgoals=result.num_subgoals,
                verification_time=result.time_seconds,
                verified=result.verified,
            )
        )
    return rows


def rule_usage_report(pass_classes: Sequence = None,
                      coupling=None) -> Dict[str, List[str]]:
    """Which rewrite-rule families each pass's verification used (Section 8)."""
    pass_classes = list(pass_classes or ALL_VERIFIED_PASSES)
    report = verify_passes(
        pass_classes,
        use_cache=False,
        pass_kwargs_fn=lambda cls: pass_kwargs_for(cls, coupling),
        share_subgoals=False,
    )
    usage: Dict[str, List[str]] = {}
    for pass_class, result in zip(pass_classes, report.results):
        families = set()
        for rule_name in result.rules_used:
            if rule_name.startswith("cancel"):
                families.add("cancellation")
            elif "commute" in rule_name:
                families.add("commutativity")
            elif rule_name.startswith("spec"):
                families.add("utility specification")
        if result.analysis and "route_each_gate" in result.analysis.templates_used:
            families.add("swap")
        usage[pass_class.__name__] = sorted(families)
    return usage


def format_table(rows: Sequence[Table2Row]) -> str:
    lines = [
        f"{'Pass name':34s} {'category':12s} {'LOC':>5s} {'#subgoals':>9s} {'time(s)':>8s} {'status':>9s}",
        "-" * 82,
    ]
    for row in rows:
        status = "verified" if row.verified else "FAILED"
        lines.append(
            f"{row.pass_name:34s} {row.category:12s} {row.lines_of_code:5d} "
            f"{row.subgoals:9d} {row.verification_time:8.2f} {status:>9s}"
        )
    lines.append("-" * 82)
    lines.append(
        f"{'Sum':34s} {'':12s} {sum(r.lines_of_code for r in rows):5d} "
        f"{sum(r.subgoals for r in rows):9d} {sum(r.verification_time for r in rows):8.2f}"
    )
    lines.append("")
    lines.append(
        f"Verified {sum(1 for r in rows if r.verified)} / {len(rows)} supported passes; "
        f"{len(UNSUPPORTED_PASSES)} passes are outside the supported fragment "
        f"(total {len(rows) + len(UNSUPPORTED_PASSES)})."
    )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Reproduce Table 2 of the Giallar paper")
    parser.add_argument("--new-passes-only", action="store_true",
                        help="verify only the passes new in Qiskit 0.32 (Section 8)")
    parser.add_argument("--cache-dir", default=None,
                        help="enable the proof cache (off by default: the table times real proving)")
    args = parser.parse_args(argv)
    passes = NEW_IN_032_PASSES if args.new_passes_only else ALL_VERIFIED_PASSES
    rows = run_table2(passes, cache_dir=args.cache_dir)
    print(format_table(rows))
    return 0 if all(r.verified for r in rows) else 1


if __name__ == "__main__":
    raise SystemExit(main())

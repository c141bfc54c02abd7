"""Benchmark harnesses reproducing the paper's tables and figures."""

from repro.bench.case_studies import CaseStudyResult, run_case_studies
from repro.bench.figure11 import Figure11Row, run_figure11
from repro.bench.qasmbench import (
    DEFAULT_SUITE,
    BenchmarkCircuit,
    build_circuit,
    qasmbench_suite,
    small_suite,
)
from repro.bench.table2 import Table2Row, pass_kwargs_for, rule_usage_report, run_table2

__all__ = [
    "BenchmarkCircuit",
    "CaseStudyResult",
    "DEFAULT_SUITE",
    "Figure11Row",
    "Table2Row",
    "build_circuit",
    "pass_kwargs_for",
    "qasmbench_suite",
    "rule_usage_report",
    "run_case_studies",
    "run_figure11",
    "run_table2",
    "small_suite",
]

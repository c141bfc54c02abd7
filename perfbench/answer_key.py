"""Hand-written answer key for ``repro verify --all`` on the 47-pass suite.

The verdicts come from the Giallar paper, not from ``repro`` output: every
pass the paper's Table 2 reports as verified (44 Qiskit passes, grouped
here by kind) plus the three extension passes this reproduction adds, all
expected ``verified``.  The structural counts below were recorded once by
hand from the suite and pin down how much work each workload must do; a run
that drifts from them is counted as a failed operation even when every
verdict is right.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

VERIFIED = "verified"

LAYOUT = ("ApplyLayout", "SetLayout", "TrivialLayout", "DenseLayout",
          "NoiseAdaptiveLayout", "SabreLayout", "CSPLayout", "Layout2qDistance",
          "EnlargeWithAncilla", "FullAncillaAllocation")
ROUTING = ("BasicSwap", "LookaheadSwap", "SabreSwap")
BASIS = ("Unroller", "Unroll3qOrMore", "Decompose", "UnrollCustomDefinitions",
         "BasisTranslator")
OPTIMISATION = ("Optimize1qGates", "Optimize1qGatesDecomposition",
                "Collect2qBlocks", "ConsolidateBlocks", "CXCancellation",
                "CommutationAnalysis", "CommutativeCancellation",
                "RemoveDiagonalGatesBeforeMeasure", "RemoveResetInZeroState")
ANALYSIS = ("Width", "Depth", "Size", "CountOps", "CountOpsLongestPath",
            "NumTensorFactors", "DAGLongestPath", "CheckMap", "CheckCXDirection",
            "CheckGateDirection")
ASSORTED = ("CXDirection", "GateDirection", "MergeAdjacentBarriers",
            "BarrierBeforeFinalMeasurements", "RemoveFinalMeasurements",
            "DAGFixedPoint", "FixedPoint")
EXTENSIONS = ("InverseCancellation", "RemoveBarriers", "SwapCancellation")

#: pass name -> expected verdict.
EXPECTED_VERDICTS: Dict[str, str] = {
    name: VERIFIED
    for group in (LAYOUT, ROUTING, BASIS, OPTIMISATION, ANALYSIS, ASSORTED,
                  EXTENSIONS)
    for name in group
}

#: Proof obligations the suite emits, whichever workload serves them.
EXPECTED_SUBGOALS = 223

#: workload -> (pass-cache hits, pass-cache misses) of one operation.
EXPECTED_PASS_HITS_MISSES: Dict[str, Tuple[int, int]] = {
    "cold": (0, 47),
    "warm": (47, 0),
    "edit": (46, 1),
    "cold-j2": (0, 47),
}


def verdict_of(result: dict) -> str:
    """The verdict one ``--format json`` result row states."""
    if result.get("verified"):
        return VERIFIED
    return "unsupported" if not result.get("supported", True) else "rejected"


def check_report(report: dict, workload: str) -> List[str]:
    """Every way ``report`` (a parsed ``--format json`` report) is wrong.

    An empty list means the operation succeeded.
    """
    problems: List[str] = []
    try:
        results = report["results"]
        engine = report["engine"]
        subgoals = report["summary"]["total_subgoals"]
    except (KeyError, TypeError):
        return ["report lacks results, engine or summary"]
    seen = {row.get("pass"): verdict_of(row) for row in results}
    if len(seen) != len(results):
        problems.append("a pass is reported twice")
    for name in sorted(set(EXPECTED_VERDICTS) | set(seen)):
        expected = EXPECTED_VERDICTS.get(name, "absent")
        got = seen.get(name, "absent")
        if got != expected:
            problems.append(f"{name}: {got}, expected {expected}")
    if subgoals != EXPECTED_SUBGOALS:
        problems.append(f"{subgoals} subgoals, expected {EXPECTED_SUBGOALS}")
    hits_misses = (engine.get("cache_hits"), engine.get("cache_misses"))
    expected_hm = EXPECTED_PASS_HITS_MISSES[workload]
    if hits_misses != expected_hm:
        problems.append(f"pass cache hits/misses {hits_misses}, "
                        f"expected {expected_hm}")
    return problems

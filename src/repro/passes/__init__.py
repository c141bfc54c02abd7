"""The verified Qiskit-style compiler passes (Table 2) plus the buggy variants."""

from repro.passes.analysis import (
    CheckCXDirection,
    CheckGateDirection,
    CheckMap,
    CountOps,
    CountOpsLongestPath,
    DAGFixedPoint,
    DAGLongestPath,
    Depth,
    FixedPoint,
    Layout2qDistance,
    NumTensorFactors,
    Size,
    Width,
)
from repro.passes.assorted import (
    BarrierBeforeFinalMeasurements,
    CXDirection,
    GateDirection,
    MergeAdjacentBarriers,
    RemoveFinalMeasurements,
)
from repro.passes.basis import (
    BasisTranslator,
    Decompose,
    Unroll3qOrMore,
    UnrollCustomDefinitions,
    Unroller,
)
from repro.passes.buggy import (
    BUGGY_PASSES,
    BuggyCommutativeCancellation,
    BuggyLookaheadSwap,
    BuggyOptimize1qGates,
)
from repro.passes.extensions import (
    EXTENSION_PASSES,
    InverseCancellation,
    RemoveBarriers,
    SwapCancellation,
)
from repro.passes.layout import (
    ApplyLayout,
    CSPLayout,
    DenseLayout,
    EnlargeWithAncilla,
    FullAncillaAllocation,
    NoiseAdaptiveLayout,
    SabreLayout,
    SetLayout,
    TrivialLayout,
)
from repro.passes.optimization import (
    Collect2qBlocks,
    CommutationAnalysis,
    CommutativeCancellation,
    ConsolidateBlocks,
    CXCancellation,
    Optimize1qGates,
    Optimize1qGatesDecomposition,
    RemoveDiagonalGatesBeforeMeasure,
    RemoveResetInZeroState,
)
from repro.passes.routing import BasicSwap, LookaheadSwap, SabreSwap
from repro.passes.unsupported import UNSUPPORTED_PASSES

#: The 44 verified passes of Table 2, grouped as the paper lists them.
LAYOUT_PASSES = [
    ApplyLayout,
    SetLayout,
    TrivialLayout,
    Layout2qDistance,
    DenseLayout,
    NoiseAdaptiveLayout,
    SabreLayout,
    CSPLayout,
    EnlargeWithAncilla,
    FullAncillaAllocation,
]

ROUTING_PASSES = [BasicSwap, LookaheadSwap, SabreSwap]

BASIS_PASSES = [Unroller, Unroll3qOrMore, Decompose, UnrollCustomDefinitions, BasisTranslator]

OPTIMIZATION_PASSES = [
    Optimize1qGates,
    Optimize1qGatesDecomposition,
    Collect2qBlocks,
    ConsolidateBlocks,
    CXCancellation,
    CommutationAnalysis,
    CommutativeCancellation,
    RemoveDiagonalGatesBeforeMeasure,
    RemoveResetInZeroState,
]

ANALYSIS_PASSES = [
    Width,
    Depth,
    Size,
    CountOps,
    CountOpsLongestPath,
    NumTensorFactors,
    DAGLongestPath,
    CheckMap,
    CheckCXDirection,
    CheckGateDirection,
]

ASSORTED_PASSES = [
    CXDirection,
    GateDirection,
    MergeAdjacentBarriers,
    BarrierBeforeFinalMeasurements,
    RemoveFinalMeasurements,
    DAGFixedPoint,
    FixedPoint,
]

ALL_VERIFIED_PASSES = (
    LAYOUT_PASSES
    + ROUTING_PASSES
    + BASIS_PASSES
    + OPTIMIZATION_PASSES
    + ANALYSIS_PASSES
    + ASSORTED_PASSES
)

#: Passes introduced between Qiskit 0.19 and 0.32 (the "adding new passes"
#: experiment of Section 8): 15 of the 16 verify automatically; the 16th
#: needed the ``ecr`` rewrite rule that is now part of the default rule set.
NEW_IN_032_PASSES = [
    SabreLayout,
    CSPLayout,
    SabreSwap,
    BasisTranslator,
    UnrollCustomDefinitions,
    Optimize1qGatesDecomposition,
    Collect2qBlocks,
    ConsolidateBlocks,
    CommutativeCancellation,
    RemoveDiagonalGatesBeforeMeasure,
    RemoveResetInZeroState,
    GateDirection,
    CheckGateDirection,
    MergeAdjacentBarriers,
    DAGFixedPoint,
    FixedPoint,
]

PASS_CATEGORIES = {
    "layout": LAYOUT_PASSES,
    "routing": ROUTING_PASSES,
    "basis": BASIS_PASSES,
    "optimization": OPTIMIZATION_PASSES,
    "analysis": ANALYSIS_PASSES,
    "assorted": ASSORTED_PASSES,
}

#: Extension passes (not part of the paper's Table 2) demonstrating that new
#: passes verify automatically when written against the same templates.
EXTENSION_PASS_CATEGORY = {"extension": EXTENSION_PASSES}


def pass_registry():
    """Every pass ``repro verify`` and ``repro fuzz`` resolve by name
    (verified + extensions), as a fresh name -> class dict."""
    passes = list(ALL_VERIFIED_PASSES) + list(EXTENSION_PASSES)
    return {pass_class.__name__: pass_class for pass_class in passes}


__all__ = [name for name in dir() if not name.startswith("_")]

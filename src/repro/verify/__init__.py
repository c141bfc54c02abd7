"""The Giallar verifier: push-button verification for compiler passes.

The names below are imported on first use, so a run served from the proof
store loads the result records (:mod:`repro.verify.results`) without the
verifier.  ``repro.verify.discharge`` is the discharge module; its
seed-compatible function is ``repro.verify.discharge.discharge``.
"""

from typing import TYPE_CHECKING

from repro._exports import lazy_exports

if TYPE_CHECKING:
    from repro.verify.bounded import (
        BoundedTrial,
        BoundedValidationReport,
        sweep_bounded_validation,
        validate_pass_bounded,
    )
    from repro.verify.counterexample import (
        conditional_circuits_equivalent,
        confirm_counterexample,
        search_counterexample,
    )
    from repro.verify.facts import Fact
    from repro.verify.passes import (
        AncillaAllocationPass,
        AnalysisPass,
        BasePass,
        GeneralPass,
        LayoutApplicationPass,
        LayoutSelectionPass,
        PropertySet,
        RoutingPass,
    )
    from repro.verify.preprocessor import PassAnalysis, analyze_pass
    from repro.verify.results import (
        CounterExample,
        DischargeResult,
        SubgoalOutcome,
        VerificationResult,
    )
    from repro.verify.session import PathExplorer, PathRecord, Subgoal, VerificationSession
    from repro.verify.symvalues import Segment, SymBool, SymCircuit, SymGate, SymIndex, SymInt
    from repro.verify.templates import (
        collect_runs,
        iterate_all_gates,
        route_each_gate,
        while_gate_remaining,
    )
    from repro.verify.verifier import verify_pass, verify_passes

__getattr__ = lazy_exports(__name__, {
    "repro.verify.bounded": (
        "BoundedTrial",
        "BoundedValidationReport",
        "sweep_bounded_validation",
        "validate_pass_bounded",
    ),
    "repro.verify.counterexample": (
        "conditional_circuits_equivalent",
        "confirm_counterexample",
        "search_counterexample",
    ),
    "repro.verify.facts": ("Fact",),
    "repro.verify.passes": (
        "AncillaAllocationPass",
        "AnalysisPass",
        "BasePass",
        "GeneralPass",
        "LayoutApplicationPass",
        "LayoutSelectionPass",
        "PropertySet",
        "RoutingPass",
    ),
    "repro.verify.preprocessor": ("PassAnalysis", "analyze_pass"),
    "repro.verify.results": (
        "CounterExample",
        "DischargeResult",
        "SubgoalOutcome",
        "VerificationResult",
    ),
    "repro.verify.session": ("PathExplorer", "PathRecord", "Subgoal", "VerificationSession"),
    "repro.verify.symvalues": ("Segment", "SymBool", "SymCircuit", "SymGate", "SymIndex", "SymInt"),
    "repro.verify.templates": (
        "collect_runs",
        "iterate_all_gates",
        "route_each_gate",
        "while_gate_remaining",
    ),
    "repro.verify.verifier": ("verify_pass", "verify_passes"),
})

__all__ = [
    "AncillaAllocationPass",
    "AnalysisPass",
    "BasePass",
    "BoundedTrial",
    "BoundedValidationReport",
    "CounterExample",
    "DischargeResult",
    "Fact",
    "GeneralPass",
    "LayoutApplicationPass",
    "LayoutSelectionPass",
    "PassAnalysis",
    "PathExplorer",
    "PathRecord",
    "PropertySet",
    "RoutingPass",
    "Segment",
    "SubgoalOutcome",
    "Subgoal",
    "SymBool",
    "SymCircuit",
    "SymGate",
    "SymIndex",
    "SymInt",
    "VerificationResult",
    "VerificationSession",
    "analyze_pass",
    "collect_runs",
    "conditional_circuits_equivalent",
    "confirm_counterexample",
    "iterate_all_gates",
    "route_each_gate",
    "search_counterexample",
    "sweep_bounded_validation",
    "validate_pass_bounded",
    "verify_pass",
    "verify_passes",
    "while_gate_remaining",
]

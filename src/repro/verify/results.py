"""The records a verification produces, in a module that depends on nothing.

:class:`VerificationResult` (one pass), :class:`SubgoalOutcome` (one
subgoal with its verdict), :class:`DischargeResult` (how a subgoal was
discharged) and :class:`CounterExample` (a circuit a rejected pass
mishandles) are plain data.  A run served from the proof store rebuilds
them from stored payloads and renders its report without the verifier,
the prover or the counterexample search, so they live here rather than
beside the code that computes them; those modules re-export them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:
    from repro.circuit.circuit import QCircuit
    from repro.verify.preprocessor import PassAnalysis
    from repro.verify.session import Subgoal


@dataclass
class DischargeResult:
    """Outcome of discharging one subgoal."""

    proved: bool
    method: str
    reason: str = ""
    #: The full rule set collected for the goal (reusability accounting
    #: counts these; the certificate records the *fired* subset).
    rules_used: Tuple[str, ...] = ()
    #: Rule instantiations / rewrite steps the solver performed, if any.
    instantiations: int = 0
    #: The rules whose instantiation actually contributed (solver stages
    #: report it; the certificate persists it for replay).
    rules_fired: Tuple[str, ...] = ()
    #: Attached by :class:`repro.verify.discharge.Discharger`; absent on
    #: results reconstructed from cache payloads (certificates live in
    #: their own cache tier).
    certificate: Optional[object] = None

    def __bool__(self) -> bool:
        return self.proved


@dataclass
class SubgoalOutcome:
    """One subgoal together with its discharge result."""

    subgoal: Subgoal
    result: DischargeResult


@dataclass
class CounterExample:
    """A concrete circuit demonstrating that a pass is incorrect."""

    kind: str                       # 'semantics' | 'non_termination' | 'crash'
    description: str
    input_circuit: Optional[QCircuit] = None
    output_circuit: Optional[QCircuit] = None
    confirmed: bool = False
    details: Dict[str, object] = field(default_factory=dict)

    def __repr__(self) -> str:
        status = "confirmed" if self.confirmed else "candidate"
        return f"CounterExample({self.kind}, {status}: {self.description})"


@dataclass
class VerificationResult:
    """The outcome of verifying one compiler pass."""

    pass_name: str
    verified: bool
    supported: bool
    analysis: Optional[PassAnalysis]
    subgoals: List[SubgoalOutcome] = field(default_factory=list)
    paths_explored: int = 0
    time_seconds: float = 0.0
    counterexample: Optional[CounterExample] = None
    failure_reasons: List[str] = field(default_factory=list)
    #: True when this result was reconstructed from the engine's proof cache
    #: instead of being re-proved in this process.
    from_cache: bool = False

    @property
    def num_subgoals(self) -> int:
        return len(self.subgoals)

    @property
    def rules_used(self) -> Tuple[str, ...]:
        used: List[str] = []
        for outcome in self.subgoals:
            used.extend(outcome.result.rules_used)
        return tuple(sorted(set(used)))

    def summary(self) -> str:
        status = "verified" if self.verified else ("unsupported" if not self.supported else "FAILED")
        return (
            f"{self.pass_name}: {status} "
            f"({self.num_subgoals} subgoals, {self.paths_explored} paths, "
            f"{self.time_seconds:.2f}s)"
        )

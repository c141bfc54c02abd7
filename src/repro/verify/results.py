"""The records a verification produces, in a module that depends on nothing.

:class:`VerificationResult` (one pass), :class:`PassAnalysis` (the
preprocessor's static report on it), :class:`SubgoalOutcome` (one subgoal
with its verdict), :class:`DischargeResult` (how a subgoal was discharged)
and :class:`CounterExample` (a circuit a rejected pass mishandles) are
plain data.  A run served from the proof store rebuilds
them from stored payloads and renders its report without the verifier,
the prover, the preprocessor or the counterexample search, so they live
here rather than beside the code that computes them; those modules
re-export them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:
    from repro.circuit.circuit import QCircuit
    from repro.verify.session import Subgoal


class PassAnalysis:
    """The preprocessor's report for one pass class."""

    def __init__(self, pass_name: str, lines_of_code: int, branch_count: int,
                 templates_used: Tuple[str, ...], utilities_used: Tuple[str, ...],
                 raw_loops: int, non_critical_statements: int, supported: bool,
                 unsupported_reason: str = "") -> None:
        self.pass_name = pass_name
        self.lines_of_code = lines_of_code
        self.branch_count = branch_count
        self.templates_used = templates_used
        self.utilities_used = utilities_used
        self.raw_loops = raw_loops
        self.non_critical_statements = non_critical_statements
        self.supported = supported
        self.unsupported_reason = unsupported_reason

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)


class DischargeResult:
    """Outcome of discharging one subgoal."""

    def __init__(self, proved: bool, method: str, reason: str = "",
                 rules_used: Tuple[str, ...] = (), instantiations: int = 0,
                 rules_fired: Tuple[str, ...] = (),
                 certificate: Optional[object] = None) -> None:
        self.proved = proved
        self.method = method
        self.reason = reason
        #: The full rule set collected for the goal (reusability accounting
        #: counts these; the certificate records the *fired* subset).
        self.rules_used = rules_used
        #: Rule instantiations / rewrite steps the solver performed, if any.
        self.instantiations = instantiations
        #: The rules whose instantiation actually contributed (solver stages
        #: report it; the certificate persists it for replay).
        self.rules_fired = rules_fired
        #: Attached by :class:`repro.verify.discharge.Discharger`; absent on
        #: results reconstructed from cache payloads (certificates live in
        #: their own cache tier).
        self.certificate = certificate

    def __bool__(self) -> bool:
        return self.proved


class SubgoalOutcome:
    """One subgoal together with its discharge result."""

    def __init__(self, subgoal: Subgoal, result: DischargeResult) -> None:
        self.subgoal = subgoal
        self.result = result


class CounterExample:
    """A concrete circuit demonstrating that a pass is incorrect."""

    def __init__(self, kind: str, description: str,
                 input_circuit: Optional[QCircuit] = None,
                 output_circuit: Optional[QCircuit] = None,
                 confirmed: bool = False,
                 details: Optional[Dict[str, object]] = None) -> None:
        self.kind = kind                # 'semantics' | 'non_termination' | 'crash'
        self.description = description
        self.input_circuit = input_circuit
        self.output_circuit = output_circuit
        self.confirmed = confirmed
        self.details = {} if details is None else details

    def __repr__(self) -> str:
        status = "confirmed" if self.confirmed else "candidate"
        return f"CounterExample({self.kind}, {status}: {self.description})"


class VerificationResult:
    """The outcome of verifying one compiler pass."""

    def __init__(self, pass_name: str, verified: bool, supported: bool,
                 analysis: Optional[PassAnalysis],
                 subgoals: Optional[List[SubgoalOutcome]] = None,
                 paths_explored: int = 0, time_seconds: float = 0.0,
                 counterexample: Optional[CounterExample] = None,
                 failure_reasons: Optional[List[str]] = None,
                 from_cache: bool = False) -> None:
        self.pass_name = pass_name
        self.verified = verified
        self.supported = supported
        self.analysis = analysis
        self.subgoals = [] if subgoals is None else subgoals
        self.paths_explored = paths_explored
        self.time_seconds = time_seconds
        self.counterexample = counterexample
        self.failure_reasons = [] if failure_reasons is None else failure_reasons
        #: True when this result was reconstructed from the engine's proof cache
        #: instead of being re-proved in this process.
        self.from_cache = from_cache

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

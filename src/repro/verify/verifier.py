"""The Giallar verifier driver: ``verify_pass``.

``verify_pass(PassClass)`` is the push-button entry point: it statically
analyses the pass, symbolically executes its ``run`` method over every path,
adds the proof obligation fixed by the pass's virtual class, discharges every
subgoal, and — when something cannot be proven — tries to produce a confirmed
counterexample circuit.  Its result records live in
:mod:`repro.verify.results` and are re-exported here.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence, Type

from repro.circuit.circuit import QCircuit
from repro.errors import UnsupportedPassError, VerificationError
from repro.verify import facts as F
from repro.verify.counterexample import search_counterexample
from repro.verify.discharge import discharge
from repro.verify.facts import Fact
from repro.verify.preprocessor import analyze_pass
from repro.verify.results import DischargeResult, SubgoalOutcome, VerificationResult
from repro.verify.session import PathExplorer, PathRecord, Subgoal, VerificationSession
from repro.verify.symvalues import SymCircuit


def _make_symbolic_input(session: VerificationSession) -> SymCircuit:
    segment = session.fresh_segment("the entire (arbitrary) input circuit")
    return SymCircuit(session, [segment], name="input")


def _add_top_level_obligation(session, pass_instance, input_elements, result) -> None:
    """Add the per-pass-type proof obligation.

    ``input_elements`` is a snapshot of the symbolic input circuit taken
    *before* the pass ran, so passes that mutate their input in place (instead
    of building a fresh output) are still held to the original circuit.
    """
    pass_type = getattr(pass_instance, "pass_type", "general")
    if result is None:
        result_elements = input_elements
    elif isinstance(result, SymCircuit):
        result_elements = result.elements
    else:
        result_elements = input_elements
    if pass_type in ("analysis", "layout_selection", "ancilla"):
        session.add_subgoal(
            Subgoal(
                kind="unchanged",
                description="analysis-style passes must return the input circuit unchanged",
                lhs=result_elements,
                rhs=input_elements,
            )
        )
        return
    if pass_type == "layout_application":
        session.add_subgoal(
            Subgoal(
                kind="layout_permutation",
                description="the output is the input relabelled through the selected layout",
                lhs=result_elements,
                rhs=input_elements,
            )
        )
        return
    if pass_type == "routing":
        # The routing template already emitted the equivalence-up-to-swaps,
        # coupling, and termination subgoals for this path.
        return
    session.add_subgoal(
        Subgoal(
            kind="equivalence",
            description="GeneralPass obligation: the output circuit is equivalent to the input",
            lhs=result_elements,
            rhs=input_elements,
        )
    )


def verify_pass(
    pass_class: Type,
    pass_kwargs: Optional[Dict] = None,
    counterexample_search: bool = True,
    discharge_fn: Callable[[Subgoal], DischargeResult] = discharge,
) -> VerificationResult:
    """Verify one compiler pass in a push-button fashion.

    Returns a :class:`VerificationResult`; a pass outside the supported
    fragment (the analogue of the paper's 12 unverifiable passes) is reported
    with ``supported=False`` rather than raising.

    ``discharge_fn`` lets callers interpose on subgoal discharge; the
    verification engine uses this to serve subgoals from its proof cache.
    """
    pass_kwargs = dict(pass_kwargs or {})
    started = time.perf_counter()
    try:
        analysis = analyze_pass(pass_class)
    except UnsupportedPassError as exc:
        return VerificationResult(
            pass_name=pass_class.__name__,
            verified=False,
            supported=False,
            analysis=None,
            failure_reasons=[str(exc)],
            time_seconds=time.perf_counter() - started,
        )
    if not analysis.supported:
        return VerificationResult(
            pass_name=pass_class.__name__,
            verified=False,
            supported=False,
            analysis=analysis,
            failure_reasons=[analysis.unsupported_reason],
            time_seconds=time.perf_counter() - started,
        )

    session = VerificationSession()
    explorer = PathExplorer(session)

    def runner():
        instance = pass_class(**pass_kwargs)
        sym_input = _make_symbolic_input(session)
        input_elements = sym_input.elements  # snapshot before the pass runs
        result = instance.run(sym_input)
        _add_top_level_obligation(session, instance, input_elements, result)
        return result

    try:
        records: List[PathRecord] = explorer.explore(runner)
    except VerificationError as exc:
        return VerificationResult(
            pass_name=pass_class.__name__,
            verified=False,
            supported=False,
            analysis=analysis,
            failure_reasons=[f"symbolic execution failed: {exc}"],
            time_seconds=time.perf_counter() - started,
        )

    outcomes: List[SubgoalOutcome] = []
    failures: List[str] = []
    for record in records:
        for subgoal in record.subgoals:
            result = discharge_fn(subgoal)
            outcomes.append(SubgoalOutcome(subgoal, result))
            if not result.proved:
                failures.append(f"{subgoal.kind}: {subgoal.description} -- {result.reason}")

    counterexample = None
    if failures and counterexample_search:
        hint = None
        hint_fn = getattr(pass_class, "counterexample_hint", None)
        if callable(hint_fn):
            hint = hint_fn()
        failing = [o.subgoal for o in outcomes if not o.result.proved]
        counterexample = search_counterexample(pass_class, failing, hint=hint, **pass_kwargs)

    elapsed = time.perf_counter() - started
    return VerificationResult(
        pass_name=pass_class.__name__,
        verified=not failures,
        supported=True,
        analysis=analysis,
        subgoals=outcomes,
        paths_explored=len(records),
        time_seconds=elapsed,
        counterexample=counterexample,
        failure_reasons=failures,
    )


def verify_passes(pass_classes: Sequence[Type], **kwargs) -> List[VerificationResult]:
    """Verify a batch of passes, returning one result per pass."""
    return [verify_pass(pass_class, **kwargs) for pass_class in pass_classes]

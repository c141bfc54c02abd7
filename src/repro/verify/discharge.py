"""Discharging proof subgoals (Section 6: the Giallar verifier's back end).

A subgoal relates two sequences of circuit elements (concrete gates, symbolic
gates, opaque segments) under the facts collected on one execution path.
Discharging picks the cheapest sound method:

* **identical** — the two sequences are syntactically the same
  (:mod:`repro.prover.methods.syntactic`);
* **sequence engine** — both sides are concrete gates, so the rewrite-based
  normal-form check of :mod:`repro.symbolic.equivalence` applies
  (:mod:`repro.prover.methods.sequence`);
* **solver backend** — the general case: both sides are encoded as
  register-transformer terms, the facts on the path are turned into
  quantified rewrite rules, and the goal is handed to the selected
  :class:`~repro.prover.backend.SolverBackend`
  (:mod:`repro.prover.methods.congruence`);
* **library lemma** — template-level obligations (routing structure, layout
  relabelling) established once for the verified template and only checked
  for applicability here (:mod:`repro.prover.methods.structural`).

This module is the stable facade over those method modules: the
:class:`Discharger` picks the method, times it, and attaches a
:class:`~repro.prover.certificate.ProofCertificate` to every result; the
module-level :func:`discharge` is the seed-compatible entry point bound to
the builtin solver.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence, Union

# Through the package: importing it registers the shipped backends that
# resolve_solver hands out, so the import graph (and every cache key
# derived from it) reaches their code.
from repro.prover import SolverBackend, resolve_solver
from repro.prover.certificate import ProofCertificate
from repro.telemetry import trace as _trace
from repro.prover.methods import (
    DischargeResult,
    congruence as _congruence,
    sequence as _sequence,
    structural as _structural,
    syntactic as _syntactic,
)
from repro.verify.session import Subgoal

__all__ = ["DischargeResult", "Discharger", "discharge"]


class Discharger:
    """A discharge pipeline bound to one solver backend.

    ``solver`` is a backend name (``auto``/``builtin``/``z3``/``bounded``)
    or an already-resolved :class:`~repro.prover.backend.SolverBackend`.
    ``restrict_rules`` narrows the solver stage to the named rules —
    certificate replay uses it to re-prove along the recorded path.
    """

    def __init__(self, solver: Union[str, SolverBackend] = "builtin",
                 restrict_rules: Optional[Sequence[str]] = None) -> None:
        if isinstance(solver, SolverBackend):
            self.backend = solver
        else:
            self.backend = resolve_solver(solver)
        self.restrict_rules = restrict_rules

    @property
    def solver_name(self) -> str:
        return self.backend.name

    # ------------------------------------------------------------------ #
    def __call__(self, subgoal: Subgoal) -> DischargeResult:
        started = time.perf_counter()
        result, backend_used = self._dispatch(subgoal)
        fired = tuple(result.rules_fired)
        if fired:
            # Rule names embed raw session uids; certificates must stay
            # valid across sessions, so record them under the subgoal's
            # canonical renaming (lazy import: the engine imports this
            # module while initialising).
            from repro.engine.fingerprint import canonical_rule_names

            fired = canonical_rule_names(subgoal, fired)
        solver_backend = self.backend.name if backend_used else None
        result.certificate = ProofCertificate(
            proved=result.proved,
            method=result.method,
            backend=solver_backend,
            rules_fired=fired,
            instantiations=result.instantiations,
            wall_seconds=time.perf_counter() - started,
            reason=result.reason,
        )
        tracer = _trace.current()
        if tracer is not None:
            tracer.event(
                "discharge", kind="method",
                method=result.method,
                backend=solver_backend,
                proved=result.proved,
                rules_fired=len(fired),
                wall=round(result.certificate.wall_seconds, 6),
            )
        return result

    def _dispatch(self, subgoal: Subgoal):
        """Run the pipeline; returns (result, did_the_solver_backend_run)."""
        if subgoal.kind == "unchanged":
            return _syntactic.discharge_unchanged(subgoal), False
        structural = _structural.discharge_structural(subgoal)
        if structural is not None:
            return structural, False
        identical = _syntactic.try_identical(subgoal)
        if identical.proved:
            return identical, False
        concrete = _sequence.try_sequence_engine(subgoal)
        if concrete is not None:
            return concrete, False
        result = _congruence.discharge_with_backend(
            subgoal, self.backend, restrict_rules=self.restrict_rules)
        return result, True


_default_discharger: Optional[Discharger] = None


def discharge(subgoal: Subgoal) -> DischargeResult:
    """Discharge a single subgoal with the builtin solver backend.

    The seed-compatible push-button entry point; engine callers that thread
    a ``--solver`` choice construct a :class:`Discharger` instead.
    """
    global _default_discharger
    if _default_discharger is None:
        _default_discharger = Discharger("builtin")
    return _default_discharger(subgoal)

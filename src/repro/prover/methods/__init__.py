"""The discharge pipeline's method modules (Section 6, one file per method).

The seed repo kept the whole subgoal-discharge back end in one
``verify/discharge.py``; the pluggable prover splits it by method so each
stage can evolve (and be certified and replayed) independently:

* :mod:`repro.prover.methods.syntactic` — the ``identical`` check;
* :mod:`repro.prover.methods.sequence` — the concrete-gate sequence engine;
* :mod:`repro.prover.methods.congruence` — fact indexing, term encoding,
  rule collection, and the hand-off to the selected
  :class:`~repro.prover.backend.SolverBackend`;
* :mod:`repro.prover.methods.structural` — termination, coupling,
  routing-structure, and layout library lemmas.

:class:`DischargeResult` is defined here (and re-exported from
:mod:`repro.verify.discharge`, the stable import path) because every method
module constructs it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple


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


from repro.prover.methods import (  # noqa: E402  (needs DischargeResult)
    congruence,
    sequence,
    structural,
    syntactic,
)

__all__ = [
    "DischargeResult",
    "congruence",
    "sequence",
    "structural",
    "syntactic",
]

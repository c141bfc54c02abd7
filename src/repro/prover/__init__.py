"""The pluggable prover core.

Everything between a :class:`~repro.verify.session.Subgoal` and its verdict
lives here:

* :mod:`repro.prover.backend` — the :class:`SolverBackend` protocol and the
  registry behind ``repro verify --solver {auto,builtin,z3,bounded}``;
* :mod:`repro.prover.builtin` / :mod:`repro.prover.z3backend` /
  :mod:`repro.prover.boundedbackend` — the shipped backends;
* :mod:`repro.prover.rulebase` — rule sets compiled once into an
  operator-indexed E-matching structure;
* :mod:`repro.prover.methods` — the discharge pipeline, one module per
  method (syntactic, sequence engine, solver hand-off, library lemmas);
* :mod:`repro.prover.certificate` — compact, replayable proof certificates,
  persisted as their own tier in every proof-cache backend.

The registry names the shipped backends and imports each one's module when
it is first resolved.  The names below are imported on first use.
"""

from typing import TYPE_CHECKING

from repro._exports import lazy_exports

if TYPE_CHECKING:
    from repro.errors import SolverUnavailable
    from repro.prover.backend import (
        SOLVER_CHOICES,
        SolverBackend,
        available_solvers,
        register_backend,
        reset_solver_state,
        resolve_solver,
    )
    from repro.prover.boundedbackend import BoundedBackend
    from repro.prover.builtin import BuiltinBackend
    from repro.prover.certificate import (
        CERTIFICATE_VERSION,
        ProofCertificate,
        ReplayOutcome,
        replay_certificate,
    )
    from repro.prover.methods import DischargeResult
    from repro.prover.rulebase import RuleBase
    from repro.prover.z3backend import Z3Backend

__getattr__ = lazy_exports(__name__, {
    "repro.errors": ("SolverUnavailable",),
    "repro.prover.backend": (
        "SOLVER_CHOICES",
        "SolverBackend",
        "available_solvers",
        "register_backend",
        "reset_solver_state",
        "resolve_solver",
    ),
    "repro.prover.boundedbackend": ("BoundedBackend",),
    "repro.prover.builtin": ("BuiltinBackend",),
    "repro.prover.certificate": (
        "CERTIFICATE_VERSION",
        "ProofCertificate",
        "ReplayOutcome",
        "replay_certificate",
    ),
    "repro.prover.methods": ("DischargeResult",),
    "repro.prover.rulebase": ("RuleBase",),
    "repro.prover.z3backend": ("Z3Backend",),
})

__all__ = [
    "BoundedBackend",
    "BuiltinBackend",
    "CERTIFICATE_VERSION",
    "DischargeResult",
    "ProofCertificate",
    "ReplayOutcome",
    "RuleBase",
    "SOLVER_CHOICES",
    "SolverBackend",
    "SolverUnavailable",
    "Z3Backend",
    "available_solvers",
    "register_backend",
    "replay_certificate",
    "reset_solver_state",
    "resolve_solver",
]

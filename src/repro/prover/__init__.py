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

Importing this package registers the shipped backends.
"""

from repro.prover.backend import (
    SOLVER_CHOICES,
    SolverBackend,
    SolverUnavailable,
    available_solvers,
    register_backend,
    reset_solver_state,
    resolve_solver,
)
from repro.prover import (  # noqa: F401  (registration)
    boundedbackend,
    builtin,
    z3backend,
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

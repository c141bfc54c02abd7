"""The pluggable solver-backend protocol and registry.

The Giallar verifier's discharge pipeline is fixed — syntactic check,
sequence engine, register-term solving, library lemmas — but the *solver*
that decides register-term goals is pluggable: a :class:`SolverBackend`
receives one goal (an equality, disequality, or conjunction over
uninterpreted terms) plus the quantified rewrite rules collected from the
path facts, and answers with a :class:`~repro.smt.solver.CheckResult`.

Three backends ship:

* ``builtin`` — congruence closure plus indexed bounded E-matching
  (:mod:`repro.prover.builtin`), the default and the paper-faithful choice;
* ``z3`` — the real Z3 via ``z3-solver`` when installed
  (:mod:`repro.prover.z3backend`); detected at run time, gracefully
  unavailable otherwise;
* ``bounded`` — bidirectional bounded rewriting
  (:mod:`repro.prover.boundedbackend`), the bounded-model-checking fallback.

Backends must agree on *verdicts* for the supported suite (the solver-matrix
CI job asserts it) and on the failure-reason format ``could not derive
{atom!r}`` so reports are backend-independent.  ``repro verify --solver``
selects one; the choice joins every pass and subgoal fingerprint, so proofs
found by different backends never alias in the cache.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Sequence, Tuple

from repro.errors import SolverUnavailable

if TYPE_CHECKING:
    from repro.smt.solver import CheckResult
    from repro.smt.terms import Rule, Term

#: The names ``repro verify --solver`` accepts.  ``auto`` resolves to the
#: builtin backend (the only one guaranteed present).
SOLVER_CHOICES: Tuple[str, ...] = ("auto", "builtin", "z3", "bounded")


class SolverBackend:
    """One decision procedure for register-term goals.

    Subclasses set :attr:`name` and implement :meth:`check`; override
    :meth:`available` when the backend depends on an optional import.
    Backends must be sound (never prove a false goal) and should fail with
    ``reason=f"could not derive {atom!r}"`` carrying the first unprovable
    atom, so verdicts *and reports* stay backend-independent.
    """

    #: Registry / fingerprint name; also what certificates record.
    name: str = "abstract"

    def available(self) -> bool:
        """Can this backend run here?  (Optional imports, licences, ...)"""
        return True

    def check(self, goal: Term, rules: Sequence[Rule],
              assumptions: Sequence[Term] = ()) -> CheckResult:
        """Decide ``goal`` under ``rules`` and ground ``assumptions``."""
        raise NotImplementedError

    def reset(self) -> None:
        """Drop memoised state (called on module reloads / interning resets)."""

    def stats(self) -> Dict[str, object]:
        """Plain-int counters describing this backend's memo/index behaviour.

        The telemetry layer attaches the returned dict to a ``prover.stats``
        trace event at the end of each engine run; backends without
        interesting state return the empty dict, which costs nothing.
        """
        return {}


#: name -> zero-argument factory.  Factories may cache their instance so a
#: backend's memoised state survives across checks within one process.
_REGISTRY: Dict[str, Callable[[], SolverBackend]] = {}
_INSTANCES: Dict[str, SolverBackend] = {}


def register_backend(name: str, factory: Callable[[], SolverBackend]) -> None:
    """Register a backend factory under ``name`` (last registration wins)."""
    _REGISTRY[name] = factory
    _INSTANCES.pop(name, None)


def resolve_solver(name: str = "auto") -> SolverBackend:
    """Resolve a ``--solver`` choice to a live backend instance.

    ``auto`` picks the builtin backend.  Unknown names raise
    :class:`ValueError`; a known backend whose environment dependency is
    missing (z3 not installed) raises :class:`SolverUnavailable` with an
    actionable message — callers surface it rather than silently proving
    with a different solver than the one asked for.
    """
    resolved = "builtin" if name in (None, "", "auto") else str(name)
    factory = _REGISTRY.get(resolved)
    if factory is None:
        raise ValueError(
            f"unknown solver backend {name!r} "
            f"(expected one of {', '.join(SOLVER_CHOICES)})")
    backend = _INSTANCES.get(resolved)
    if backend is None:
        from repro.smt.terms import on_reset_interning

        # Memoised check results hold terms; they must die with the
        # interning table.
        on_reset_interning(reset_solver_state)
        backend = factory()
        _INSTANCES[resolved] = backend
    if not backend.available():
        raise SolverUnavailable(
            f"solver backend {resolved!r} is not available in this "
            f"environment (is its optional dependency installed?)")
    return backend


def available_solvers() -> List[Tuple[str, bool]]:
    """Every registered public backend with its availability."""
    out: List[Tuple[str, bool]] = []
    for name in sorted(_REGISTRY):
        backend = _INSTANCES.get(name)
        try:
            available = (backend or _REGISTRY[name]()).available()
        except Exception:
            available = False
        out.append((name, available))
    return out


def reset_solver_state() -> None:
    """Drop every built backend, with its memoised state.

    Wired into the interning reset (:func:`repro.smt.terms.reset_interning`),
    which module reloads run: memoised check results hold hash-consed
    terms, and serving them across an interning reset would resurrect stale
    objects.  The next :func:`resolve_solver` builds a fresh instance from
    its module as it is now, so an edited backend module that the watcher
    reloaded is the one that proves.
    """
    for backend in _INSTANCES.values():
        backend.reset()
    _INSTANCES.clear()


# The shipped backends, registered by name.  Each factory imports its
# module when the backend is first built, so resolving one choice loads
# that backend alone, and the import graph still reaches all three.
def _builtin() -> SolverBackend:
    from repro.prover.builtin import BuiltinBackend

    return BuiltinBackend()


def _z3() -> SolverBackend:
    from repro.prover.z3backend import Z3Backend

    return Z3Backend()


def _bounded() -> SolverBackend:
    from repro.prover.boundedbackend import BoundedBackend

    return BoundedBackend()


register_backend("builtin", _builtin)
register_backend("z3", _z3)
register_backend("bounded", _bounded)

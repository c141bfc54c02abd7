"""The pluggable solver backends: resolution, parity, graceful z3 skip."""

import json
from collections import Counter

import pytest

from repro.bench.table2 import pass_kwargs_for
from repro.engine import verify_passes
from repro.passes import ALL_VERIFIED_PASSES, EXTENSION_PASSES
from repro.prover import (
    SOLVER_CHOICES,
    SolverUnavailable,
    available_solvers,
    reset_solver_state,
    resolve_solver,
)
from repro.verify import Fact, Subgoal, VerificationSession
from repro.verify import facts as F
from repro.verify.discharge import Discharger
from repro.verify.report import to_json

SUITE = list(ALL_VERIFIED_PASSES) + list(EXTENSION_PASSES)


# --------------------------------------------------------------------------- #
# Resolution
# --------------------------------------------------------------------------- #
def test_auto_resolves_to_builtin():
    assert resolve_solver("auto").name == "builtin"
    assert resolve_solver().name == "builtin"


def test_unknown_backend_is_an_error():
    with pytest.raises(ValueError):
        resolve_solver("vampire")


def test_public_choices_are_registered():
    names = {name for name, _ in available_solvers()}
    assert {"builtin", "bounded", "z3"} <= names
    assert "auto" in SOLVER_CHOICES


def test_z3_resolves_or_fails_gracefully():
    try:
        import z3  # noqa: F401
    except ImportError:
        with pytest.raises(SolverUnavailable):
            resolve_solver("z3")
    else:
        assert resolve_solver("z3").name == "z3"


# --------------------------------------------------------------------------- #
# Discharge-level parity between builtin and bounded
# --------------------------------------------------------------------------- #
def _cx_pair_subgoal(with_same_qubits=True):
    session = VerificationSession()
    session.begin_path(())
    first, second = session.fresh_gate("a"), session.fresh_gate("b")
    facts = [
        (Fact(F.IS_CX, (first.uid,)), True),
        (Fact(F.IS_CX, (second.uid,)), True),
    ]
    if with_same_qubits:
        facts.append((Fact(F.SAME_QUBITS, (first.uid, second.uid)), True))
    return Subgoal(kind="equivalence", description="cx pair",
                   lhs=(first, second), rhs=(), path_facts=tuple(facts))


@pytest.mark.parametrize("solver", ["builtin", "bounded"])
def test_backends_prove_the_cx_cancellation(solver):
    result = Discharger(solver)(_cx_pair_subgoal())
    assert result.proved
    assert result.certificate is not None
    assert result.certificate.backend == solver
    assert any("cancel" in name for name in result.certificate.rules_fired)


@pytest.mark.parametrize("solver", ["builtin", "bounded"])
def test_backends_reject_the_unsupported_cancellation(solver):
    result = Discharger(solver)(_cx_pair_subgoal(with_same_qubits=False))
    assert not result.proved
    # Backend-independent failure format: the report strings must agree.
    assert result.reason.startswith("could not derive ")


# --------------------------------------------------------------------------- #
# Suite-level: byte-identical reports (the acceptance criterion)
# --------------------------------------------------------------------------- #
def test_suite_reports_are_backend_independent(tmp_path):
    """``--solver builtin`` and ``--solver bounded`` render byte-identical
    reports over the whole 47-pass suite.

    Two CLI invocations start from identical symbolic-uid counters, so
    their reports compare byte-for-byte; in-process the counter is global,
    so the test pins it to the same start for each solver run (warm reads
    then carry time 0.0, making the JSON exact).
    """
    import itertools

    from repro.verify import symvalues

    reports = {}
    for solver in ("builtin", "bounded"):
        symvalues._uid_counter = itertools.count()
        cache_dir = str(tmp_path / solver)
        cold = verify_passes(SUITE, cache_dir=cache_dir, solver=solver,
                             pass_kwargs_fn=pass_kwargs_for)
        assert cold.stats.solver == solver
        assert cold.stats.cache_misses == len(SUITE)
        warm = verify_passes(SUITE, cache_dir=cache_dir, solver=solver,
                             pass_kwargs_fn=pass_kwargs_for)
        assert warm.stats.cache_hits == len(SUITE)
        reports[solver] = to_json(warm.results)
    assert reports["builtin"] == reports["bounded"]
    # And every pass actually verified (the comparison is not vacuous).
    payload = json.loads(reports["builtin"])
    assert payload["summary"]["all_verified"] is True
    assert payload["summary"]["total"] == 47


#: How a stateless run of the suite discharges its 223 subgoals.  The
#: solver stage is the only one that differs between the two backends.
_SHARED_METHODS = {"identical": 67, "library lemma": 10, "structural": 37}
SUITE_METHODS = {
    "builtin": {"congruence closure": 109, **_SHARED_METHODS},
    "bounded": {"bounded rewrite": 109, **_SHARED_METHODS},
}


def test_stateless_suite_runs_discharge_by_the_same_methods_per_backend():
    """Each backend, from empty memos and with no store, proves the same
    verdicts, and each stage discharges the same number of subgoals."""
    verdicts = {}
    for solver, expected in SUITE_METHODS.items():
        reset_solver_state()
        report = verify_passes(SUITE, use_cache=False, solver=solver,
                               pass_kwargs_fn=pass_kwargs_for,
                               counterexample_search=False)
        methods = Counter(outcome.result.method for result in report.results
                          for outcome in result.subgoals)
        assert sum(result.num_subgoals for result in report.results) == 223
        assert dict(methods) == expected, solver
        verdicts[solver] = [(r.pass_name, r.verified) for r in report.results]
    assert verdicts["builtin"] == verdicts["bounded"]
    assert len(verdicts["builtin"]) == 47


def test_solver_choice_separates_cache_keys(tmp_path):
    """A warm builtin store must not serve a bounded run (methods differ)."""
    cache_dir = str(tmp_path / "shared")
    subset = SUITE[:4]
    verify_passes(subset, cache_dir=cache_dir, solver="builtin",
                  pass_kwargs_fn=pass_kwargs_for)
    report = verify_passes(subset, cache_dir=cache_dir, solver="bounded",
                           pass_kwargs_fn=pass_kwargs_for)
    assert report.stats.cache_misses == len(subset)
    # Incremental probe must not cross solvers either.
    incremental = verify_passes(subset, cache_dir=cache_dir, solver="bounded",
                                pass_kwargs_fn=pass_kwargs_for,
                                changed_paths=[])
    assert incremental.stats.cache_hits == len(subset)
    back = verify_passes(subset, cache_dir=cache_dir, solver="builtin",
                         pass_kwargs_fn=pass_kwargs_for, changed_paths=[])
    assert back.stats.cache_hits == len(subset)
    assert back.stats.cache_misses == 0

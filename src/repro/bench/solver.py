"""Solver benchmark: the indexed rulebase vs the seed-era linear scan.

Two measurements, both cold:

* **E-matching** — the component the prover refactor replaced.  A
  rule-heavy register workload (hundreds of cancellation rules, a goal
  only a handful can fire on — the shape a production-scale rule library
  has) is instantiated through the operator-indexed
  :class:`~repro.prover.rulebase.RuleBase` and through the seed's linear
  scan (:func:`repro.smt.ematch.instantiate_rules`), which stays as the
  reference implementation.  The derived equalities must agree; the wall
  ratio is the headline ``speedup``.  The index is a scaling property:
  at the paper's scale (a handful of rules per obligation) the two are
  within noise of each other.
* **Suite** — the full verification suite, stateless, once under
  ``builtin`` plus whatever ``--solver`` adds (``bounded``; ``z3`` where
  installed).  Verdicts must match across all of them; per-method
  discharge counts ride along so the record says where the time goes.

Run as ``repro bench solver [--record PATH] [--solver NAME ...]`` or
``python -m repro.bench.solver``; the CI solver-matrix job records the JSON
as an artifact, seeding the bench trajectory.
"""

from __future__ import annotations

import argparse
import json
from collections import Counter
from typing import Dict, List, Optional, Sequence

from repro.bench.table2 import pass_kwargs_for
from repro.engine import verify_passes
from repro.passes import ALL_VERIFIED_PASSES, EXTENSION_PASSES


def _suite(pass_classes: Optional[Sequence] = None) -> List:
    return list(pass_classes) if pass_classes is not None \
        else list(ALL_VERIFIED_PASSES) + list(EXTENSION_PASSES)


def _run_once(suite, solver: str) -> Dict[str, object]:
    from repro.prover import reset_solver_state

    # A memo warmed by a previous measurement would flatter this one.
    reset_solver_state()
    report = verify_passes(
        suite, use_cache=False, solver=solver,
        pass_kwargs_fn=pass_kwargs_for, counterexample_search=False,
    )
    methods: Counter = Counter()
    for result in report.results:
        for outcome in result.subgoals:
            methods[outcome.result.method] += 1
    return {
        "solver": solver,
        "wall_seconds": round(report.stats.wall_seconds, 6),
        "verdicts": [(r.pass_name, r.verified) for r in report.results],
        "methods": dict(sorted(methods.items())),
        "subgoals": sum(r.num_subgoals for r in report.results),
    }


def ematch_bench(num_rules: int = 256, chain: int = 12,
                 repeats: int = 5) -> Dict[str, object]:
    """Time indexed vs linear instantiation on a rule-heavy workload.

    ``num_rules`` cancellation rules over distinct qubits, a goal chain
    that only four of them can fire on: the linear scan probes every rule
    each round, the index dispatches on the encoded-gate discriminator.
    Both must derive the goal (and the same instantiation fixed point).
    """
    import time

    from repro.circuit.gate import Gate
    from repro.prover.rulebase import RuleBase
    from repro.smt.congruence import CongruenceClosure
    from repro.smt.ematch import instantiate_rules
    from repro.smt.solver import goal_atoms
    from repro.smt.terms import CIRCUIT, eq, var
    from repro.symbolic.rules import apply_sequence, cancellation_rule_for, gate_term

    rules = [cancellation_rule_for(Gate("h", (i,))) for i in range(num_rules)]
    register = var("Q0", CIRCUIT)
    sequence: List = []
    for i in range(chain):
        gate = gate_term(Gate("h", (i % 4,)))
        sequence += [gate, gate]
    goal = eq(apply_sequence(sequence, register), register)

    def fresh_closure() -> CongruenceClosure:
        closure = CongruenceClosure()
        for atom in goal_atoms(goal):
            for sub in atom.subterms():
                closure.add_term(sub)
        return closure

    started = time.perf_counter()
    for _ in range(repeats):
        linear_closure = fresh_closure()
        instantiate_rules(list(rules), linear_closure, max_rounds=8)
    linear_wall = time.perf_counter() - started

    rulebase = RuleBase(rules)
    started = time.perf_counter()
    for _ in range(repeats):
        indexed_closure = fresh_closure()
        rulebase.instantiate(indexed_closure, max_rounds=8)
    indexed_wall = time.perf_counter() - started

    lhs, rhs = goal.args
    return {
        "rules": num_rules,
        "repeats": repeats,
        "linear_wall_seconds": round(linear_wall, 6),
        "indexed_wall_seconds": round(indexed_wall, 6),
        "speedup": round(linear_wall / max(indexed_wall, 1e-9), 3),
        "both_derive_goal": bool(linear_closure.equal(lhs, rhs)
                                 and indexed_closure.equal(lhs, rhs)),
    }


def run_solver_bench(pass_classes: Optional[Sequence] = None,
                     solvers: Sequence[str] = ()) -> Dict[str, object]:
    """Measure the E-matching component and cold stateless suite runs.

    Always measures ``builtin``; ``solvers`` adds further backends (e.g.
    ``bounded``, or ``z3`` where installed) to the same record.
    """
    from repro.prover import SolverUnavailable, resolve_solver

    suite = _suite(pass_classes)
    ematch = ematch_bench()
    names = ["builtin"]
    skipped: Dict[str, str] = {}
    for name in solvers:
        if name in names:
            continue
        try:
            resolve_solver(name)
        except (SolverUnavailable, ValueError) as exc:
            # The matrix skips what the environment cannot run (the CI
            # z3 leg works the same way) instead of crashing the bench.
            skipped[name] = str(exc)
            continue
        names.append(name)
    runs = {name: _run_once(suite, name) for name in names}
    verdicts = {name: run.pop("verdicts") for name, run in runs.items()}
    agreement = all(v == verdicts["builtin"] for v in verdicts.values())
    if not agreement:
        # The one record anyone opens after a divergence must show which
        # pass diverged: put every backend's verdicts back, uniformly.
        for name, run in runs.items():
            run["verdicts"] = verdicts[name]
    return {
        "passes": len(suite),
        "ematch": ematch,
        "indexed_wall_seconds": ematch["indexed_wall_seconds"],
        "linear_wall_seconds": ematch["linear_wall_seconds"],
        "speedup": ematch["speedup"],
        "verdicts_identical": agreement and ematch["both_derive_goal"],
        "skipped_solvers": skipped,
        "runs": runs,
    }


def render(payload: Dict[str, object]) -> List[str]:
    ematch = payload["ematch"]
    lines = [
        f"solver bench: {payload['passes']} passes, cold, no cache",
        f"  e-matching ({ematch['rules']} rules x {ematch['repeats']}): "
        f"linear {ematch['linear_wall_seconds']:.3f}s, "
        f"indexed {ematch['indexed_wall_seconds']:.3f}s "
        f"({ematch['speedup']:.1f}x)",
    ]
    for name, run in payload["runs"].items():
        methods = ", ".join(f"{method}: {count}"
                            for method, count in run["methods"].items())
        lines.append(f"  {name:16s}: {run['wall_seconds']:.3f}s wall "
                     f"({run['subgoals']} subgoals; {methods})")
    for name, reason in payload.get("skipped_solvers", {}).items():
        lines.append(f"  {name:16s}: skipped ({reason})")
    lines.append(f"  verdicts identical: {payload['verdicts_identical']}")
    return lines


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--solver", action="append", default=None,
                        metavar="NAME",
                        help="additionally measure this backend "
                             "(repeatable; e.g. --solver bounded)")
    parser.add_argument("--record", default=None, metavar="PATH",
                        help="write the measured comparison as JSON")
    args = parser.parse_args(list(argv) if argv is not None else None)

    payload = run_solver_bench(solvers=args.solver or ())
    for line in render(payload):
        print(line)
    if args.record:
        with open(args.record, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 0 if payload["verdicts_identical"] else 1


if __name__ == "__main__":
    raise SystemExit(main())

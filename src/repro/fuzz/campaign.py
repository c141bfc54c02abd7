"""Campaign driver: differential fuzzing at scale, plus corpus replay.

A campaign pushes ``num_cases`` seeded random configurations
(:mod:`repro.fuzz.generate`) through every target pass with the
differential oracle (:mod:`repro.fuzz.oracle`), shrinks each divergence
(:mod:`repro.fuzz.shrink`) and persists the minimised witnesses in the
replayable corpus (:mod:`repro.fuzz.corpus`).  Failing passes also get a
*verifier block*: the symbolic verdict for the same pass with the failing
subgoals' proof certificates, computed once per pass in the campaign's
own process — a fuzzing hit travels with its symbolic diagnosis.

Campaigns decompose into independent seed-range batches, and
:func:`run_campaign` maps :func:`execute_fuzz_unit` over contiguous case
batches on the engine's process pool
(:class:`repro.engine.scheduler.WorkerPool`, whose one user this is);
``--workers 1`` runs the batches in-process.  Each batch is a JSON spec of
case indices, and a case is generated from ``(seed, index, config)``
alone, which is why a case's outcome (and therefore the corpus bytes)
cannot depend on the worker count or on how the seed range was chunked.
Everything a batch returns is a pure function of ``(seed, index,
config)``; the merge sorts entries into canonical order and the corpus
writer records nothing run-dependent.
"""

from __future__ import annotations

import math
import os
import re
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.fuzz.corpus import (
    CORPUS_SCHEMA_VERSION,
    circuit_from_record,
    circuit_to_record,
    coupling_from_record,
    coupling_to_record,
    load_corpus,
    write_corpus,
)
from repro.fuzz.generate import FuzzCase, coupling_for, generate_case, normalize_config
from repro.fuzz.oracle import differential_check, fuzz_pass_kwargs
from repro.fuzz.shrink import shrink_failure
from repro.telemetry import trace as _trace
from repro.telemetry.metrics import CounterRegistry, render_prometheus

_METRICS_NAME = "metrics.prom"


def fuzz_registry(include_buggy: bool = True) -> Dict[str, type]:
    """Every pass a fuzz campaign can target, by name.

    The verified + extension registry
    (:func:`repro.passes.pass_registry`), plus (by default) the known-buggy
    variants from :mod:`repro.passes.buggy` — those are the campaign's
    ground truth and must resolve on workers and during replay.
    """
    from repro.passes import pass_registry

    registry = pass_registry()
    if include_buggy:
        from repro.passes.buggy import BUGGY_PASSES

        for pass_class in BUGGY_PASSES:
            registry[pass_class.__name__] = pass_class
    return registry


# --------------------------------------------------------------------------- #
# Per-case execution (pure: batches and the hint prelude share it)
# --------------------------------------------------------------------------- #
def _failure_entry(name: str, pass_class, case: FuzzCase, failure,
                   config: Dict, counters: CounterRegistry) -> Dict:
    circuit = failure.input_circuit if failure.input_circuit is not None \
        else case.circuit
    shrink_block = None
    if config.get("shrink", True):
        result = shrink_failure(
            pass_class, circuit, failure, coupling=case.coupling,
            budget=int(config.get("shrink_budget", 400)),
        )
        circuit = result.circuit
        failure = result.failure
        shrink_block = {
            "steps": result.steps,
            "checks": result.checks,
            "minimal": result.minimal,
        }
        counters.inc("repro_fuzz_shrink_steps_total", result.steps)
        counters.inc("repro_fuzz_shrink_checks_total", result.checks)
    counters.inc("repro_fuzz_failures_total")
    entry = {
        "schema": CORPUS_SCHEMA_VERSION,
        "pass": name,
        "case_id": case.case_id,
        "seed": case.seed,
        "kind": failure.kind,
        "description": failure.description,
        "circuit": circuit_to_record(circuit),
        "device": coupling_to_record(case.coupling),
        "original_gates": len(case.circuit.gates),
    }
    if shrink_block is not None:
        entry["shrink"] = shrink_block
    return entry


def _run_case(case: FuzzCase, targets: Sequence[Tuple[str, type]],
              config: Dict, counters: CounterRegistry) -> List[Dict]:
    """Run one case through every target pass; return failure entries."""
    counters.inc("repro_fuzz_cases_total")
    entries: List[Dict] = []
    for name, pass_class in targets:
        counters.inc("repro_fuzz_checks_total")
        failure = differential_check(pass_class, case.circuit, case.coupling)
        if failure is None:
            continue
        entries.append(_failure_entry(name, pass_class, case, failure,
                                      config, counters))
    return entries


def execute_fuzz_unit(spec: Dict) -> Dict:
    """Execute one fuzz work unit (a contiguous batch of case indices).

    ``spec`` is JSON-shaped: ``{"seed", "indices", "passes", "config"}``,
    and so is the returned payload.  Pure: the payload depends only on
    the spec.
    """
    config = normalize_config(spec.get("config"))
    registry = fuzz_registry(include_buggy=True)
    targets: List[Tuple[str, type]] = []
    for name in spec.get("passes") or []:
        if name not in registry:
            raise ValueError(f"unknown fuzz target pass: {name!r}")
        targets.append((name, registry[name]))
    counters = CounterRegistry()
    entries: List[Dict] = []
    indices = [int(i) for i in spec.get("indices") or []]
    for index in indices:
        case = generate_case(int(spec["seed"]), index, config)
        entries.extend(_run_case(case, targets, config, counters))
    return {
        "entries": entries,
        "cases": len(indices),
        "counters": counters.snapshot(),
    }


# --------------------------------------------------------------------------- #
# Verifier blocks (symbolic half of the differential pair)
# --------------------------------------------------------------------------- #
_UID_TOKEN = re.compile(r"\b(seg|g|int)(\d+)\b")


def _canonicalize_uids(block: Dict) -> Dict:
    """Renumber symbolic uids in a verifier block's diagnostic strings.

    Subgoal descriptions and prover reasons quote symbolic value uids
    (``seg41``, ``g42``) drawn from a process-global counter, so the raw
    text depends on how much symbolic execution ran earlier in the
    process.  The corpus promises byte determinism; renumbering by order
    of first appearance makes the strings a pure function of the pass.
    """
    mapping: Dict[str, str] = {}

    def rename(match: "re.Match") -> str:
        token = match.group(0)
        if token not in mapping:
            mapping[token] = f"{match.group(1)}{len(mapping)}"
        return mapping[token]

    def walk(value):
        if isinstance(value, str):
            return _UID_TOKEN.sub(rename, value)
        if isinstance(value, dict):
            return {key: walk(item) for key, item in value.items()}
        if isinstance(value, list):
            return [walk(item) for item in value]
        return value

    return walk(block)


def _verifier_block(pass_class) -> Dict:
    """Symbolic verdict + failing-subgoal certificates for one pass.

    Computed once per failing pass, in the campaign's process.  Certificate
    payloads are stripped of wall times: the corpus promises byte
    determinism, and proof wall seconds are the one run-dependent field.
    """
    from repro.coupling.devices import linear_device
    from repro.errors import ReproError
    from repro.verify.verifier import verify_pass

    kwargs = fuzz_pass_kwargs(pass_class, linear_device(5))
    try:
        result = verify_pass(pass_class, kwargs, counterexample_search=False)
    except ReproError as exc:
        return {"verified": None, "supported": False, "error": str(exc)}
    failing = []
    for outcome in result.subgoals:
        if outcome.result.proved:
            continue
        certificate = getattr(outcome.result, "certificate", None)
        payload = certificate.to_payload() if certificate is not None else None
        if payload is not None:
            payload.pop("wall_seconds", None)
        failing.append({
            "description": outcome.subgoal.description,
            "reason": outcome.result.reason,
            "certificate": payload,
        })
    return _canonicalize_uids({
        "verified": bool(result.verified),
        "supported": bool(result.supported),
        "failing_subgoals": failing,
    })


def _attach_verifier_blocks(entries: List[Dict],
                            registry: Dict[str, type],
                            counters: CounterRegistry) -> None:
    blocks: Dict[str, Dict] = {}
    for name in sorted({entry["pass"] for entry in entries}):
        pass_class = registry.get(name)
        if pass_class is None:
            continue
        blocks[name] = _verifier_block(pass_class)
        # The verifier claiming "verified" while the concrete oracle found
        # a failure is a true differential divergence (a verifier bug or
        # an unsound obligation) — worth its own counter.
        if blocks[name].get("verified"):
            counters.inc("repro_fuzz_divergences_total")
    for entry in entries:
        block = blocks.get(entry["pass"])
        if block is not None:
            entry["verifier"] = block


# --------------------------------------------------------------------------- #
# The campaign
# --------------------------------------------------------------------------- #
@dataclass
class CampaignResult:
    """Everything ``repro fuzz`` reports about one campaign."""

    seed: int
    cases: int
    passes: List[str]
    entries: List[Dict] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)
    corpus_dir: Optional[str] = None
    corpus_file: Optional[str] = None
    #: Always empty: a failing batch raises, in-process or on the pool.  Kept
    #: so the JSON report keeps its ``unit_failures`` key.
    unit_failures: List[str] = field(default_factory=list)

    @property
    def failures(self) -> int:
        return len(self.entries)

    @property
    def ok(self) -> bool:
        return not self.entries and not self.unit_failures


def _batch_specs(seed: int, num_cases: int, config: Dict,
                 workers: int) -> List[Dict]:
    """Cut the case range into contiguous batches, two per worker.

    Two batches per worker let a fast worker take a slow one's share; the
    split never affects results, because each case is generated from
    ``(seed, index, config)`` alone.
    """
    size = max(1, math.ceil(num_cases / (workers * 2)))
    return [{"seed": seed,
             "indices": list(range(lo, min(lo + size, num_cases))),
             "passes": config["passes"], "config": config}
            for lo in range(0, num_cases, size)]


def resolve_targets(passes: Optional[Sequence[str]],
                    include_buggy: bool) -> List[Tuple[str, type]]:
    """The (name, class) target list for a campaign, in canonical order."""
    registry = fuzz_registry(include_buggy=True)
    if passes:
        missing = sorted(set(passes) - set(registry))
        if missing:
            raise ValueError(f"unknown fuzz target passes: {', '.join(missing)}")
        names = sorted(set(passes))
    else:
        honest = fuzz_registry(include_buggy=False)
        names = sorted(honest)
        if include_buggy:
            from repro.passes.buggy import BUGGY_PASSES

            names += sorted(p.__name__ for p in BUGGY_PASSES)
    return [(name, registry[name]) for name in names]


def _hint_cases(targets: Sequence[Tuple[str, type]],
                config: Dict) -> List[Tuple[FuzzCase, Tuple[str, type]]]:
    """Deterministic prelude cases from the passes' own hints.

    A pass that publishes ``counterexample_hint()`` (the Section 7 case
    studies) gets its hint fuzzed first, on a device big enough for it —
    the 16-qubit lookahead livelock needs the ibm_16q topology, not the
    campaign's 5-qubit chain.
    """
    cases = []
    for name, pass_class in targets:
        hint_fn = getattr(pass_class, "counterexample_hint", None)
        if hint_fn is None:
            continue
        try:
            circuit = hint_fn()
        except Exception:
            continue
        device = str(config.get("device", "linear"))
        if circuit.num_qubits > 5 and device == "linear":
            device = "ibm_16q" if circuit.num_qubits <= 16 else device
        coupling = coupling_for(circuit.num_qubits, device)
        case = FuzzCase(case_id=f"hint:{name}", seed=-1,
                        circuit=circuit, coupling=coupling)
        cases.append((case, (name, pass_class)))
    return cases


def run_campaign(
    seed: int,
    num_cases: int,
    *,
    corpus_dir: Optional[str] = None,
    passes: Optional[Sequence[str]] = None,
    include_buggy: bool = False,
    workers: int = 1,
    config: Optional[Dict] = None,
    use_hints: bool = True,
) -> CampaignResult:
    """Run one differential fuzzing campaign; write the corpus if asked.

    Fully deterministic for a given ``(seed, num_cases, passes, config)``:
    the corpus bytes are identical across runs and across worker counts.
    Seed-range batches map over a
    :class:`~repro.engine.scheduler.WorkerPool` of ``workers`` processes;
    ``workers=1`` runs them in-process and ``workers=0`` means one per CPU
    (:func:`~repro.engine.scheduler.default_jobs`).
    """
    from repro.engine.scheduler import WorkerPool, default_jobs

    workers = int(workers)
    if workers <= 0:
        workers = default_jobs()
    config = normalize_config(config)
    targets = resolve_targets(passes, include_buggy)
    config["passes"] = [name for name, _ in targets]
    counters = CounterRegistry()
    tracer = _trace.current()
    scope = nullcontext() if tracer is None else tracer.span(
        "fuzz.campaign", kind="fuzz", seed=int(seed),
        cases=int(num_cases), passes=len(targets), workers=int(workers))
    with scope:
        entries: List[Dict] = []
        if use_hints:
            hint_scope = nullcontext() if tracer is None else \
                tracer.span("fuzz.hints", kind="fuzz")
            with hint_scope:
                for case, target in _hint_cases(targets, config):
                    entries.extend(_run_case(case, [target], config, counters))
        specs = _batch_specs(seed, num_cases, config, workers)
        for payload in WorkerPool(workers).map(execute_fuzz_unit, specs):
            entries.extend(payload["entries"])
            counters.merge(payload["counters"])
        registry = fuzz_registry(include_buggy=True)
        _attach_verifier_blocks(entries, registry, counters)

    result = CampaignResult(
        seed=int(seed),
        cases=int(num_cases),
        passes=list(config["passes"]),
        entries=entries,
        counters=counters.snapshot(),
        corpus_dir=corpus_dir,
    )
    if corpus_dir is not None:
        meta = {
            "schema": CORPUS_SCHEMA_VERSION,
            "seed": result.seed,
            "cases": result.cases,
            "passes": result.passes,
            "config": dict(config),
            "failures": result.failures,
            "counters": result.counters,
        }
        result.corpus_file = write_corpus(corpus_dir, entries, meta=meta)
        with open(os.path.join(corpus_dir, _METRICS_NAME), "w",
                  encoding="utf-8") as handle:
            handle.write(render_prometheus(result.counters))
    return result


# --------------------------------------------------------------------------- #
# Replay
# --------------------------------------------------------------------------- #
@dataclass
class ReplayReport:
    """Outcome of re-running every corpus entry as a regression unit."""

    total: int = 0
    reproduced: int = 0
    corrupt_lines: int = 0
    mismatches: List[Dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def counters(self) -> Dict[str, int]:
        return {
            "repro_fuzz_replays_total": self.total,
            "repro_fuzz_replay_mismatches_total": len(self.mismatches),
        }


def replay_corpus(corpus_dir: str) -> ReplayReport:
    """Re-run every corpus entry; each must reproduce its recorded verdict.

    An entry reproduces when the differential oracle reports a failure of
    the recorded ``kind`` on the stored minimised circuit and device.
    Unknown passes and schema-foreign lines are reported, never fatal.
    """
    entries, corrupt = load_corpus(corpus_dir)
    registry = fuzz_registry(include_buggy=True)
    report = ReplayReport(corrupt_lines=corrupt)
    tracer = _trace.current()
    scope = nullcontext() if tracer is None else tracer.span(
        "fuzz.replay", kind="fuzz", entries=len(entries))
    with scope:
        for entry in entries:
            report.total += 1
            name = str(entry.get("pass", ""))
            pass_class = registry.get(name)
            if pass_class is None:
                report.mismatches.append({
                    "case_id": entry.get("case_id"), "pass": name,
                    "expected": entry.get("kind"), "actual": "unknown-pass",
                })
                continue
            circuit = circuit_from_record(entry.get("circuit") or {})
            coupling = coupling_from_record(entry.get("device"))
            failure = differential_check(pass_class, circuit, coupling)
            actual = failure.kind if failure is not None else None
            if actual == entry.get("kind"):
                report.reproduced += 1
            else:
                report.mismatches.append({
                    "case_id": entry.get("case_id"), "pass": name,
                    "expected": entry.get("kind"), "actual": actual,
                })
    return report

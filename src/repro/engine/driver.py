"""The batch verification driver: ``verify_passes`` as a service.

This is the engine's public API.  It turns the one-shot
:func:`repro.verify.verifier.verify_pass` into a scalable operation:

* every pass is fingerprinted (source + constructor arguments + rule set)
  and served from the persistent :class:`~repro.engine.cache.ProofCache`
  when unchanged — a warm re-verification of the whole suite takes
  milliseconds instead of re-proving every obligation, and derives no key:
  a pass whose recorded dependency entry still matches the content digest
  of its sources is served through the fingerprint recorded there;
* cache misses are proved in the calling process, one after another, each
  discharging its subgoals through one subgoal table shared by the whole
  run, so even a *changed* pass reuses the obligations it shares with its
  previous version or with the passes proved before it;
* results come back in input order with an :class:`EngineStats` block
  (hits, misses, wall time) that the reports surface;
* dependency information (the fingerprint each verified configuration's
  key came to, and the digest of the sources it read) is recorded at
  verification time (see :mod:`repro.incremental`).

The CLI (``repro verify --all``), the pass manager's verify-before-run
mode, and the Table 2 benchmark driver all route through
:func:`verify_passes`.
"""

from __future__ import annotations

import importlib
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Type

from repro.engine.cache import (
    CacheStats,
    ProofCache,
    default_cache_dir,
)
from repro.engine.fingerprint import (
    DEFAULT_SOLVER,
    canonical_rule_names,
    data_dependency_digest,
    forget_edited,
    pass_fingerprint,
    subgoal_fingerprint,
)
from repro.telemetry import stats as store_stats
from repro.telemetry import trace as _trace
from repro.verify.results import (
    CounterExample,
    DischargeResult,
    PassAnalysis,
    SubgoalOutcome,
    VerificationResult,
)
from repro.verify.session import Subgoal

# The verifier and the discharge pipeline are imported where they are
# called: a run the proof store serves whole never loads them.

#: Passes that need a coupling map to be instantiated (Table 2 suite).
COUPLING_PASSES = {
    "BasicSwap",
    "LookaheadSwap",
    "SabreSwap",
    "CheckMap",
    "CheckCXDirection",
    "CheckGateDirection",
    "CXDirection",
    "GateDirection",
    "DenseLayout",
    "NoiseAdaptiveLayout",
    "SabreLayout",
    "CSPLayout",
    "Layout2qDistance",
    "EnlargeWithAncilla",
    "FullAncillaAllocation",
}


def default_pass_kwargs(pass_class, coupling=None) -> Optional[Dict]:
    """Constructor keyword arguments used when verifying one pass."""
    if pass_class.__name__ in COUPLING_PASSES:
        if coupling is None:
            from repro.coupling.devices import linear_device

            coupling = linear_device(5)
        return {"coupling": coupling}
    return None


# --------------------------------------------------------------------------- #
# Result (de)serialisation — cache entries are plain JSON-shaped dicts,
# never pickled result objects.
# --------------------------------------------------------------------------- #
def result_to_payload(result: VerificationResult) -> dict:
    analysis = None
    if result.analysis is not None:
        a = result.analysis
        analysis = {
            "pass_name": a.pass_name,
            "lines_of_code": a.lines_of_code,
            "branch_count": a.branch_count,
            "templates_used": list(a.templates_used),
            "utilities_used": list(a.utilities_used),
            "raw_loops": a.raw_loops,
            "non_critical_statements": a.non_critical_statements,
            "supported": a.supported,
            "unsupported_reason": a.unsupported_reason,
        }
    counterexample = None
    if result.counterexample is not None:
        c = result.counterexample
        counterexample = {
            "kind": c.kind,
            "description": c.description,
            "confirmed": c.confirmed,
            "input_qasm": c.input_circuit.to_qasm() if c.input_circuit is not None else None,
            "output_qasm": c.output_circuit.to_qasm() if c.output_circuit is not None else None,
        }
    return {
        "pass": result.pass_name,
        "verified": result.verified,
        "supported": result.supported,
        "paths_explored": result.paths_explored,
        "time_seconds": result.time_seconds,
        "failure_reasons": list(result.failure_reasons),
        "analysis": analysis,
        "subgoals": [
            {
                "kind": outcome.subgoal.kind,
                "description": outcome.subgoal.description,
                "proved": outcome.result.proved,
                "method": outcome.result.method,
                "reason": outcome.result.reason,
                "rules_used": list(outcome.result.rules_used),
            }
            for outcome in result.subgoals
        ],
        "counterexample": counterexample,
    }


def _parse_qasm_or_none(text: Optional[str]):
    if not text:
        return None
    try:
        from repro.qasm import parse_qasm

        return parse_qasm(text)
    except Exception:
        return None


def payload_to_result(payload: dict, from_cache: bool = False,
                      time_seconds: Optional[float] = None) -> VerificationResult:
    analysis = None
    if payload.get("analysis") is not None:
        a = payload["analysis"]
        analysis = PassAnalysis(
            pass_name=a["pass_name"],
            lines_of_code=a["lines_of_code"],
            branch_count=a["branch_count"],
            templates_used=tuple(a["templates_used"]),
            utilities_used=tuple(a["utilities_used"]),
            raw_loops=a["raw_loops"],
            non_critical_statements=a["non_critical_statements"],
            supported=a["supported"],
            unsupported_reason=a["unsupported_reason"],
        )
    counterexample = None
    if payload.get("counterexample") is not None:
        c = payload["counterexample"]
        counterexample = CounterExample(
            kind=c["kind"],
            description=c["description"],
            confirmed=c["confirmed"],
            input_circuit=_parse_qasm_or_none(c.get("input_qasm")),
            output_circuit=_parse_qasm_or_none(c.get("output_qasm")),
        )
    subgoals = [
        SubgoalOutcome(
            Subgoal(kind=s["kind"], description=s["description"]),
            DischargeResult(
                proved=s["proved"],
                method=s["method"],
                reason=s["reason"],
                rules_used=tuple(s["rules_used"]),
            ),
        )
        for s in payload.get("subgoals", ())
    ]
    return VerificationResult(
        pass_name=payload["pass"],
        verified=payload["verified"],
        supported=payload["supported"],
        analysis=analysis,
        subgoals=subgoals,
        paths_explored=payload["paths_explored"],
        time_seconds=payload["time_seconds"] if time_seconds is None else time_seconds,
        counterexample=counterexample,
        failure_reasons=list(payload["failure_reasons"]),
        from_cache=from_cache,
    )


# --------------------------------------------------------------------------- #
# One pass, with subgoal-level memoisation
# --------------------------------------------------------------------------- #
class SubgoalAccounting:
    """What one pass's discharge run contributed and consumed: new
    subgoal and certificate records for the store, hit and miss counts,
    and the hit keys whose recency the store refreshes."""

    def __init__(self, new_subgoals: Optional[Dict[str, dict]] = None,
                 new_certificates: Optional[Dict[str, dict]] = None,
                 hits: int = 0, misses: int = 0,
                 hit_keys: Optional[List[str]] = None) -> None:
        self.new_subgoals = {} if new_subgoals is None else new_subgoals
        self.new_certificates = {} if new_certificates is None else new_certificates
        self.hits = hits
        self.misses = misses
        self.hit_keys = [] if hit_keys is None else hit_keys


def _make_caching_discharge(subgoal_table: Dict[str, dict],
                            acct: SubgoalAccounting,
                            discharger, solver: str):
    """The discharge function every engine path shares: serve a subgoal
    from ``subgoal_table`` when its key is there, else prove it and record
    the result in the table and in ``acct``."""

    def caching_discharge(subgoal: Subgoal) -> DischargeResult:
        tracer = _trace.current()
        key = subgoal_fingerprint(subgoal, solver=solver)
        entry = subgoal_table.get(key)
        if entry is not None:
            acct.hits += 1
            acct.hit_keys.append(key)
            if tracer is not None:
                tracer.event("subgoal.cache", kind="cache", outcome="hit",
                             key=key[:12])
            return DischargeResult(
                proved=entry["proved"],
                method=entry["method"],
                reason=entry["reason"],
                rules_used=tuple(entry["rules_used"]),
            )
        acct.misses += 1
        if tracer is not None:
            tracer.event("subgoal.cache", kind="cache", outcome="miss",
                         key=key[:12])
            with tracer.span("subgoal.prove", kind="subgoal", key=key[:12],
                             solver=solver) as handle:
                result = discharger(subgoal)
                handle.attrs["method"] = result.method
                handle.attrs["proved"] = result.proved
        else:
            result = discharger(subgoal)
        # Rule names embed raw session uids; stored and reported under the
        # subgoal's canonical renaming (as certificates record them), a
        # result does not depend on which process proved it.
        result.rules_used = canonical_rule_names(subgoal, result.rules_used)
        record = {
            "proved": result.proved,
            "method": result.method,
            "reason": result.reason,
            "rules_used": list(result.rules_used),
        }
        subgoal_table[key] = record
        acct.new_subgoals[key] = record
        if result.certificate is not None:
            acct.new_certificates[key] = result.certificate.to_payload()
        return result

    return caching_discharge


def _verify_one(pass_class, pass_kwargs, counterexample_search,
                subgoal_table: Dict[str, dict],
                discharger=None) -> Tuple[VerificationResult, SubgoalAccounting]:
    """Verify one pass, serving subgoals from ``subgoal_table`` when possible.

    Returns ``(result, accounting)`` — the accounting's hit keys flow back
    to the persistent cache so LRU recency reflects snapshot-served reuse,
    and its certificate payloads feed the certificate tier.
    """
    from repro.verify.discharge import discharge
    from repro.verify.verifier import verify_pass

    discharger = discharger or discharge
    solver = getattr(discharger, "solver_name", DEFAULT_SOLVER)
    acct = SubgoalAccounting()
    result = verify_pass(
        pass_class,
        pass_kwargs=pass_kwargs,
        counterexample_search=counterexample_search,
        discharge_fn=_make_caching_discharge(subgoal_table, acct, discharger,
                                             solver),
    )
    return result, acct


def resolve_qualname(module_name: str, qualname: str):
    """The object a ``__module__``/``__qualname__`` pair names, imported."""
    obj = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


# --------------------------------------------------------------------------- #
# The batch API
# --------------------------------------------------------------------------- #
class EngineStats:
    """What one :func:`verify_passes` run did, for reports and logs.

    Its attributes are exactly its constructor's parameters, so
    ``EngineStats(**vars(stats))`` copies one (a ``repro watch`` child
    sends them to the watcher that way).
    """

    def __init__(self, passes_total: int = 0, cache_hits: int = 0,
                 cache_misses: int = 0, subgoal_hits: int = 0,
                 subgoal_misses: int = 0, invalidated: int = 0,
                 wall_seconds: float = 0.0, cache_dir: Optional[str] = None,
                 backend: Optional[str] = None, solver: str = "builtin",
                 stale_passes: Optional[int] = None) -> None:
        self.passes_total = passes_total
        self.cache_hits = cache_hits
        self.cache_misses = cache_misses
        self.subgoal_hits = subgoal_hits
        self.subgoal_misses = subgoal_misses
        self.invalidated = invalidated
        self.wall_seconds = wall_seconds
        self.cache_dir = cache_dir
        #: The ``backend`` name of the proof store that served this run
        #: (``jsonl``), or ``None`` for stateless (``--no-cache``) runs.
        self.backend = backend
        #: Which solver backend discharged this run's subgoals (resolved name:
        #: ``builtin``, ``bounded``, ``z3``).
        self.solver = solver
        #: Incremental runs only (``verify_passes(changed_paths=...)``): how
        #: many passes the recorded fingerprint did not serve (their sources
        #: moved, they had no dependency entry, or their proof was evicted), so
        #: their key was derived again.  ``None`` on full runs.
        self.stale_passes = stale_passes

    def to_dict(self) -> Dict[str, object]:
        """JSON view with a fixed, documented field order.

        Every run proves in-process, so ``jobs`` is always ``1`` and
        ``used_processes`` always ``false``; ``daemon`` and ``cluster`` are
        always ``null``.  The keys stay so the report's shape does not
        change.
        """
        return {
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "jobs": 1,
            "wall_seconds": round(self.wall_seconds, 6),
            "subgoal_hits": self.subgoal_hits,
            "subgoal_misses": self.subgoal_misses,
            "invalidated": self.invalidated,
            "used_processes": False,
            "passes_total": self.passes_total,
            "cache_dir": self.cache_dir,
            "backend": self.backend,
            "solver": self.solver,
            "daemon": None,
            "stale_passes": self.stale_passes,
            "cluster": None,
        }

    def summary_line(self) -> str:
        cache = "off" if self.cache_dir is None else self.cache_dir
        if self.backend and self.cache_dir is not None:
            cache = f"{cache} ({self.backend})"
        incremental = ""
        if self.stale_passes is not None:
            incremental = f"{self.stale_passes} stale re-checked, "
        solver = "" if self.solver in (None, "builtin") else f" [solver: {self.solver}]"
        return (
            f"engine: {self.passes_total} passes, jobs=1, "
            f"{incremental}"
            f"cache {self.cache_hits} hit / {self.cache_misses} miss "
            f"(subgoals {self.subgoal_hits}/{self.subgoal_hits + self.subgoal_misses} reused), "
            f"{self.wall_seconds:.3f}s wall [cache: {cache}]{solver}"
        )


def batch_distinct_configs(pairs: Sequence[Tuple[Type, Optional[Dict]]]):
    """Split (class, kwargs) pairs into rounds where each class appears once.

    ``verify_passes`` keys constructor kwargs by class (``pass_kwargs_fn``),
    so a batch may hold each class at most once; repeats — the same class
    requested under two couplings — are deferred to later rounds.  Yields
    lists of ``(original_index, pass_class, kwargs)``; in the common case
    (each class once) that is a single round.  The pass manager batches
    its configurations through this rule.
    """
    remaining = list(enumerate(pairs))
    while remaining:
        seen = set()
        batch, rest = [], []
        for index, (pass_class, kwargs) in remaining:
            if pass_class in seen:
                rest.append((index, (pass_class, kwargs)))
            else:
                seen.add(pass_class)
                batch.append((index, pass_class, kwargs))
        remaining = rest
        yield batch


class EngineReport:
    """Ordered verification results plus the engine statistics."""

    def __init__(self, results: Optional[List[VerificationResult]] = None,
                 stats: Optional[EngineStats] = None) -> None:
        self.results = [] if results is None else results
        self.stats = EngineStats() if stats is None else stats

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, index):
        return self.results[index]

    @property
    def all_verified(self) -> bool:
        return all(result.verified for result in self.results) and bool(self.results)


def verify_passes(
    pass_classes: Sequence[Type],
    *,
    cache: Optional[ProofCache] = None,
    cache_dir: Optional[str] = None,
    use_cache: bool = True,
    pass_kwargs_fn: Optional[Callable[[Type], Optional[Dict]]] = None,
    counterexample_search: bool = True,
    share_subgoals: bool = True,
    changed_paths: Optional[Iterable] = None,
    record_deps: bool = True,
    solver: str = "auto",
) -> EngineReport:
    """Verify a batch of passes in this process, reusing cached proofs.

    ``cache`` takes precedence over ``cache_dir``; with ``use_cache=False``
    the run is fully stateless (no reads, no writes).

    ``solver`` selects the :mod:`repro.prover` backend that discharges
    subgoals (``auto`` resolves to the builtin congruence-closure prover).
    The resolved choice joins every pass and subgoal fingerprint, so runs
    under different solvers never share cache entries — verdicts are
    required to agree across backends (the solver-matrix CI job holds them
    to it), but methods, certificates, and failure behaviour may not.
    Raises :class:`~repro.errors.SolverUnavailable` when the
    requested backend cannot run here (e.g. ``z3`` without z3 installed).

    ``share_subgoals=False`` gives every pass a private copy of the subgoal
    table, so each pass's ``time_seconds`` reflects proving all of its own
    obligations — benchmarks that report per-pass times want this; the
    default shares discharge results between passes within the run.

    Every cached run serves a pass whose dependency entry (see
    :mod:`repro.incremental.deps`) is fresh through the fingerprint
    recorded there, skipping source extraction and key derivation: the
    entry's ``sources`` digest still equals the content digest of
    everything its key reads.  Every other pass has its key derived again.
    ``changed_paths`` (the files the caller saw change; an empty iterable
    for "nothing changed") decides nothing about which keys are derived:
    it switches on ``stats.stale_passes``, the count of passes the
    recorded fingerprint did not serve.  Verdicts are identical to a full
    run.  ``record_deps=False`` writes no dependency entries, for cached
    runs that will never be re-driven incrementally.
    """
    started = time.perf_counter()
    # A long-lived process may have edited a source file since it last
    # hashed one: the digests, and the toolchain hash the store opens
    # under, are then read again.
    forget_edited()
    from repro.prover.backend import resolve_solver

    # Resolved before the store opens, so an unavailable backend fails
    # without creating the cache directory.
    backend = resolve_solver(solver)
    kwargs_fn = pass_kwargs_fn or default_pass_kwargs
    stats = EngineStats(passes_total=len(pass_classes), solver=backend.name)

    own_cache = False
    if cache is None and use_cache:
        cache = ProofCache(cache_dir or default_cache_dir())
        own_cache = True
    # An own cache just counted its load-time invalidations and they belong
    # to this run; a caller-provided (possibly long-lived) cache carries
    # counters from earlier runs, which must not be re-reported.
    base_invalidated = 0 if own_cache or cache is None else cache.stats.invalidated
    try:
        return _verify_passes_with_cache(
            pass_classes, stats, cache, kwargs_fn, counterexample_search,
            share_subgoals, started, base_invalidated,
            changed_paths=changed_paths, record_deps=record_deps,
            backend=backend,
        )
    finally:
        if own_cache:
            cache.close()


def resolve_pending(
    pass_classes, stats, cache, kwargs_fn,
    changed_paths=None, record_deps=True,
    solver: str = DEFAULT_SOLVER, recorder=None,
) -> Tuple[List[Optional[VerificationResult]], List[Tuple[int, Type, Optional[Dict], Optional[str]]]]:
    """Phase 1 of a batch run: serve what the cache can, collect the rest.

    A configuration whose dependency entry is *fresh* is served through
    the fingerprint recorded in it, without deriving its key: the entry's
    ``sources`` digest (:func:`repro.incremental.deps.sources_digest`,
    everything the key reads besides the configuration's identity,
    ``solver`` included) equals the current one, so its key is the
    recorded one.  Every other configuration is fingerprinted and served
    on a hit, and its entry is rewritten when its key or its sources
    moved.  ``changed_paths`` only switches on ``stats.stale_passes``.
    Returns ``(results, pending)``: ``results`` is a list aligned with
    ``pass_classes`` holding the cached results (``None`` where work
    remains) and ``pending`` lists ``(index, pass_class, pass_kwargs,
    key)`` for everything that must actually be proved.

    ``recorder`` (a :class:`~repro.telemetry.stats.StatsRecorder`) receives
    the canonical pass-tier outcome for every requested key: ``hit``
    (served from the cache), ``stale`` (not served by its recorded
    fingerprint on an incremental run, and re-proved), or ``miss``
    (cold).
    """
    if cache is not None:
        stats.backend = getattr(cache, "backend", None)
        if cache.directory is not None:
            stats.cache_dir = str(cache.directory)

    indexed = cache is not None and hasattr(cache, "deps_snapshot")
    incremental = changed_paths is not None and indexed
    track_deps = record_deps and indexed and hasattr(cache, "put_deps")
    dep_index: Dict[str, dict] = {}
    if indexed:
        from repro.incremental.deps import (
            build_dep_entry,
            identity_key,
            sources_digest,
        )

        dep_index = cache.deps_snapshot()
    if incremental:
        stats.stale_passes = 0

    tracer = _trace.current()
    results: List[Optional[VerificationResult]] = [None] * len(pass_classes)
    pending: List[Tuple[int, Type, Optional[Dict], Optional[str]]] = []
    for index, pass_class in enumerate(pass_classes):
        pass_kwargs = kwargs_fn(pass_class)
        key = ident = entry = sources = data = None
        if indexed:
            ident = identity_key(pass_class, pass_kwargs)
            data = data_dependency_digest(pass_class)
            sources = sources_digest(pass_class.__module__, solver, data)
            entry = dep_index.get(ident)
            if entry is not None and sources is not None \
                    and entry.get("sources") == sources:
                key = entry["fingerprint"]
        fresh = key is not None
        if not fresh:
            key = pass_fingerprint(pass_class, pass_kwargs, solver=solver,
                                   data_digests=data)
            if track_deps and key is not None:
                # Deriving the key hashes a module again if it was edited
                # since this run hashed it, so the sources are read again
                # beside the key.
                sources = sources_digest(pass_class.__module__, solver, data)
                if entry is None or entry.get("fingerprint") != key \
                        or entry.get("sources") != sources:
                    entry = build_dep_entry(pass_class, pass_kwargs, key,
                                            sources=sources)
                    cache.put_deps(ident, entry)
                    dep_index[ident] = entry
        cached = cache.get_pass(key) if cache is not None else None
        # On incremental runs, whatever the recorded fingerprint did not
        # serve (sources moved, no entry, or an evicted proof) counts as
        # stale.
        stale_pass = incremental and not (fresh and cached is not None)
        if stale_pass:
            stats.stale_passes += 1
            if tracer is not None:
                tracer.event("pass.cache", kind="cache", outcome="stale",
                             target=pass_class.__name__)
        if cached is not None:
            results[index] = payload_to_result(cached, from_cache=True, time_seconds=0.0)
            if recorder is not None:
                recorder.note_pass(key, "hit")
            if tracer is not None:
                tracer.event("pass.cache", kind="cache", outcome="hit",
                             target=pass_class.__name__, recorded=fresh)
        else:
            pending.append((index, pass_class, pass_kwargs, key))
            if recorder is not None:
                # "stale" = invalidated incrementally and re-proved; a cold
                # miss stays "miss" so the two are separable in the table.
                recorder.note_pass(key, "stale" if stale_pass else "miss")
            if tracer is not None:
                tracer.event("pass.cache", kind="cache", outcome="miss",
                             target=pass_class.__name__)
    return results, pending


def store_certificates(cache, certificates: Dict[str, dict]) -> None:
    """Write freshly minted certificate payloads through to the cache tier."""
    if cache is None or not certificates:
        return
    put = getattr(cache, "put_certificate", None)
    if put is None:
        return
    for key, value in certificates.items():
        put(key, value)


def _verify_passes_with_cache(
    pass_classes, stats, cache, kwargs_fn, counterexample_search,
    share_subgoals, started, base_invalidated, changed_paths,
    record_deps, backend,
) -> EngineReport:
    # Caller-provided caches may carry counters from earlier runs; report
    # only what this run contributed.
    base_hits = cache.stats.pass_hits if cache is not None else 0
    base_misses = cache.stats.pass_misses if cache is not None else 0

    # Store analytics ride along on every cached run: the recorder collects
    # the canonical per-key facts (plus backend io via the cache hook) and
    # persists store-stats.json beside the cache.  Strictly best-effort —
    # a recorder failure must never fail a verification run.
    recorder = None
    if cache is not None and store_stats.enabled():
        try:
            recorder = store_stats.StatsRecorder(
                cache.directory, backend=getattr(cache, "backend", None))
            cache.recorder = recorder
        except Exception:
            recorder = None

    results, pending = resolve_pending(
        pass_classes, stats, cache, kwargs_fn,
        changed_paths=changed_paths, record_deps=record_deps,
        solver=backend.name, recorder=recorder,
    )

    tracer = _trace.current()
    if pending:
        # The first miss loads the prover and the verifier.
        from repro.verify.discharge import Discharger

        discharger = Discharger(backend)
        subgoal_table = cache.subgoal_snapshot() if cache is not None else {}
        for index, pass_class, pass_kwargs, key in pending:
            table = subgoal_table if share_subgoals else dict(subgoal_table)
            if tracer is not None:
                with tracer.span(pass_class.__name__, kind="pass",
                                 solver=discharger.solver_name) as handle:
                    result, acct = _verify_one(
                        pass_class, pass_kwargs, counterexample_search,
                        table, discharger=discharger,
                    )
                    handle.attrs["subgoals"] = len(result.subgoals)
            else:
                result, acct = _verify_one(
                    pass_class, pass_kwargs, counterexample_search, table,
                    discharger=discharger,
                )
            results[index] = result
            stats.subgoal_hits += acct.hits
            stats.subgoal_misses += acct.misses
            if recorder is not None:
                recorder.note_unit(acct.hit_keys, acct.new_subgoals.keys())
                recorder.note_certificates(acct.new_certificates.keys())
            if cache is not None:
                cache.put_pass(key, result_to_payload(result))
                for sub_key, value in acct.new_subgoals.items():
                    # With private per-pass tables two passes can both
                    # "discover" a shared subgoal; store it once.
                    if not cache.has_subgoal(sub_key):
                        cache.put_subgoal(sub_key, value)
                store_certificates(cache, acct.new_certificates)
                cache.touch_subgoals(acct.hit_keys)

    backend_stats = None
    stats_fn = getattr(backend, "stats", None)
    if callable(stats_fn):
        try:
            backend_stats = stats_fn()
        except Exception:
            backend_stats = None
    if tracer is not None and backend_stats is not None:
        tracer.event("prover.stats", kind="prover",
                     solver=backend.name, **backend_stats)
    # The import scans since the last run, by path (a whole-file scan is
    # a fallback from the import skeleton); taken traced or not, so each
    # run reports its own.
    from repro.incremental.deps import take_scan_counts

    scans = take_scan_counts()
    if tracer is not None:
        tracer.event("deps.scan", kind="deps", **scans)
    if recorder is not None:
        try:
            recorder.finalize_and_save()
        except Exception:
            pass
        cache.recorder = None
    finalize_stats(stats, cache, base_hits, base_misses, base_invalidated,
                   len(pending), started)
    return EngineReport(results=list(results), stats=stats)


def finalize_stats(stats, cache, base_hits, base_misses, base_invalidated,
                   pending_count, started) -> None:
    """Close out one run's counters as deltas over the cache's totals, so
    a long-lived cache's earlier runs are not counted again."""
    if cache is not None:
        stats.cache_hits = cache.stats.pass_hits - base_hits
        stats.cache_misses = cache.stats.pass_misses - base_misses
        stats.invalidated = cache.stats.invalidated - base_invalidated
    else:
        stats.cache_misses = pending_count
    stats.wall_seconds = time.perf_counter() - started

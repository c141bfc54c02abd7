"""The batch verification driver: ``verify_passes`` as a service.

This is the engine's public API.  It turns the one-shot
:func:`repro.verify.verifier.verify_pass` into a scalable operation:

* every pass is fingerprinted (source + constructor arguments + rule set)
  and served from the persistent :class:`~repro.engine.cache.ProofCache`
  when unchanged — a warm re-verification of the whole suite takes
  milliseconds instead of re-proving every obligation;
* cache misses are fanned out over a
  :class:`~repro.engine.scheduler.WorkerPool` (``jobs=N``), each worker
  discharging the subgoals of its passes with a process-local view of the
  subgoal cache, so even a *changed* pass reuses the obligations it shares
  with its previous version;
* results come back in input order with an :class:`EngineStats` block
  (hits, misses, jobs, wall time) that the reports surface;
* dependency information (which source files each verified configuration's
  cache key depends on) is recorded at verification time, and
  ``verify_passes(changed_paths=...)`` uses it to re-fingerprint only the
  passes an edit can actually have invalidated (see
  :mod:`repro.incremental`).

The CLI (``repro verify --all --jobs 8``), the pass manager's
verify-before-run mode, and the Table 2 benchmark driver all route through
:func:`verify_passes`.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Type

from repro.engine.cache import (
    CacheStats,
    ProofCache,
    default_cache_dir,
)
from repro.engine.fingerprint import (
    DEFAULT_SOLVER,
    canonical_rule_names,
    pass_fingerprint,
    subgoal_fingerprint,
)
from repro.telemetry import stats as store_stats
from repro.telemetry import trace as _trace
from repro.verify.preprocessor import PassAnalysis
from repro.verify.results import (
    CounterExample,
    DischargeResult,
    SubgoalOutcome,
    VerificationResult,
)
from repro.verify.session import Subgoal

# The verifier, the discharge pipeline and the worker pool are imported
# where they are called: a run the proof store serves whole never loads
# them, and a watcher that reloaded one of them calls the reloaded code.

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
# Result (de)serialisation — cache entries and worker return values are plain
# JSON-shaped dicts, never pickled result objects.
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
@dataclass
class SubgoalAccounting:
    """What one pass's discharge run contributed and consumed.

    Bundled (instead of the seed's ever-growing tuple) because it now also
    carries the certificate tier and the mid-unit remote reads; every layer
    — driver, daemon, cluster worker, coordinator — hands the same shape
    around.
    """

    new_subgoals: Dict[str, dict] = field(default_factory=dict)
    new_certificates: Dict[str, dict] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0
    #: Hits served by the ``fallback`` lookup (a networked store reached
    #: mid-unit) rather than the local snapshot.
    remote_hits: int = 0
    hit_keys: List[str] = field(default_factory=list)


def _make_caching_discharge(subgoal_table: Dict[str, dict],
                            acct: SubgoalAccounting,
                            discharger, solver: str,
                            fallback=None):
    """The discharge function every engine path shares.

    Misses in the local ``subgoal_table`` may be served by ``fallback``
    (a callable ``key -> entry | None``, e.g. a
    :class:`~repro.cluster.store.RemoteProofStore` probe) before being
    proved; fallback-served entries count as hits, join the local table,
    and are *not* re-reported as new (the far side already has them).
    """

    def caching_discharge(subgoal: Subgoal) -> DischargeResult:
        tracer = _trace.current()
        key = subgoal_fingerprint(subgoal, solver=solver)
        entry = subgoal_table.get(key)
        remote = False
        if entry is None and fallback is not None:
            entry = fallback(key)
            if entry is not None:
                subgoal_table[key] = entry
                acct.remote_hits += 1
                remote = True
        if entry is not None:
            acct.hits += 1
            acct.hit_keys.append(key)
            if tracer is not None:
                tracer.event("subgoal.cache", kind="cache",
                             outcome="remote-hit" if remote else "hit",
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
                discharger=None, fallback=None) -> Tuple[VerificationResult, SubgoalAccounting]:
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
                                             solver, fallback),
    )
    return result, acct


#: Discharge method recorded for subgoals owned by another shard.  Never
#: cached or reported: shard payloads carry only the shard's own outcomes.
_DEFERRED_METHOD = "deferred-to-other-shard"


def verify_pass_shard(pass_class, pass_kwargs, shard_index: int, shard_count: int,
                      subgoal_table: Dict[str, dict],
                      discharger=None, fallback=None) -> Tuple[dict, SubgoalAccounting]:
    """Verify one pass but discharge only shard ``shard_index`` of ``shard_count``.

    The symbolic execution (path enumeration) runs in full — it is cheap
    and deterministic — while the discharge work, which dominates
    path-explosion-heavy passes, is limited to the subgoals whose global
    enumeration index lands in this shard (``index % shard_count ==
    shard_index``).  Subgoals owned by other shards receive a placeholder
    outcome that is excluded from the returned payload.

    Returns ``(shard_payload, accounting)`` with the same cache-feedback
    contract as :func:`_verify_one`, including mid-unit ``fallback``
    reads.  Counterexample search is always disabled here (no single shard
    can see the full failure set); the coordinator re-proves a failing
    split pass whole when a counterexample is wanted.  Merging every shard
    of a pass through :func:`merge_shard_payloads` reproduces the unsplit
    :func:`verify_pass` result exactly.
    """
    from repro.verify.discharge import discharge
    from repro.verify.verifier import verify_pass

    discharger = discharger or discharge
    solver = getattr(discharger, "solver_name", DEFAULT_SOLVER)
    acct = SubgoalAccounting()
    caching_discharge = _make_caching_discharge(subgoal_table, acct, discharger,
                                                solver, fallback)
    position = {"next": 0}

    def sharded_discharge(subgoal: Subgoal) -> DischargeResult:
        index = position["next"]
        position["next"] += 1
        if index % shard_count != shard_index:
            return DischargeResult(proved=True, method=_DEFERRED_METHOD,
                                   reason="owned by another shard", rules_used=())
        return caching_discharge(subgoal)

    result = verify_pass(
        pass_class,
        pass_kwargs=pass_kwargs,
        counterexample_search=False,
        discharge_fn=sharded_discharge,
    )
    base = result_to_payload(result)
    payload = {
        "pass": base["pass"],
        "shard_index": int(shard_index),
        "shard_count": int(shard_count),
        "supported": base["supported"],
        "subgoal_count": len(base["subgoals"]),
        "paths_explored": base["paths_explored"],
        "time_seconds": base["time_seconds"],
        "analysis": base["analysis"],
        # Unsupported passes emit no subgoals; their failure reasons come
        # from the analysis, which every shard reproduces identically.
        "unsupported_reasons": [] if base["supported"] else base["failure_reasons"],
        "outcomes": [
            dict(subgoal, index=index)
            for index, subgoal in enumerate(base["subgoals"])
            if index % shard_count == shard_index
        ],
    }
    return payload, acct


def merge_shard_payloads(shards: Sequence[dict]) -> dict:
    """Fold every shard of one pass back into an unsplit result payload.

    ``shards`` must hold exactly one payload per shard index of a single
    pass.  The merged payload is byte-identical to what an unsplit
    :func:`_verify_one` run would have cached, except ``time_seconds``,
    which is the *sum* of the shard times (a CPU-time view — the shards
    ran concurrently) and ``counterexample``, which is always ``None``
    (shard runs never search; the coordinator re-proves whole when one is
    wanted).
    """
    if not shards:
        raise ValueError("cannot merge zero shard payloads")
    ordered = sorted(shards, key=lambda s: s["shard_index"])
    first = ordered[0]
    expected = first["shard_count"]
    if [s["shard_index"] for s in ordered] != list(range(expected)):
        raise ValueError(
            f"incomplete shard set for {first['pass']}: "
            f"{[s['shard_index'] for s in ordered]} of {expected}"
        )
    for shard in ordered[1:]:
        if shard["pass"] != first["pass"] or \
                shard["subgoal_count"] != first["subgoal_count"] or \
                shard["paths_explored"] != first["paths_explored"]:
            raise ValueError(
                f"inconsistent shard payloads for {first['pass']}: the shards "
                f"disagree on the pass structure (non-deterministic enumeration?)"
            )
    subgoals: List[Optional[dict]] = [None] * first["subgoal_count"]
    for shard in ordered:
        for outcome in shard["outcomes"]:
            entry = dict(outcome)
            index = entry.pop("index")
            if subgoals[index] is not None:
                raise ValueError(
                    f"subgoal {index} of {first['pass']} covered by two shards")
            subgoals[index] = entry
    missing = [i for i, s in enumerate(subgoals) if s is None]
    if missing:
        raise ValueError(
            f"subgoals {missing} of {first['pass']} covered by no shard")
    if not first["supported"]:
        failure_reasons = list(first["unsupported_reasons"])
    else:
        failure_reasons = [
            f"{s['kind']}: {s['description']} -- {s['reason']}"
            for s in subgoals if not s["proved"]
        ]
    return {
        "pass": first["pass"],
        "verified": bool(first["supported"]) and not failure_reasons,
        "supported": first["supported"],
        "paths_explored": first["paths_explored"],
        "time_seconds": sum(s["time_seconds"] for s in ordered),
        "failure_reasons": failure_reasons,
        "analysis": first["analysis"],
        "subgoals": subgoals,
        "counterexample": None,
    }


def _resolve_class(module_name: str, qualname: str):
    obj = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


#: Per-worker-process snapshot of the subgoal cache, installed once by the
#: pool initializer rather than pickled into every task (the snapshot can be
#: large, the tasks are many).
_worker_subgoal_table: Dict[str, dict] = {}


def _install_worker_subgoal_table(table: Dict[str, dict]) -> None:
    global _worker_subgoal_table
    _worker_subgoal_table = table


def _verify_task(task: dict) -> dict:
    """Worker entry point: verify one pass from a picklable task description."""
    from repro.verify.discharge import Discharger

    pass_class = _resolve_class(task["module"], task["qualname"])

    def _run() -> Tuple[VerificationResult, SubgoalAccounting]:
        return _verify_one(
            pass_class,
            task["kwargs"],
            task["counterexample_search"],
            dict(_worker_subgoal_table),
            discharger=Discharger(task.get("solver", DEFAULT_SOLVER)),
        )

    spans = None
    if task.get("trace"):
        # Spans cannot stream to the parent's sink across the process
        # boundary; collect them and piggyback the batch on the result.
        with _trace.collecting(node="pool") as collector:
            with collector.span(pass_class.__name__, kind="pass",
                                solver=task.get("solver", DEFAULT_SOLVER)) as handle:
                submitted = task.get("submitted_at")
                if submitted is not None:
                    # perf_counter is system-wide on Linux; clamp anyway in
                    # case the platform's clock is per-process.
                    handle.attrs["queue_wait"] = round(
                        max(0.0, time.perf_counter() - float(submitted)), 6)
                result, acct = _run()
                handle.attrs["subgoals"] = len(result.subgoals)
        spans = collector.drain()
    else:
        result, acct = _run()
    output = {
        "result": result_to_payload(result),
        "new_subgoals": acct.new_subgoals,
        "new_certificates": acct.new_certificates,
        "subgoal_hits": acct.hits,
        "subgoal_misses": acct.misses,
        "subgoal_hit_keys": acct.hit_keys,
    }
    if spans is not None:
        output["spans"] = spans
    return output


# --------------------------------------------------------------------------- #
# The batch API
# --------------------------------------------------------------------------- #
@dataclass
class EngineStats:
    """What one :func:`verify_passes` run did, for reports and logs."""

    jobs: int = 1
    used_processes: bool = False
    passes_total: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    subgoal_hits: int = 0
    subgoal_misses: int = 0
    invalidated: int = 0
    wall_seconds: float = 0.0
    cache_dir: Optional[str] = None
    #: The ``backend`` name of the proof store that served this run
    #: (``jsonl``), or ``None`` for stateless (``--no-cache``) runs.
    backend: Optional[str] = None
    #: Which solver backend discharged this run's subgoals (resolved name:
    #: ``builtin``, ``bounded``, ``z3``).
    solver: str = "builtin"
    #: Set when the run was served by a resident daemon rather than
    #: in-process: endpoint, request count, uptime (see repro.service).
    daemon: Optional[Dict[str, object]] = None
    #: Incremental runs only (``verify_passes(changed_paths=...)``): how
    #: many passes were actually re-fingerprinted because a dependency file
    #: changed (or no dependency entry existed).  ``None`` on full runs.
    stale_passes: Optional[int] = None
    #: Set when the run was scheduled by a cluster coordinator: worker
    #: count, unit counts, split passes, steals/retries (see repro.cluster).
    cluster: Optional[Dict[str, object]] = None

    def to_dict(self) -> Dict[str, object]:
        """JSON view with a fixed, documented field order."""
        return {
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "jobs": self.jobs,
            "wall_seconds": round(self.wall_seconds, 6),
            "subgoal_hits": self.subgoal_hits,
            "subgoal_misses": self.subgoal_misses,
            "invalidated": self.invalidated,
            "used_processes": self.used_processes,
            "passes_total": self.passes_total,
            "cache_dir": self.cache_dir,
            "backend": self.backend,
            "solver": self.solver,
            "daemon": self.daemon,
            "stale_passes": self.stale_passes,
            "cluster": self.cluster,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "EngineStats":
        """Rebuild stats from :meth:`to_dict` output (the wire format)."""
        stats = cls()
        for field_name in (
            "jobs", "used_processes", "passes_total", "cache_hits",
            "cache_misses", "subgoal_hits", "subgoal_misses", "invalidated",
            "wall_seconds", "cache_dir", "backend", "solver", "daemon",
            "stale_passes", "cluster",
        ):
            if field_name in payload:
                setattr(stats, field_name, payload[field_name])
        return stats

    def summary_line(self) -> str:
        cache = "off" if self.cache_dir is None else self.cache_dir
        if self.backend and self.cache_dir is not None:
            cache = f"{cache} ({self.backend})"
        incremental = ""
        if self.stale_passes is not None:
            incremental = f"{self.stale_passes} stale re-checked, "
        solver = "" if self.solver in (None, "builtin") else f" [solver: {self.solver}]"
        return (
            f"engine: {self.passes_total} passes, jobs={self.jobs}, "
            f"{incremental}"
            f"cache {self.cache_hits} hit / {self.cache_misses} miss "
            f"(subgoals {self.subgoal_hits}/{self.subgoal_hits + self.subgoal_misses} reused), "
            f"{self.wall_seconds:.3f}s wall [cache: {cache}]{solver}"
        )

    def merge(self, other: "EngineStats") -> "EngineStats":
        """Fold another run's counters into this one, in place.

        Additive counters (hits, misses, passes, wall time) add; booleans
        OR; identity fields (cache dir, backend, daemon) keep this run's
        values.  Used wherever one logical request spans several engine
        batches (the daemon's per-class batching, the client's HTTP
        chunking).
        """
        for field_name in ("passes_total", "cache_hits", "cache_misses",
                           "subgoal_hits", "subgoal_misses", "invalidated",
                           "wall_seconds"):
            setattr(self, field_name,
                    getattr(self, field_name) + getattr(other, field_name))
        # None (non-incremental) is the identity: a merge is incremental as
        # soon as any constituent run was, and stale counts add.
        if other.stale_passes is not None:
            self.stale_passes = (self.stale_passes or 0) + other.stale_passes
        self.used_processes = self.used_processes or other.used_processes
        self.jobs = max(self.jobs, other.jobs)
        return self

    def daemon_line(self) -> Optional[str]:
        """One-line description of the serving daemon, or ``None``."""
        if not self.daemon:
            return None
        endpoint = self.daemon.get("endpoint", "?")
        requests = self.daemon.get("requests_served")
        uptime = self.daemon.get("uptime_seconds")
        parts = [f"daemon: {endpoint}"]
        if requests is not None:
            parts.append(f"{requests} requests served")
        if uptime is not None:
            parts.append(f"up {float(uptime):.0f}s")
        return ", ".join(parts)

    def cluster_line(self) -> Optional[str]:
        """One-line description of the scheduling cluster, or ``None``."""
        if not self.cluster:
            return None
        info = self.cluster
        parts = [
            f"cluster: {info.get('workers', 0)} workers, "
            f"{info.get('units_total', 0)} units "
            f"({info.get('split_passes', 0)} passes split)"
        ]
        if info.get("stolen"):
            parts.append(f"{info['stolen']} stolen")
        if info.get("retried"):
            parts.append(f"{info['retried']} retried")
        if info.get("coordinator_units"):
            parts.append(f"{info['coordinator_units']} self-leased")
        if info.get("remote_subgoal_hits"):
            parts.append(f"{info['remote_subgoal_hits']} subgoals fetched mid-unit")
        if info.get("local_units"):
            parts.append(f"{info['local_units']} verified locally")
        return ", ".join(parts)


def batch_distinct_configs(pairs: Sequence[Tuple[Type, Optional[Dict]]]):
    """Split (class, kwargs) pairs into rounds where each class appears once.

    ``verify_passes`` keys constructor kwargs by class (``pass_kwargs_fn``),
    so a batch may hold each class at most once; repeats — the same class
    requested under two couplings — are deferred to later rounds.  Yields
    lists of ``(original_index, pass_class, kwargs)``; in the common case
    (each class once) that is a single round.  Every caller that batches
    configurations (the pass manager, the daemon) shares this rule, so the
    in-process and daemon paths can never diverge on which configuration
    gets verified.
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


def _check_changed_paths(changed_paths) -> None:
    """Reject a bare string ``changed_paths`` at every entry point.

    Iterating a string would silently treat its characters as one-letter
    paths: no dependency entry matches, every pass — including a genuinely
    edited one — is served through its recorded fingerprint, and the
    caller's bug becomes a stale verdict instead of an error.
    """
    if isinstance(changed_paths, (str, bytes)):
        raise TypeError(
            "changed_paths must be an iterable of paths, not a bare string")


@dataclass
class EngineReport:
    """Ordered verification results plus the engine statistics."""

    results: List[VerificationResult] = field(default_factory=list)
    stats: EngineStats = field(default_factory=EngineStats)

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
    jobs: int = 1,
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
    """Verify a batch of passes in parallel, reusing cached proofs.

    ``cache`` takes precedence over ``cache_dir``; with ``use_cache=False``
    the run is fully stateless (no reads, no writes).  Verdicts are
    independent of ``jobs``: scheduling only changes wall time.
    ``jobs=0`` means "auto": one worker per CPU (capped at 8), the same
    convention the CLI's ``--jobs 0`` exposes.

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

    ``changed_paths`` switches the run *incremental*: only passes whose
    recorded dependency files (see :mod:`repro.incremental.deps`) intersect
    the change set are re-fingerprinted; every other pass is served from
    the cache through the fingerprint recorded in the dependency index,
    skipping source extraction and hashing entirely.  Pass an empty
    iterable for "nothing changed".  Passes without a dependency entry are
    conservatively treated as stale.  Verdicts are identical to a full run;
    ``stats.stale_passes`` reports how many passes took the full path.
    ``record_deps=False`` skips dependency bookkeeping for cached runs that
    will never be re-driven incrementally.
    """
    started = time.perf_counter()
    _check_changed_paths(changed_paths)
    from repro.prover.backend import resolve_solver

    # Resolved before the store opens, so an unavailable backend fails
    # without creating the cache directory.
    backend = resolve_solver(solver)
    kwargs_fn = pass_kwargs_fn or default_pass_kwargs
    jobs = int(jobs)
    if jobs <= 0:
        from repro.engine.scheduler import default_jobs

        jobs = default_jobs()
    stats = EngineStats(jobs=jobs, passes_total=len(pass_classes),
                        solver=backend.name)

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

    Fingerprints every requested configuration (or, on incremental runs,
    only the ones the dependency index says an edit can have invalidated),
    serves cache hits, and records dependency entries.  Returns
    ``(results, pending)``: ``results`` is a list aligned with
    ``pass_classes`` holding the cached results (``None`` where work
    remains) and ``pending`` lists ``(index, pass_class, pass_kwargs,
    key)`` for everything that must actually be proved.

    ``recorder`` (a :class:`~repro.telemetry.stats.StatsRecorder`) receives
    the canonical pass-tier outcome for every requested key: ``hit``
    (served from the cache), ``stale`` (invalidated incrementally and
    re-proved), or ``miss`` (cold).  This phase runs on the coordinating
    process in every mode, so the recorded outcomes are identical at any
    worker count.

    ``solver`` is the resolved backend name the run discharges with; it
    joins every derived fingerprint, and dependency entries recorded under
    a *different* solver are conservatively treated as stale (their
    recorded fingerprint can only hit the other solver's cache entries).

    Shared by the in-process scheduler path below and the cluster
    coordinator (:mod:`repro.cluster.coordinator`), so the two can never
    disagree about what counts as cached, stale, or pending.
    """
    if cache is not None:
        stats.backend = getattr(cache, "backend", None)
        if cache.directory is not None:
            stats.cache_dir = str(cache.directory)

    # Incremental mode: the dependency index tells us which passes an edit
    # can possibly have invalidated; everything else is served through its
    # recorded fingerprint without being re-fingerprinted at all.
    incremental = changed_paths is not None and cache is not None \
        and hasattr(cache, "deps_snapshot")
    track_deps = record_deps and cache is not None and hasattr(cache, "put_deps")
    dep_index: Dict[str, dict] = {}
    changed: set = set()
    if incremental or track_deps:
        from repro.incremental.deps import (
            build_dep_entry,
            entry_watch_paths,
            identity_key,
        )
    if incremental:
        from repro.incremental.detect import normalize_path

        dep_index = cache.deps_snapshot()
        changed = {normalize_path(path) for path in changed_paths}
        stats.stale_passes = 0
    elif track_deps:
        dep_index = cache.deps_snapshot()

    tracer = _trace.current()
    results: List[Optional[VerificationResult]] = [None] * len(pass_classes)
    pending: List[Tuple[int, Type, Optional[Dict], Optional[str]]] = []
    for index, pass_class in enumerate(pass_classes):
        pass_kwargs = kwargs_fn(pass_class)
        ident = None
        probed_key = None
        stale_pass = False
        if incremental or track_deps:
            ident = identity_key(pass_class, pass_kwargs)
        if incremental:
            dep_entry = dep_index.get(ident)
            # A dependency entry recorded under another solver points at
            # that solver's cache keys; serving through it would hand this
            # run a different backend's verdict payload.
            if dep_entry is not None and \
                    dep_entry.get("solver", DEFAULT_SOLVER) == solver and \
                    changed.isdisjoint(entry_watch_paths(dep_entry)):
                probed_key = dep_entry.get("fingerprint")
                cached = cache.get_pass(probed_key)
                if cached is not None:
                    results[index] = payload_to_result(
                        cached, from_cache=True, time_seconds=0.0)
                    if recorder is not None:
                        recorder.note_pass(probed_key, "hit")
                    if tracer is not None:
                        tracer.event("pass.cache", kind="cache", outcome="hit",
                                     target=pass_class.__name__,
                                     incremental=True)
                    continue
            # No dependency entry, a changed dependency file, or an evicted
            # proof: take the full fingerprint-and-verify path.
            stats.stale_passes += 1
            stale_pass = True
            if tracer is not None:
                tracer.event("pass.cache", kind="cache", outcome="stale",
                             target=pass_class.__name__)
        key = pass_fingerprint(pass_class, pass_kwargs, solver=solver)
        if track_deps and key is not None:
            recorded = dep_index.get(ident)
            # An entry names its module, not its files, so it only needs
            # rewriting when the key moved or nothing was recorded.
            if recorded is None or recorded.get("fingerprint") != key:
                new_entry = build_dep_entry(pass_class, pass_kwargs, key,
                                            solver=solver)
                cache.put_deps(ident, new_entry)
                dep_index[ident] = new_entry
        # An unchanged-deps pass whose proof was evicted re-derives the key
        # just probed; asking the cache again would double-count the miss.
        if key is not None and key == probed_key:
            entry = None
        else:
            entry = cache.get_pass(key) if cache is not None else None
        if entry is not None:
            results[index] = payload_to_result(entry, from_cache=True, time_seconds=0.0)
            if recorder is not None:
                recorder.note_pass(key, "hit")
            if tracer is not None:
                tracer.event("pass.cache", kind="cache", outcome="hit",
                             target=pass_class.__name__)
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
                cache.directory, backend=getattr(cache, "backend", None),
                workers=stats.jobs)
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
        # The first miss loads the prover and the verifier, here in the
        # parent and before any fork, so pool workers inherit both.
        import repro.verify.verifier  # noqa: F401
        from repro.verify.discharge import Discharger

        discharger = Discharger(backend)
        subgoal_table = cache.subgoal_snapshot() if cache is not None else {}
        if stats.jobs > 1 and len(pending) > 1:
            from repro.engine.scheduler import WorkerPool

            pool = WorkerPool(stats.jobs, initializer=_install_worker_subgoal_table,
                              initargs=(subgoal_table,))
            tasks = [
                {
                    "module": pass_class.__module__,
                    "qualname": pass_class.__qualname__,
                    "kwargs": pass_kwargs,
                    "counterexample_search": counterexample_search,
                    "solver": discharger.solver_name,
                }
                for _, pass_class, pass_kwargs, _ in pending
            ]
            if tracer is not None:
                submitted = time.perf_counter()
                for task in tasks:
                    task["trace"] = True
                    task["submitted_at"] = submitted
            try:
                outputs = pool.map(_verify_task, tasks)
            finally:
                # The in-process fallback installs the snapshot in *this*
                # process; do not leak it into later runs.
                _install_worker_subgoal_table({})
            stats.used_processes = pool.used_processes
            for (index, _, _, key), output in zip(pending, outputs):
                results[index] = payload_to_result(output["result"])
                stats.subgoal_hits += output["subgoal_hits"]
                stats.subgoal_misses += output["subgoal_misses"]
                if recorder is not None:
                    recorder.note_unit(output["subgoal_hit_keys"],
                                       output["new_subgoals"].keys())
                    recorder.note_certificates(
                        (output.get("new_certificates") or {}).keys())
                if tracer is not None and output.get("spans"):
                    tracer.absorb(output["spans"])
                if cache is not None:
                    cache.put_pass(key, output["result"])
                    for sub_key, value in output["new_subgoals"].items():
                        if not cache.has_subgoal(sub_key):
                            cache.put_subgoal(sub_key, value)
                    store_certificates(cache, output.get("new_certificates") or {})
                    cache.touch_subgoals(output["subgoal_hit_keys"])
        else:
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
    """Close out one run's counters as deltas over the cache's totals.

    Shared by the in-process path and the cluster coordinator so hit/miss
    accounting is computed identically however the pending work was
    scheduled.
    """
    if cache is not None:
        stats.cache_hits = cache.stats.pass_hits - base_hits
        stats.cache_misses = cache.stats.pass_misses - base_misses
        stats.invalidated = cache.stats.invalidated - base_invalidated
    else:
        stats.cache_misses = pending_count
    stats.wall_seconds = time.perf_counter() - started

"""A Qiskit-style pass manager for the baseline (unverified) transpiler.

The pass manager runs a list of passes over the DAG representation, sharing a
property set between them, exactly like the original compiler's pipeline.
Verified (gate-list based) Giallar passes are plugged into the same pipeline
through the :class:`~repro.transpiler.wrapper.VerifiedPassWrapper`, which
performs the DAG <-> list conversions described in Section 4.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.circuit.circuit import QCircuit
from repro.dag.converters import circuit_to_dag, dag_to_circuit
from repro.dag.dagcircuit import DAGCircuit
from repro.errors import TranspilerError
from repro.verify.passes import BasePass, PropertySet


class DAGPass:
    """Base class for baseline passes that transform the DAG directly."""

    is_analysis = False

    def __init__(self, **options) -> None:
        self.options = options
        self.property_set: PropertySet = PropertySet()

    def run(self, dag: DAGCircuit) -> Optional[DAGCircuit]:
        raise NotImplementedError

    @classmethod
    def name(cls) -> str:
        return cls.__name__


@dataclass
class PassExecutionRecord:
    """Timing and bookkeeping for one pass execution."""

    pass_name: str
    seconds: float
    ops_before: int
    ops_after: int


class PassManager:
    """Run a sequence of passes over a circuit, sharing one property set.

    With ``verify_first=True`` the manager re-verifies every Giallar-style
    pass in the pipeline (through the cache-aware engine, so unchanged
    passes cost milliseconds) before the first circuit is compiled, and
    refuses to run a pipeline containing a pass that fails verification.
    """

    def __init__(self, passes: Sequence = (), *, verify_first: bool = False,
                 verify_jobs: int = 1, verify_cache_dir: Optional[str] = None,
                 verify_daemon: bool = False) -> None:
        self._passes: List = list(passes)
        self.property_set = PropertySet()
        self.records: List[PassExecutionRecord] = []
        self.verify_first = verify_first
        self.verify_jobs = verify_jobs
        self.verify_cache_dir = verify_cache_dir
        #: Route verification through a running ``repro serve`` daemon when
        #: one is found (falling back to in-process verification silently).
        self.verify_daemon = verify_daemon
        #: Configurations this manager has already verified: config key ->
        #: (class, kwargs), so :meth:`mark_stale` can map them back onto the
        #: incremental layer's dependency index.
        self._verified_classes: Dict = {}

    # ------------------------------------------------------------------ #
    # Verify-before-run
    # ------------------------------------------------------------------ #
    @staticmethod
    def _verify_kwargs_for(target) -> Optional[Dict]:
        """Constructor kwargs that reproduce this instance's configuration.

        The pipeline's passes are verified against the coupling map they
        will actually run with; passes without one fall back to the
        engine's default instantiation table.
        """
        coupling = getattr(target, "coupling", None)
        if coupling is not None:
            return {"coupling": coupling}
        from repro.engine import default_pass_kwargs

        return default_pass_kwargs(type(target))

    @staticmethod
    def _config_key(pass_class: type, kwargs: Optional[Dict]):
        coupling = (kwargs or {}).get("coupling")
        coupling_key = None
        if coupling is not None:
            coupling_key = (coupling.num_qubits, tuple(map(tuple, coupling.edges)))
        return (pass_class, coupling_key)

    def _verifiable_targets(self) -> List:
        """Distinct (class, kwargs) configurations appearing in the pipeline."""
        targets: List = []
        seen = set()
        for pass_instance in self._passes:
            target = pass_instance
            wrapped = getattr(pass_instance, "verified_pass", None)
            if wrapped is not None:
                target = wrapped
            if not isinstance(target, BasePass):
                continue
            kwargs = self._verify_kwargs_for(target)
            key = self._config_key(type(target), kwargs)
            if key not in seen:
                seen.add(key)
                targets.append((type(target), kwargs, key))
        return targets

    def ensure_verified(self) -> None:
        """Verify the pipeline's Giallar passes, raising on any failure.

        Configurations already verified by this manager are skipped; across
        processes the engine's proof cache (or, with ``verify_daemon=True``,
        a resident ``repro serve`` daemon over the shared store) makes
        re-verification cheap.
        """
        from contextlib import ExitStack

        from repro.engine import ProofCache, default_cache_dir, verify_passes
        from repro.engine.driver import batch_distinct_configs

        targets = [
            entry for entry in self._verifiable_targets()
            if entry[2] not in self._verified_classes
        ]
        if not targets:
            return
        directory = self.verify_cache_dir or default_cache_dir()
        client = None
        if self.verify_daemon:
            from repro.service.client import connect

            client = connect(directory)
        failed: List = []
        with ExitStack() as stack:
            cache = None
            if client is None:
                cache = stack.enter_context(ProofCache(directory))
            # One batch per distinct configuration of a class; in the common
            # case (each class once) this is a single call.
            pairs = [(cls, kwargs) for cls, kwargs, _ in targets]
            for batch in batch_distinct_configs(pairs):
                batch_kwargs = {cls: kwargs for _, cls, kwargs in batch}
                if client is not None:
                    from repro.service.client import verify_with_fallback

                    report = verify_with_fallback(
                        [cls for _, cls, _ in batch],
                        cache_dir=str(directory),
                        jobs=self.verify_jobs,
                        pass_kwargs_fn=batch_kwargs.get,
                        counterexample_search=False,
                        client=client,
                    )
                else:
                    report = verify_passes(
                        [cls for _, cls, _ in batch],
                        jobs=self.verify_jobs,
                        cache=cache,
                        pass_kwargs_fn=batch_kwargs.get,
                        counterexample_search=False,
                    )
                for (index, cls, kwargs), result in zip(batch, report.results):
                    if result.supported and not result.verified:
                        failed.append(result)
                    else:
                        self._verified_classes[targets[index][2]] = (cls, kwargs)
        if failed:
            details = "; ".join(
                f"{result.pass_name}: {result.failure_reasons[0] if result.failure_reasons else 'unproven'}"
                for result in failed
            )
            raise TranspilerError(
                f"verify-before-run rejected the pipeline ({details})"
            )

    def mark_stale(self, changed_paths) -> int:
        """Drop verified-markers an edit can have invalidated.

        A long-lived manager (notebook, service) skips re-verification of
        configurations it already verified; after a source edit that skip
        would trust a stale verdict.  This maps the changed files through
        the proof cache's dependency index (:mod:`repro.incremental`) and
        forgets exactly the affected configurations — the next :meth:`run`
        re-verifies those (warm from the cache when the key is unchanged)
        and only those.  Configurations without a dependency entry are
        conservatively forgotten too.  Returns how many were dropped.

        The edited state is refreshed, not just forgotten: the changed
        modules are reloaded and the memoised toolchain and file hashes
        dropped (otherwise re-verification would key against the *old*
        prover and re-trust the very verdicts the edit invalidated), and
        the pipeline's pass instances are re-pointed at their reloaded
        classes so the re-proof covers the new code rather than the class
        objects imported before the edit.
        """
        if not self._verified_classes:
            return 0
        from repro.engine import default_cache_dir
        from repro.engine.cache import read_deps_sidecar
        from repro.incremental.deps import identity_key
        from repro.incremental.detect import stale_identities
        from repro.incremental.watch import refresh_classes, refresh_source_state

        directory = self.verify_cache_dir or default_cache_dir()
        try:
            dep_index = read_deps_sidecar(directory)
        except Exception:
            dep_index = {}
        stale = stale_identities(dep_index, changed_paths)
        dropped = 0
        for key, (cls, kwargs) in list(self._verified_classes.items()):
            ident = identity_key(cls, kwargs)
            if ident in stale or ident not in dep_index:
                del self._verified_classes[key]
                dropped += 1
        if dropped:
            refresh_source_state(changed_paths)
            for pass_instance in self._passes:
                target = getattr(pass_instance, "verified_pass", None) or pass_instance
                refreshed = refresh_classes([type(target)])[0]
                if refreshed is not type(target):
                    target.__class__ = refreshed
        return dropped

    def append(self, pass_instance) -> "PassManager":
        self._passes.append(pass_instance)
        return self

    @property
    def passes(self) -> List:
        return list(self._passes)

    def run(self, circuit: QCircuit) -> QCircuit:
        """Run every pass in order and return the transformed circuit."""
        if self.verify_first:
            self.ensure_verified()
        self.records = []
        dag = circuit_to_dag(circuit)
        for pass_instance in self._passes:
            pass_instance.property_set = self.property_set
            started = time.perf_counter()
            ops_before = dag.size()
            dag = self._run_one(pass_instance, dag)
            self.records.append(
                PassExecutionRecord(
                    pass_name=type(pass_instance).__name__,
                    seconds=time.perf_counter() - started,
                    ops_before=ops_before,
                    ops_after=dag.size(),
                )
            )
        return dag_to_circuit(dag)

    def _run_one(self, pass_instance, dag: DAGCircuit) -> DAGCircuit:
        if isinstance(pass_instance, DAGPass):
            result = pass_instance.run(dag)
            return dag if result is None else result
        if isinstance(pass_instance, BasePass):
            # A verified pass used directly: convert at the boundary.
            circuit = dag_to_circuit(dag)
            result = pass_instance.run(circuit)
            produced = circuit if result is None else result
            return circuit_to_dag(produced)
        if hasattr(pass_instance, "run"):
            result = pass_instance.run(dag)
            return dag if result is None else result
        raise TranspilerError(f"cannot execute pipeline entry {pass_instance!r}")

    def total_time(self) -> float:
        return sum(record.seconds for record in self.records)

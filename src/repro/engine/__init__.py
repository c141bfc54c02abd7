"""The parallel, cache-aware verification engine.

Turns one-shot pass verification into a scalable service: content-addressed
proof fingerprints (:mod:`repro.engine.fingerprint`), a persistent on-disk
proof cache (:mod:`repro.engine.cache`), a multiprocessing scheduler
(:mod:`repro.engine.scheduler`), and the batch driver API
(:mod:`repro.engine.driver`) that the CLI, the pass manager, and the
benchmarks route through.  The names below are imported on first use.
"""

from typing import TYPE_CHECKING

from repro._exports import lazy_exports

if TYPE_CHECKING:
    from repro.engine.cache import (
        CacheStats,
        ProofCache,
        default_cache_dir,
    )
    from repro.engine.driver import (
        EngineReport,
        EngineStats,
        SubgoalAccounting,
        batch_distinct_configs,
        default_pass_kwargs,
        finalize_stats,
        merge_shard_payloads,
        payload_to_result,
        resolve_pending,
        result_to_payload,
        store_certificates,
        verify_pass_shard,
        verify_passes,
    )
    from repro.engine.fingerprint import (
        DEFAULT_SOLVER,
        ENGINE_VERSION,
        data_dependency_digest,
        pass_fingerprint,
        subgoal_fingerprint,
        toolchain_fingerprint,
        unit_fingerprint,
    )
    from repro.engine.scheduler import WorkerPool, default_jobs, parallel_map

__getattr__ = lazy_exports(__name__, {
    "repro.engine.cache": ("CacheStats", "ProofCache", "default_cache_dir"),
    "repro.engine.driver": (
        "EngineReport",
        "EngineStats",
        "SubgoalAccounting",
        "batch_distinct_configs",
        "default_pass_kwargs",
        "finalize_stats",
        "merge_shard_payloads",
        "payload_to_result",
        "resolve_pending",
        "result_to_payload",
        "store_certificates",
        "verify_pass_shard",
        "verify_passes",
    ),
    "repro.engine.fingerprint": (
        "DEFAULT_SOLVER",
        "ENGINE_VERSION",
        "data_dependency_digest",
        "pass_fingerprint",
        "subgoal_fingerprint",
        "toolchain_fingerprint",
        "unit_fingerprint",
    ),
    "repro.engine.scheduler": ("WorkerPool", "default_jobs", "parallel_map"),
})

__all__ = [
    "CacheStats",
    "DEFAULT_SOLVER",
    "ENGINE_VERSION",
    "EngineReport",
    "EngineStats",
    "ProofCache",
    "SubgoalAccounting",
    "WorkerPool",
    "batch_distinct_configs",
    "store_certificates",
    "data_dependency_digest",
    "default_cache_dir",
    "default_jobs",
    "default_pass_kwargs",
    "finalize_stats",
    "merge_shard_payloads",
    "parallel_map",
    "pass_fingerprint",
    "payload_to_result",
    "resolve_pending",
    "result_to_payload",
    "subgoal_fingerprint",
    "toolchain_fingerprint",
    "unit_fingerprint",
    "verify_pass_shard",
    "verify_passes",
]

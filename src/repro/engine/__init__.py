"""The cache-aware verification engine.

Turns one-shot pass verification into a scalable service: content-addressed
proof fingerprints (:mod:`repro.engine.fingerprint`), a persistent on-disk
proof cache (:mod:`repro.engine.cache`), and the batch driver API
(:mod:`repro.engine.driver`) that the CLI, the pass manager, and the
benchmarks route through.  The multiprocessing scheduler
(:mod:`repro.engine.scheduler`) runs the fuzz campaign's ``--workers``
batches; verification proves in-process.  The names below are imported on
first use.
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
        payload_to_result,
        resolve_pending,
        result_to_payload,
        store_certificates,
        verify_passes,
    )
    from repro.engine.fingerprint import (
        DEFAULT_SOLVER,
        ENGINE_VERSION,
        data_dependency_digest,
        pass_fingerprint,
        subgoal_fingerprint,
        toolchain_fingerprint,
    )
    from repro.engine.scheduler import WorkerPool, default_jobs

__getattr__ = lazy_exports(__name__, {
    "repro.engine.cache": ("CacheStats", "ProofCache", "default_cache_dir"),
    "repro.engine.driver": (
        "EngineReport",
        "EngineStats",
        "SubgoalAccounting",
        "batch_distinct_configs",
        "default_pass_kwargs",
        "finalize_stats",
        "payload_to_result",
        "resolve_pending",
        "result_to_payload",
        "store_certificates",
        "verify_passes",
    ),
    "repro.engine.fingerprint": (
        "DEFAULT_SOLVER",
        "ENGINE_VERSION",
        "data_dependency_digest",
        "pass_fingerprint",
        "subgoal_fingerprint",
        "toolchain_fingerprint",
    ),
    "repro.engine.scheduler": ("WorkerPool", "default_jobs"),
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
    "pass_fingerprint",
    "payload_to_result",
    "resolve_pending",
    "result_to_payload",
    "subgoal_fingerprint",
    "toolchain_fingerprint",
    "verify_passes",
]

"""Multi-worker distributed verification with subgoal sharding.

The engine (PR 1) scaled verification to one host's cores; the service
tier (PR 2) let every process on a host share one warm proof store; the
incremental layer (PR 3) bounded re-verification by what actually changed.
This package is the fleet step: verification work — whole passes by
default, individual subgoal shards for recorded-slow passes — is leased to
``repro work`` peers (``repro verify --cluster HOSTFILE``), over
token-authenticated TCP or, for peers on the same host, a unix socket.
Every peer shares the coordinator's proof store through a networked
store tier.  Parallelism on one host is the engine's job, not this
package's: ``repro verify --jobs N`` (alias ``--workers N``) runs on
:class:`repro.engine.scheduler.WorkerPool`.

* :mod:`repro.cluster.plan` — decompose pending work into deterministic,
  mergeable units; record per-pass timings that drive subgoal splitting;
* :mod:`repro.cluster.transport` — framed-JSON unix/TCP transports with
  token handshakes and ``cluster.json`` discovery;
* :mod:`repro.cluster.store` — the remote proof-store client (same
  interface as the local backends) and its server-side dispatch;
* :mod:`repro.cluster.worker` — the lease/verify/report loop behind
  ``repro work``, with health gauges piggybacked on every lease;
* :mod:`repro.cluster.status` — the live per-worker run-status board the
  coordinator persists for ``repro top``;
* :mod:`repro.cluster.coordinator` — scheduling (leases, lost-lease
  retries, work stealing), result merging, and
  :func:`verify_passes_distributed`, the cluster twin of
  :func:`repro.engine.verify_passes`.

Verdicts are identical to the single-process engine at any worker count,
and the cluster is a fast path, never a dependency: with no reachable
worker the run completes in-process.
"""

from repro.cluster.coordinator import (
    ClusterCoordinator,
    HostfileConfig,
    UnitScheduler,
    parse_hostfile,
    verify_passes_distributed,
)
from repro.cluster.plan import (
    DEFAULT_SHARD_COUNT,
    DEFAULT_SHARD_THRESHOLD,
    Plan,
    WorkUnit,
    load_timings,
    plan_units,
    record_timings,
)
from repro.cluster.status import (
    RUN_STATUS_SCHEMA_VERSION,
    RunStatusBoard,
    read_run_status,
    run_status_path,
)
from repro.cluster.store import RemoteProofStore, serve_store_op
from repro.cluster.transport import (
    CLUSTER_PROTOCOL_VERSION,
    ClusterEndpoint,
    Connection,
    Listener,
    TransportError,
    connect,
    parse_address,
    read_cluster_state,
    write_cluster_state,
)
from repro.cluster.worker import execute_unit, run_worker

__all__ = [
    "CLUSTER_PROTOCOL_VERSION",
    "ClusterCoordinator",
    "ClusterEndpoint",
    "Connection",
    "DEFAULT_SHARD_COUNT",
    "DEFAULT_SHARD_THRESHOLD",
    "HostfileConfig",
    "Listener",
    "Plan",
    "RUN_STATUS_SCHEMA_VERSION",
    "RemoteProofStore",
    "RunStatusBoard",
    "TransportError",
    "UnitScheduler",
    "WorkUnit",
    "connect",
    "execute_unit",
    "load_timings",
    "parse_address",
    "parse_hostfile",
    "plan_units",
    "read_cluster_state",
    "read_run_status",
    "record_timings",
    "run_status_path",
    "run_worker",
    "serve_store_op",
    "verify_passes_distributed",
    "write_cluster_state",
]

"""The verification service tier: a resident daemon over the proof store.

The engine makes one process fast; this package makes *many* processes
share that speed.  The daemon serves the same JSONL
:class:`~repro.engine.cache.ProofCache` direct runs read and write, so a
direct ``repro verify`` on the daemon's cache directory is warm after a
daemon run (a daemon reads other processes' records when it starts).
Three layers:

* :mod:`repro.service.protocol` — the JSON wire format, pass specs, and the
  ``daemon.json`` discovery file;
* :mod:`repro.service.daemon` — a long-lived localhost server that keeps the
  rule set, the toolchain fingerprint, and the proof store warm across
  requests, dispatching jobs through the engine scheduler;
* :mod:`repro.service.client` — the JSON wire client with request batching,
  timeouts, and graceful fallback to in-process verification.

``repro serve`` / ``repro status`` / ``repro verify --daemon`` are the CLI
entry points; ``PassManager(verify_first=True, verify_daemon=True)`` is the
library one.
"""

from repro.service.client import (
    DaemonClient,
    DaemonUnavailable,
    connect,
    verify_with_fallback,
)
from repro.service.daemon import ProofDaemon, VerificationService, serve
from repro.service.protocol import (
    PROTOCOL_VERSION,
    DaemonEndpoint,
    ProtocolError,
    pass_registry,
    read_state,
    write_state,
)

__all__ = [
    "DaemonClient",
    "DaemonEndpoint",
    "DaemonUnavailable",
    "PROTOCOL_VERSION",
    "ProofDaemon",
    "ProtocolError",
    "VerificationService",
    "connect",
    "pass_registry",
    "read_state",
    "serve",
    "verify_with_fallback",
    "write_state",
]

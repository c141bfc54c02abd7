"""Exception hierarchy shared across the repro packages."""


class ReproError(Exception):
    """Base class for every error raised by this library."""


class CircuitError(ReproError):
    """Raised for malformed circuits or invalid gate applications."""


class QasmError(ReproError):
    """Raised by the OpenQASM 2 lexer/parser/emitter."""


class DAGError(ReproError):
    """Raised by the DAG circuit representation."""


class CouplingError(ReproError):
    """Raised for invalid coupling maps or layouts."""


class TranspilerError(ReproError):
    """Raised by the baseline transpiler and pass manager."""


class SolverError(ReproError):
    """Raised by the mini-SMT solver."""


class SolverUnavailable(RuntimeError):
    """The requested solver backend exists but cannot run in this environment.

    Raised by :func:`repro.prover.backend.resolve_solver` (``--solver z3``
    without ``z3-solver`` installed).  It lives here, not beside the
    registry, so that callers can catch it without importing the prover.
    """


class VerificationError(ReproError):
    """Raised when the verifier cannot process a pass at all.

    A pass that is processed but found incorrect does *not* raise; it
    returns a failed :class:`repro.verify.results.VerificationResult`.
    """


class UnsupportedPassError(VerificationError):
    """Raised when a pass falls outside the supported fragment.

    This mirrors the 12 Qiskit passes the paper cannot verify
    (pulse-level passes, external-solver passes, approximation passes).
    """

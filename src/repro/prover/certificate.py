"""Compact, replayable proof certificates for discharged subgoals.

Every subgoal the verifier discharges now produces a
:class:`ProofCertificate`: which pipeline *method* settled it (syntactic
identity, sequence engine, solver, library lemma, ...), which solver
*backend* ran (when one did), which rewrite rules actually fired, how many
instantiations/rewrite steps it took, and the wall time.  Certificates are
the per-obligation evidence objects the abstract-diagnosis line of work
(Comini & Titolo; Falaschi & Olarte) builds on: small, persisted as their
own tier of the proof store, and
*replayable* — :func:`replay_certificate` re-discharges the subgoal
along the recorded path (same method, same backend, the fired rule subset)
and checks the verdict matches, which is how the test suite audits a warm
store without trusting it.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

#: Bumped when the payload layout changes; loaders ignore unknown versions
#: (a certificate is evidence, never an input to a verdict).
CERTIFICATE_VERSION = 1


class ProofCertificate:
    """The evidence record for one discharged subgoal: immutable, compared
    and hashed by its fields.

    ``method`` is the discharge-pipeline stage: ``identical`` | ``sequence
    engine`` | ``congruence closure`` | ``bounded rewrite`` | ``library
    lemma`` | ``structural`` | ``unknown``.  ``backend`` is the solver
    backend that decided the goal (``builtin``/``bounded``/``z3``), or
    ``None`` for stages that never reach a solver.  ``rules_fired`` names
    the rules whose instantiation contributed to the proof (builtin/bounded
    record the genuine firing set; z3 cannot observe instantiations and
    records the full collected set — an upper bound, which replay
    restriction handles soundly).  ``instantiations`` counts the rule
    instantiations / rewrite steps the solver performed.
    """

    def __init__(self, proved: bool, method: str, backend: Optional[str] = None,
                 rules_fired: Tuple[str, ...] = (), instantiations: int = 0,
                 wall_seconds: float = 0.0, reason: str = "") -> None:
        # ``__setattr__`` refuses every assignment, so fill ``__dict__``.
        vars(self).update(proved=proved, method=method, backend=backend,
                          rules_fired=rules_fired, instantiations=instantiations,
                          wall_seconds=wall_seconds, reason=reason)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __hash__(self) -> int:
        return hash(tuple(vars(self).values()))

    # ------------------------------------------------------------------ #
    def to_payload(self) -> Dict[str, object]:
        """The JSON-shaped wire/store form."""
        return {
            "version": CERTIFICATE_VERSION,
            "proved": self.proved,
            "method": self.method,
            "backend": self.backend,
            "rules_fired": list(self.rules_fired),
            "instantiations": int(self.instantiations),
            "wall_seconds": round(float(self.wall_seconds), 6),
            "reason": self.reason,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> Optional["ProofCertificate"]:
        """Decode a stored payload; ``None`` for foreign versions/shapes."""
        try:
            if int(payload.get("version", -1)) != CERTIFICATE_VERSION:
                return None
            return cls(
                proved=bool(payload["proved"]),
                method=str(payload["method"]),
                backend=payload.get("backend"),
                rules_fired=tuple(payload.get("rules_fired", ())),
                instantiations=int(payload.get("instantiations", 0)),
                wall_seconds=float(payload.get("wall_seconds", 0.0)),
                reason=str(payload.get("reason", "")),
            )
        except (KeyError, TypeError, ValueError):
            return None


class ReplayOutcome:
    """What re-discharging a subgoal along its certificate produced."""

    def __init__(self, ok: bool, reason: str = "", result: object = None) -> None:
        self.ok = ok
        self.reason = reason
        self.result = result  # the fresh DischargeResult, when one was produced


def replay_certificate(subgoal, certificate: ProofCertificate) -> ReplayOutcome:
    """Re-prove ``subgoal`` along ``certificate``'s recorded path.

    For solver-discharged subgoals the replay restricts the rule set to the
    certificate's fired rules (a proof that needed only those must still go
    through with only those — rules that never fired contribute nothing to
    a closure) and runs the recorded backend; for the other stages it
    re-runs the pipeline and checks the stage matches.  A certificate that
    recorded ``proved=False`` replays by confirming the obligation still
    fails under the full rule set.
    """
    from repro.verify.discharge import Discharger

    backend_name = certificate.backend or "builtin"
    try:
        discharger = Discharger(
            solver=backend_name,
            restrict_rules=certificate.rules_fired if certificate.proved else None,
        )
        result = discharger(subgoal)
    except Exception as exc:  # replay must report, not raise
        return ReplayOutcome(False, f"replay crashed: {type(exc).__name__}: {exc}")
    if result.proved != certificate.proved:
        return ReplayOutcome(
            False,
            f"verdict changed on replay: certificate says "
            f"proved={certificate.proved}, replay says {result.proved}",
            result,
        )
    if result.method != certificate.method:
        return ReplayOutcome(
            False,
            f"method changed on replay: certificate says "
            f"{certificate.method!r}, replay used {result.method!r}",
            result,
        )
    return ReplayOutcome(True, "replayed", result)

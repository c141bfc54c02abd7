"""Proof certificates: payload round-trips, cache tiers, suite-wide replay."""

import json
from pathlib import Path

from repro.bench.table2 import pass_kwargs_for
from repro.engine import subgoal_fingerprint, verify_passes
from repro.engine.cache import ProofCache
from repro.passes import ALL_VERIFIED_PASSES, EXTENSION_PASSES
from repro.prover import ProofCertificate, replay_certificate
from repro.verify.discharge import Discharger
from repro.verify.verifier import verify_pass

SUITE = list(ALL_VERIFIED_PASSES) + list(EXTENSION_PASSES)


def _stored_certificates(directory):
    """The certificate tier as written to ``certs.jsonl``, by subgoal key."""
    lines = (Path(directory) / "certs.jsonl").read_text().splitlines()
    return {record["key"]: record["value"] for record in map(json.loads, lines)}


# --------------------------------------------------------------------------- #
# Payload round-trip
# --------------------------------------------------------------------------- #
def test_certificate_payload_round_trips():
    certificate = ProofCertificate(
        proved=True, method="congruence closure", backend="builtin",
        rules_fired=("cancel_h_0",), instantiations=3,
        wall_seconds=0.0125, reason="derived")
    payload = certificate.to_payload()
    assert payload["version"] == 1
    decoded = ProofCertificate.from_payload(payload)
    assert decoded == ProofCertificate(
        proved=True, method="congruence closure", backend="builtin",
        rules_fired=("cancel_h_0",), instantiations=3,
        wall_seconds=0.0125, reason="derived")
    assert ProofCertificate.from_payload({"version": 99}) is None
    assert ProofCertificate.from_payload({}) is None


# --------------------------------------------------------------------------- #
# The certificate tier of the proof store
# --------------------------------------------------------------------------- #
def test_certificate_tier_persists(tmp_path):
    payload = {"version": 1, "proved": True, "method": "identical",
               "backend": None, "rules_fired": [], "instantiations": 0,
               "wall_seconds": 0.0, "reason": ""}
    with ProofCache(tmp_path) as cache:
        cache.put_subgoal("sg-key", {"proved": True, "method": "identical",
                                     "reason": "", "rules_used": []})
        cache.put_certificate("sg-key", payload)
        assert cache.get_certificate("sg-key") == payload
    with ProofCache(tmp_path) as cache:
        assert cache.get_certificate("sg-key") == payload
        assert cache.summary()["cert_entries"] == 1
    assert _stored_certificates(tmp_path) == {"sg-key": payload}


def test_pruned_subgoals_drop_their_certificates(tmp_path):
    payload = {"version": 1, "proved": True, "method": "identical",
               "backend": None, "rules_fired": [], "instantiations": 0,
               "wall_seconds": 0.0, "reason": ""}
    with ProofCache(tmp_path) as cache:
        cache.put_subgoal("sg-key", {"proved": True, "method": "identical",
                                     "reason": "", "rules_used": []})
        cache.put_certificate("sg-key", payload)
        cache.prune(0)
        assert cache.get_certificate("sg-key") is None
    with ProofCache(tmp_path) as cache:
        assert cache.summary()["cert_entries"] == 0


def test_engine_records_certificates(tmp_path):
    subset = SUITE[:6]
    with ProofCache(tmp_path) as cache:
        verify_passes(subset, cache=cache, pass_kwargs_fn=pass_kwargs_for)
        certificates = _stored_certificates(tmp_path)
        assert certificates
        # Every certificate sits next to a live subgoal entry, decodes, and
        # records the backend that proved it.
        for key, payload in certificates.items():
            assert cache.has_subgoal(key)
            decoded = ProofCertificate.from_payload(payload)
            assert decoded is not None
            assert decoded.backend in (None, "builtin")


# --------------------------------------------------------------------------- #
# Replay: the acceptance criterion — every subgoal of the 47-pass suite
# --------------------------------------------------------------------------- #
def test_certificate_replay_reproves_the_whole_suite(tmp_path):
    with ProofCache(tmp_path) as cache:
        verify_passes(SUITE, cache=cache, pass_kwargs_fn=pass_kwargs_for)
    certificates = _stored_certificates(tmp_path)
    assert certificates

    replayed = {"count": 0}

    def replaying_discharge(subgoal):
        key = subgoal_fingerprint(subgoal, solver="builtin")
        payload = certificates.get(key)
        assert payload is not None, f"no certificate for {subgoal.kind} subgoal"
        certificate = ProofCertificate.from_payload(payload)
        outcome = replay_certificate(subgoal, certificate)
        assert outcome.ok, outcome.reason
        replayed["count"] += 1
        return outcome.result

    for pass_class in SUITE:
        result = verify_pass(
            pass_class, pass_kwargs=pass_kwargs_for(pass_class),
            counterexample_search=False, discharge_fn=replaying_discharge)
        assert result.verified or not result.supported
    assert replayed["count"] > 200  # the suite's full obligation count


def test_replay_detects_a_forged_verdict():
    from repro.verify import Subgoal
    from repro.circuit import Gate

    subgoal = Subgoal(kind="equivalence", description="forged",
                      lhs=(Gate("h", (0,)),), rhs=(Gate("x", (0,)),))
    honest = Discharger("builtin")(subgoal)
    assert not honest.proved
    forged = ProofCertificate(
        proved=True, method=honest.method, backend="builtin",
        rules_fired=(), instantiations=0, wall_seconds=0.0)
    outcome = replay_certificate(subgoal, forged)
    assert not outcome.ok
    assert "verdict changed" in outcome.reason

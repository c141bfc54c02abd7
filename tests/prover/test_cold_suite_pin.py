"""A cold ``verify --all`` proves exactly what it proved before.

The prover skips rule instances it already asserted in a check and
deduplicates rules on their hash-consed sides; both must leave every count
a certificate records as it was.  The values below, and the per-subgoal
``rules_used`` in ``cold_suite_rules_used.json``, are what the engine wrote
before either change.
"""

import json
from collections import Counter
from pathlib import Path

import repro.prover.methods.congruence as congruence
from repro.cli import _known_passes, pass_kwargs_for
from repro.engine import verify_passes

PINNED_RULES_USED = Path(__file__).with_name("cold_suite_rules_used.json")


def test_a_cold_suite_run_writes_the_pinned_certificate_tier(tmp_path, monkeypatch):
    collected = []
    original = congruence.collect_rules

    def recording(encoder, facts, elements):
        rules = original(encoder, facts, elements)
        collected.append(rules)
        return rules

    monkeypatch.setattr(congruence, "collect_rules", recording)
    report = verify_passes(list(_known_passes().values()), cache_dir=tmp_path,
                           pass_kwargs_fn=pass_kwargs_for)

    certificates = [json.loads(line)["value"] for line in
                    (tmp_path / "certs.jsonl").read_text().splitlines()]
    assert Counter(c["method"] for c in certificates) == {
        "congruence closure": 88, "structural": 37, "identical": 29,
        "library lemma": 6}
    assert sum(c["instantiations"] for c in certificates) == 130
    assert sum(len(c["rules_fired"]) for c in certificates) == 115
    rules_used = {result.pass_name: [list(outcome.result.rules_used)
                                     for outcome in result.subgoals]
                  for result in report.results}
    assert rules_used == json.loads(PINNED_RULES_USED.read_text())

    # ``collect_rules`` keys its dedupe on the sides' identity.  Identity
    # implies equal reprs, so a ``repr``-keyed dedupe of the same candidates
    # returns the same list exactly when no two kept rules share reprs.
    assert len(collected) == 88
    for rules in collected:
        by_repr, seen = [], set()
        for rule in rules:
            key = (repr(rule.lhs), repr(rule.rhs))
            if key not in seen:
                seen.add(key)
                by_repr.append(rule)
        assert by_repr == rules

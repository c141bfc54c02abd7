"""Differential fuzzing with delta-debugging minimisation (``repro fuzz``).

The paper's headline result is catching real transpiler bugs push-button;
this package is the bug-*hunting* surface over the same ingredients.  A
campaign generates seeded random circuit+device configurations
(:mod:`repro.fuzz.generate`), runs every targeted pass differentially
against the concrete dense-matrix oracle (:mod:`repro.fuzz.oracle`),
shrinks each failure delta-debugging-style to a locally minimal
reproducer (:mod:`repro.fuzz.shrink`), and persists the minimised,
certificate-carrying witnesses in a schema-versioned JSONL corpus
(:mod:`repro.fuzz.corpus`) that replays as deterministic regression
units.  Campaigns decompose into independent seed-range batches, so
``repro fuzz --workers N`` runs them on the engine's process pool
(:mod:`repro.fuzz.campaign`).
"""

from repro.fuzz.campaign import (
    CampaignResult,
    execute_fuzz_unit,
    fuzz_registry,
    replay_corpus,
    run_campaign,
)
from repro.fuzz.corpus import (
    CORPUS_SCHEMA_VERSION,
    corpus_path,
    entry_to_line,
    load_corpus,
    write_corpus,
)
from repro.fuzz.generate import DEFAULT_FUZZ_CONFIG, FuzzCase, generate_case, normalize_config
from repro.fuzz.oracle import differential_check
from repro.fuzz.shrink import ShrinkResult, is_one_minimal, shrink_failure

__all__ = [
    "CORPUS_SCHEMA_VERSION",
    "CampaignResult",
    "DEFAULT_FUZZ_CONFIG",
    "FuzzCase",
    "ShrinkResult",
    "corpus_path",
    "differential_check",
    "entry_to_line",
    "execute_fuzz_unit",
    "fuzz_registry",
    "generate_case",
    "is_one_minimal",
    "load_corpus",
    "normalize_config",
    "replay_corpus",
    "run_campaign",
    "shrink_failure",
    "write_corpus",
]

"""End-to-end campaigns: buggy passes are caught, corpora are
byte-deterministic across worker counts, and replay is a regression gate."""

import json

import pytest

from repro.fuzz.campaign import (
    execute_fuzz_unit,
    fuzz_registry,
    replay_corpus,
    resolve_targets,
    run_campaign,
)
from repro.fuzz.corpus import (
    circuit_from_record,
    corpus_path,
    coupling_from_record,
    entry_to_line,
    load_corpus,
    load_meta,
)
from repro.fuzz.shrink import is_one_minimal
from repro.passes.buggy import BUGGY_PASSES

BUGGY_NAMES = sorted(cls.__name__ for cls in BUGGY_PASSES)

#: Bounded budget the buggy-catch satellite runs under: the hints plus a
#: handful of random cases must be enough for every known-buggy pass.
CATCH_SEED = 3
CATCH_CASES = 4


@pytest.fixture(scope="module")
def buggy_campaign(tmp_path_factory):
    # Module scope outruns the function-scoped autouse cache isolation, so
    # pin the proof cache away from $HOME here too.
    import os

    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("proof-cache"))
    try:
        corpus_dir = str(tmp_path_factory.mktemp("fuzz-corpus"))
        result = run_campaign(CATCH_SEED, CATCH_CASES, corpus_dir=corpus_dir,
                              passes=BUGGY_NAMES)
        yield result, corpus_dir
    finally:
        if previous is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = previous


# --------------------------------------------------------------------------- #
# Satellite: every known-buggy pass is caught, minimally
# --------------------------------------------------------------------------- #
def test_every_buggy_pass_is_caught_within_budget(buggy_campaign):
    result, _ = buggy_campaign
    assert sorted({entry["pass"] for entry in result.entries}) == BUGGY_NAMES
    assert not result.ok
    assert result.unit_failures == []


def test_every_reproducer_is_locally_one_minimal(buggy_campaign):
    result, _ = buggy_campaign
    registry = fuzz_registry(include_buggy=True)
    for entry in result.entries:
        assert entry["shrink"]["minimal"], entry["case_id"]
        circuit = circuit_from_record(entry["circuit"])
        coupling = coupling_from_record(entry["device"])
        assert is_one_minimal(registry[entry["pass"]], circuit, coupling,
                              kind=entry["kind"]), entry["case_id"]
        assert len(circuit.gates) <= entry["original_gates"]


def test_failing_entries_carry_their_symbolic_diagnosis(buggy_campaign):
    result, _ = buggy_campaign
    for entry in result.entries:
        block = entry["verifier"]
        # The verifier rejects every known-buggy pass, so the fuzz hit and
        # the symbolic verdict agree — and the partial derivation travels.
        assert block["verified"] is False
        assert block["failing_subgoals"]
        for subgoal in block["failing_subgoals"]:
            assert subgoal["description"]
            certificate = subgoal["certificate"]
            if certificate is not None:
                assert "wall_seconds" not in certificate


def test_campaign_counters_are_recorded(buggy_campaign):
    result, _ = buggy_campaign
    counters = result.counters
    assert counters["repro_fuzz_cases_total"] >= CATCH_CASES
    assert counters["repro_fuzz_checks_total"] >= CATCH_CASES * len(BUGGY_NAMES)
    assert counters["repro_fuzz_failures_total"] == len(result.entries)
    assert counters["repro_fuzz_shrink_checks_total"] > 0


# --------------------------------------------------------------------------- #
# Replay as a regression unit
# --------------------------------------------------------------------------- #
def test_replay_reproduces_every_entry(buggy_campaign):
    _, corpus_dir = buggy_campaign
    report = replay_corpus(corpus_dir)
    assert report.ok
    assert report.total == report.reproduced > 0
    assert report.corrupt_lines == 0
    assert report.counters()["repro_fuzz_replays_total"] == report.total


def test_replay_flags_tampered_entries(buggy_campaign, tmp_path):
    _, corpus_dir = buggy_campaign
    entries, _ = load_corpus(corpus_dir)
    tampered_dir = str(tmp_path / "tampered")
    tampered = [dict(entries[0], kind="crash"
                     if entries[0]["kind"] != "crash" else "semantics"),
                dict(entries[1], **{"pass": "NoSuchPass"})]
    import os

    os.makedirs(tampered_dir)
    with open(corpus_path(tampered_dir), "w", encoding="utf-8") as handle:
        for entry in tampered:
            handle.write(entry_to_line(entry) + "\n")
    report = replay_corpus(tampered_dir)
    assert not report.ok
    assert len(report.mismatches) == 2
    assert {m["actual"] for m in report.mismatches} & {"unknown-pass"}


# --------------------------------------------------------------------------- #
# Determinism: runs, processes, and worker counts all agree on the bytes
# --------------------------------------------------------------------------- #
def _corpus_bytes(corpus_dir):
    with open(corpus_path(corpus_dir), "rb") as handle:
        return handle.read()


def test_corpus_bytes_identical_across_runs(buggy_campaign, tmp_path):
    _, corpus_dir = buggy_campaign
    rerun_dir = str(tmp_path / "rerun")
    run_campaign(CATCH_SEED, CATCH_CASES, corpus_dir=rerun_dir,
                 passes=BUGGY_NAMES)
    assert _corpus_bytes(rerun_dir) == _corpus_bytes(corpus_dir)


def test_corpus_bytes_identical_across_worker_counts(buggy_campaign, tmp_path):
    _, corpus_dir = buggy_campaign
    for workers in (0, 1, 2, 3):   # 0 means one per CPU, as --jobs 0 does
        workers_dir = str(tmp_path / f"workers{workers}")
        result = run_campaign(CATCH_SEED, CATCH_CASES, corpus_dir=workers_dir,
                              passes=BUGGY_NAMES, workers=workers)
        assert result.unit_failures == []
        assert _corpus_bytes(workers_dir) == _corpus_bytes(corpus_dir), workers


def test_worker_campaign_runs_without_the_cluster_package(tmp_path):
    """--workers maps its batches over the engine's WorkerPool, so a
    campaign run from a fresh interpreter loads no cluster package."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    script = (
        "import sys\n"
        "from repro.fuzz.campaign import run_campaign\n"
        "run_campaign(3, 4, passes=['BuggyOptimize1qGates'], workers=2,\n"
        "             use_hints=False)\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.cluster')))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(repro.__file__).resolve().parents[1]),
        env.get("PYTHONPATH")]))
    completed = subprocess.run([sys.executable, "-c", script], env=env,
                               capture_output=True, text=True, timeout=300)
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "[]"


def test_meta_records_the_campaign_configuration(buggy_campaign):
    result, corpus_dir = buggy_campaign
    meta = load_meta(corpus_dir)
    assert meta["seed"] == CATCH_SEED
    assert meta["cases"] == CATCH_CASES
    assert meta["passes"] == BUGGY_NAMES
    assert meta["failures"] == len(result.entries)
    assert meta["counters"] == result.counters


def test_metrics_prom_sidecar_is_written(buggy_campaign):
    import os

    _, corpus_dir = buggy_campaign
    path = os.path.join(corpus_dir, "metrics.prom")
    with open(path, "r", encoding="utf-8") as handle:
        body = handle.read()
    assert "repro_fuzz_cases_total" in body


# --------------------------------------------------------------------------- #
# Work units
# --------------------------------------------------------------------------- #
def test_execute_fuzz_unit_is_pure():
    spec = {"name": "fuzz[0:3]", "seed": CATCH_SEED, "indices": [0, 1, 2],
            "passes": ["BuggyOptimize1qGates"], "config": {}}
    first = execute_fuzz_unit(spec)
    second = execute_fuzz_unit(spec)
    assert first == second
    assert first["cases"] == 3


def test_unit_chunking_never_changes_the_entry_set():
    passes = ["BuggyOptimize1qGates"]
    whole = execute_fuzz_unit({"name": "w", "seed": 5, "indices": list(range(6)),
                               "passes": passes, "config": {}})
    halves = [execute_fuzz_unit({"name": "h", "seed": 5, "indices": chunk,
                                 "passes": passes, "config": {}})
              for chunk in ([0, 1, 2], [3, 4, 5])]
    merged = sorted((e["case_id"] for p in halves for e in p["entries"]))
    assert merged == sorted(e["case_id"] for e in whole["entries"])


def test_execute_fuzz_unit_rejects_unknown_passes():
    with pytest.raises(ValueError, match="unknown fuzz target"):
        execute_fuzz_unit({"name": "x", "seed": 0, "indices": [0],
                           "passes": ["NoSuchPass"], "config": {}})


def test_resolve_targets_validates_names():
    with pytest.raises(ValueError, match="NoSuchPass"):
        resolve_targets(["NoSuchPass"], include_buggy=True)
    names = [name for name, _ in resolve_targets(None, include_buggy=True)]
    assert set(BUGGY_NAMES) <= set(names)
    honest = [name for name, _ in resolve_targets(None, include_buggy=False)]
    assert not set(BUGGY_NAMES) & set(honest)


def test_run_campaign_unknown_pass_raises():
    with pytest.raises(ValueError, match="unknown fuzz target"):
        run_campaign(0, 1, passes=["NoSuchPass"])


def test_entries_are_json_serialisable(buggy_campaign):
    result, _ = buggy_campaign
    json.dumps(result.entries)

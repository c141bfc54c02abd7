"""The ``python -m repro`` command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.qasm import parse_qasm


BELL_QASM = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[4];
h q[0];
cx q[0],q[3];
cx q[1],q[2];
"""


@pytest.fixture
def bell_file(tmp_path):
    path = tmp_path / "bell.qasm"
    path.write_text(BELL_QASM)
    return str(path)


# --------------------------------------------------------------------------- #
# verify
# --------------------------------------------------------------------------- #
def test_verify_single_pass_text(capsys):
    assert main(["verify", "CXCancellation"]) == 0
    out = capsys.readouterr().out
    assert "CXCancellation" in out
    assert "verified" in out


def test_verify_json_output(capsys):
    assert main(["verify", "CXCancellation", "Width", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["total"] == 2
    assert payload["summary"]["all_verified"] is True


def test_verify_markdown_output(capsys):
    assert main(["verify", "RemoveBarriers", "--format", "markdown"]) == 0
    assert "| `RemoveBarriers` | verified" in capsys.readouterr().out


def test_verify_with_jobs_and_cache(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    assert main(["verify", "CXCancellation", "Width", "--jobs", "2",
                 "--cache-dir", cache_dir, "--format", "json"]) == 0
    cold = json.loads(capsys.readouterr().out)
    assert cold["engine"]["jobs"] == 1          # every run proves in-process
    assert cold["engine"]["cache_misses"] == 2
    assert cold["engine"]["cache_hits"] == 0
    # Second run: everything served from the proof cache.
    assert main(["verify", "CXCancellation", "Width", "--jobs", "2",
                 "--cache-dir", cache_dir, "--format", "json"]) == 0
    warm = json.loads(capsys.readouterr().out)
    assert warm["engine"]["cache_hits"] == 2
    assert warm["engine"]["cache_misses"] == 0
    # Same verdicts; only the timing differs (cached results are ~free).
    drop_time = lambda s: {k: v for k, v in s.items() if k != "total_seconds"}  # noqa: E731
    assert drop_time(warm["summary"]) == drop_time(cold["summary"])
    assert warm["summary"]["total_seconds"] <= cold["summary"]["total_seconds"]
    assert list(warm["engine"])[:4] == ["cache_hits", "cache_misses", "jobs", "wall_seconds"]


def test_verify_no_cache_reports_stats_without_cache_dir(capsys):
    assert main(["verify", "Width", "--no-cache", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["engine"]["cache_dir"] is None
    assert payload["engine"]["cache_misses"] == 1


def test_verify_text_output_shows_engine_line(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    assert main(["verify", "RemoveBarriers", "--cache-dir", cache_dir]) == 0
    assert "engine:" in capsys.readouterr().out
    assert main(["verify", "RemoveBarriers", "--cache-dir", cache_dir]) == 0
    out = capsys.readouterr().out
    assert "cache 1 hit" in out
    assert "(cached)" in out


def test_verify_unknown_pass_is_an_error(capsys):
    assert main(["verify", "NotARealPass"]) == 2
    assert "unknown pass" in capsys.readouterr().err


def test_verify_requires_a_selection(capsys):
    assert main(["verify"]) == 2
    assert "nothing to verify" in capsys.readouterr().err


def test_verify_jobs_zero_auto_detects(capsys):
    """--jobs 0 (once "auto") still parses, never an error; the run proves
    in-process like any other."""
    assert main(["verify", "Width", "--jobs", "0", "--no-cache",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["engine"]["jobs"] == 1


def test_verify_jobs_help_documents_auto():
    """Both --jobs options still parse, for older scripts; their help says
    they have no effect."""
    for command in ("verify", "watch"):
        parser = build_parser()._subparsers._group_actions[0].choices[command]
        jobs_actions = [action for action in parser._actions
                        if "--jobs" in action.option_strings]
        assert jobs_actions[0].help.startswith("no effect"), command


def test_verify_workers_is_an_alias_of_jobs(tmp_path, capsys):
    """--workers N and --jobs N both still parse: the same JSON report
    apart from wall times, with jobs == 1 and no cluster block."""
    import shutil

    cache_dir = tmp_path / "cache"
    reports = []
    for flag in ("--jobs", "--workers"):
        shutil.rmtree(cache_dir, ignore_errors=True)  # both runs cold
        assert main(["verify", "CXCancellation", "Width", "Depth", flag, "2",
                     "--cache-dir", str(cache_dir), "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        del report["summary"]["total_seconds"], report["engine"]["wall_seconds"]
        for result in report["results"]:
            del result["time_seconds"]
        reports.append(report)
    assert reports[0] == reports[1]
    assert reports[1]["engine"]["jobs"] == 1
    assert reports[1]["engine"]["cluster"] is None


def test_no_subcommand_takes_a_backend_option(capsys):
    """One proof store: no subcommand selects a cache tier."""
    for argv in (["verify", "--all"], ["watch"], ["status"],
                 ["cache", "prune", "--max-entries", "1"], ["cache", "gc"]):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv + ["--backend", "jsonl"])
        assert "unrecognized arguments: --backend" in capsys.readouterr().err


#: Subcommands and options of the retired resident daemon and worker
#: cluster: each must be a usage error now, not a silent no-op.
RETIRED_ARGV = [
    ["serve"],
    ["work"],
    ["top"],
    ["verify", "--all", "--daemon"],
    ["verify", "--all", "--cluster", "hostfile"],
    ["verify", "--all", "--shard-threshold", "1"],
    ["verify", "--all", "--shard-count", "2"],
    ["watch", "--daemon"],
    ["trace", "summary", "trace-dir", "--check-coverage"],
]


def test_retired_daemon_and_cluster_surface_is_gone(capsys):
    commands = build_parser()._subparsers._group_actions[0].choices
    assert {"serve", "work", "top"}.isdisjoint(commands)
    for argv in RETIRED_ARGV:
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2, argv
        err = capsys.readouterr().err
        assert "invalid choice" in err or "unrecognized arguments" in err, argv


# --------------------------------------------------------------------------- #
# cache maintenance / status
# --------------------------------------------------------------------------- #
def test_cache_prune_jsonl(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    assert main(["verify", "CXCancellation", "Width", "--cache-dir", cache_dir,
                 "--format", "json"]) == 0
    capsys.readouterr()
    assert main(["cache", "prune", "--max-entries", "1",
                 "--cache-dir", cache_dir]) == 0
    out = capsys.readouterr().out
    assert "evicted" in out
    assert "-> 1 entries" in out


def test_cache_prune_rejects_negative(tmp_path, capsys):
    assert main(["cache", "prune", "--max-entries", "-1",
                 "--cache-dir", str(tmp_path)]) == 2
    assert "must be >= 0" in capsys.readouterr().err


def test_cache_migrate_from_sqlite_then_warm(tmp_path, capsys,
                                             write_legacy_sqlite):
    """A store the retired sqlite tier held serves the next run warm, with
    its LRU order and hit totals carried over."""
    from repro.engine import ProofCache

    cache_dir = tmp_path / "cache"
    assert main(["verify", "--all", "--cache-dir", str(cache_dir),
                 "--format", "json"]) == 0
    capsys.readouterr()
    # Rebuild the cold run's store as a schema-v3 proofs.sqlite, in an
    # order and with hit totals of its own, then drop the JSONL files.
    with ProofCache(cache_dir) as cache:
        order = sorted(cache.entries(), key=lambda entry: entry[1])
        proofs = [(kind, key, cache.active_fingerprint, value, index % 3)
                  for index, (kind, key, value) in enumerate(order)]
    certs = [(record["key"], record["fp"], record["value"], 1)
             for record in map(json.loads,
                               (cache_dir / "certs.jsonl").read_text().splitlines())]
    deps = [(record["key"], record["value"]["schema"], record["value"])
            for record in map(json.loads,
                              (cache_dir / "deps.jsonl").read_text().splitlines())]
    write_legacy_sqlite(cache_dir, proofs, certs, deps)
    for name in ("proofs.jsonl", "certs.jsonl", "deps.jsonl"):
        (cache_dir / name).unlink()

    assert main(["cache", "migrate", "--cache-dir", str(cache_dir)]) == 0
    assert capsys.readouterr().out.strip() == (
        f"migrated {len(proofs)} entries from {cache_dir}/proofs.sqlite "
        f"to {cache_dir}/proofs.jsonl")
    # The migrated file lists its entries least recently used first.
    records = [json.loads(line) for line in
               (cache_dir / "proofs.jsonl").read_text().splitlines()]
    assert [(r["kind"], r["key"], r.get("hits", 0)) for r in records] == [
        (kind, key, hits) for kind, key, _, _, hits in proofs]
    assert main(["verify", "--all", "--cache-dir", str(cache_dir),
                 "--format", "json"]) == 0
    warm = json.loads(capsys.readouterr().out)
    assert warm["summary"]["verified"] == warm["summary"]["total"] == 47
    assert (warm["engine"]["cache_hits"], warm["engine"]["cache_misses"]) == (47, 0)


def test_cache_migrate_without_sqlite_store(tmp_path, capsys):
    assert main(["cache", "migrate", "--cache-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out.startswith("migrated 0 entries from ")


def test_cache_migrate_unopenable_store_is_a_clean_error(tmp_path, capsys):
    (tmp_path / "proofs.jsonl").write_text("")
    (tmp_path / "proofs.sqlite").mkdir()       # unopenable: it is a directory
    assert main(["cache", "migrate", "--cache-dir", str(tmp_path)]) == 2
    assert "cannot open proof cache" in capsys.readouterr().err


def test_status_without_daemon_or_store(tmp_path, capsys):
    assert main(["status", "--cache-dir", str(tmp_path)]) == 1
    assert f"no proof store in {tmp_path} yet" in capsys.readouterr().err


def test_status_reports_offline_store(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    assert main(["verify", "Width", "--cache-dir", cache_dir,
                 "--format", "json"]) == 0
    capsys.readouterr()
    assert main(["status", "--cache-dir", cache_dir]) == 0
    out = capsys.readouterr().out
    assert "daemon" not in out
    assert "live entries" in out
    assert "damaged" not in out and "migrate" not in out


def test_status_reports_store_damage_once(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    assert main(["verify", "Width", "--cache-dir", str(cache_dir),
                 "--format", "json"]) == 0
    capsys.readouterr()
    with open(cache_dir / "proofs.jsonl", "a", encoding="utf-8") as handle:
        handle.write('{"kind": "pass", "key": "torn\n')
    assert main(["status", "--cache-dir", str(cache_dir)]) == 0
    damaged = [line for line in capsys.readouterr().out.splitlines()
               if line.startswith("damaged")]
    assert damaged == ["damaged     : 1 unreadable lines dropped on load"]
    # Opening the store healed it.
    assert main(["status", "--cache-dir", str(cache_dir)]) == 0
    assert "damaged" not in capsys.readouterr().out


def test_status_names_cache_migrate_beside_a_sqlite_store(tmp_path, capsys):
    (tmp_path / "proofs.sqlite").write_bytes(b"")
    assert main(["status", "--cache-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert f"repro cache migrate --cache-dir {tmp_path}" in err
    assert main(["verify", "Width", "--cache-dir", str(tmp_path),
                 "--format", "json"]) == 0
    capsys.readouterr()
    assert main(["status", "--cache-dir", str(tmp_path)]) == 0
    migrate = [line for line in capsys.readouterr().out.splitlines()
               if "repro cache migrate" in line]
    assert len(migrate) == 1


# --------------------------------------------------------------------------- #
# transpile
# --------------------------------------------------------------------------- #
def test_transpile_to_stdout(bell_file, capsys):
    assert main(["transpile", bell_file, "--device", "ibm_5q_tenerife"]) == 0
    out = capsys.readouterr().out
    compiled = parse_qasm(out)
    assert compiled.num_qubits == 5
    assert compiled.size() >= 3


def test_transpile_baseline_pipeline(bell_file, capsys):
    assert main(["transpile", bell_file, "--device", "ibm_5q_tenerife",
                 "--pipeline", "baseline"]) == 0
    compiled = parse_qasm(capsys.readouterr().out)
    assert compiled.size() >= 3


def test_transpile_to_file(bell_file, tmp_path, capsys):
    output = tmp_path / "out.qasm"
    assert main(["transpile", bell_file, "--device", "ibm_16q",
                 "--output", str(output), "--stats"]) == 0
    err = capsys.readouterr().err
    assert "pipeline: verified" in err
    compiled = parse_qasm(output.read_text())
    assert compiled.num_qubits == 16


def test_transpile_unknown_device(bell_file, capsys):
    assert main(["transpile", bell_file, "--device", "nonexistent"]) == 2
    assert "unknown device" in capsys.readouterr().err


def test_transpile_device_too_small(tmp_path, capsys):
    wide = tmp_path / "wide.qasm"
    wide.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[30];\nh q[29];\n')
    assert main(["transpile", str(wide), "--device", "ibm_16q"]) == 2
    assert "needs 30" in capsys.readouterr().err


def test_transpile_missing_file(capsys):
    assert main(["transpile", "/nonexistent/file.qasm"]) == 2
    assert "cannot read input" in capsys.readouterr().err


# --------------------------------------------------------------------------- #
# list / soundness / parser
# --------------------------------------------------------------------------- #
def test_list_passes(capsys):
    assert main(["list", "passes"]) == 0
    out = capsys.readouterr().out
    assert "CXCancellation" in out
    assert "StochasticSwap" in out and "unsupported" in out
    assert "InverseCancellation" in out and "extension" in out


def test_list_devices(capsys):
    assert main(["list", "devices"]) == 0
    out = capsys.readouterr().out
    assert "ibm_16q" in out
    assert "ibm_20q_tokyo" in out


def test_list_circuits(capsys):
    assert main(["list", "circuits"]) == 0
    out = capsys.readouterr().out
    assert "qft" in out
    assert len(out.strip().splitlines()) == 48


def test_soundness_command(capsys):
    assert main(["soundness"]) == 0
    out = capsys.readouterr().out
    assert "unsound rules            : 0" in out


def test_parser_rejects_missing_command():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([])


# --------------------------------------------------------------------------- #
# fuzz
# --------------------------------------------------------------------------- #
def test_fuzz_campaign_catches_buggy_pass_and_replays(tmp_path, capsys):
    corpus = str(tmp_path / "corpus")
    code = main(["fuzz", "--seed", "3", "--cases", "2",
                 "--passes", "BuggyOptimize1qGates", "--corpus", corpus])
    out = capsys.readouterr().out
    assert code == 1  # failures found -> non-zero, the CI smoke contract
    assert "BuggyOptimize1qGates" in out
    assert "minimal" in out
    assert "corpus" in out

    assert main(["fuzz", "replay", "--corpus", corpus]) == 0
    replay_out = capsys.readouterr().out
    assert "reproduced" in replay_out
    assert "MISMATCH" not in replay_out


def test_fuzz_clean_campaign_exits_zero(tmp_path, capsys):
    corpus = str(tmp_path / "corpus")
    code = main(["fuzz", "--seed", "1", "--cases", "2",
                 "--passes", "CXCancellation", "Width", "--corpus", corpus])
    assert code == 0
    assert "failures       : 0" in capsys.readouterr().out


def test_fuzz_json_format(tmp_path, capsys):
    corpus = str(tmp_path / "corpus")
    code = main(["fuzz", "--seed", "3", "--cases", "1",
                 "--passes", "BuggyOptimize1qGates", "--corpus", corpus,
                 "--format", "json"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["failures"] >= 1
    assert payload["entries"][0]["pass"] == "BuggyOptimize1qGates"
    assert payload["unit_failures"] == []
    assert payload["counters"]["repro_fuzz_failures_total"] == payload["failures"]


def test_fuzz_unknown_pass_is_a_usage_error(tmp_path, capsys):
    code = main(["fuzz", "--passes", "NoSuchPass",
                 "--corpus", str(tmp_path / "corpus")])
    assert code == 2
    assert "unknown fuzz target" in capsys.readouterr().err


def test_fuzz_replay_of_empty_corpus_is_clean(tmp_path, capsys):
    assert main(["fuzz", "replay", "--corpus", str(tmp_path / "nothing")]) == 0
    assert "corpus entries : 0" in capsys.readouterr().out

"""Concurrent access to one proof store directory.

Two shapes of concurrency, both from genuinely separate processes:

* raw store clients appending to one directory (every entry survives,
  nothing corrupts);
* two full ``repro verify`` CLI clients sharing one store (both complete
  with correct verdicts, and a third client is then fully warm).

Hit totals are absolute and the last writer wins, so concurrent readers'
counts are not summed; that costs accounting, never a verdict.
"""

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

from repro.engine.cache import ProofCache

FP = "a" * 64
REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


def _writer(directory, worker_id, entries, reads):
    cache = ProofCache(directory, active_fingerprint=FP)
    try:
        for index in range(entries):
            cache.put_pass(f"w{worker_id}-p{index}", {"worker": worker_id, "index": index})
        cache.put_pass("shared", {"worker": worker_id})
        for _ in range(reads):
            assert cache.get_pass("shared") is not None
    finally:
        cache.close()


def test_many_processes_share_one_store(tmp_path):
    workers, entries, reads = 4, 25, 10
    processes = [
        multiprocessing.Process(target=_writer, args=(tmp_path, worker_id, entries, reads))
        for worker_id in range(workers)
    ]
    for process in processes:
        process.start()
    for process in processes:
        process.join(timeout=60)
        assert process.exitcode == 0
    with ProofCache(tmp_path, active_fingerprint=FP) as cache:
        # Every private entry survived, plus the contended shared key.
        assert len(cache) == workers * entries + 1
        assert cache.stats.corrupt_lines == 0
        for worker_id in range(workers):
            for index in range(entries):
                assert cache.get_pass(f"w{worker_id}-p{index}") == {
                    "worker": worker_id, "index": index,
                }
        assert cache.get_pass("shared")["worker"] in range(workers)


def _run_verify(cache_dir, extra=()):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "verify",
         "CXCancellation", "Width", "RemoveBarriers", "CommutationAnalysis",
         "--cache-dir", str(cache_dir), "--format", "json", *extra],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )


def test_two_concurrent_cli_clients_share_one_store(tmp_path):
    """Concurrent verifiers, one store, correct verdicts."""
    first = _run_verify(tmp_path)
    second = _run_verify(tmp_path)
    outputs = []
    for process in (first, second):
        stdout, stderr = process.communicate(timeout=180)
        assert process.returncode == 0, stderr.decode()
        outputs.append(json.loads(stdout.decode()))
    for payload in outputs:
        assert payload["summary"]["total"] == 4
        assert payload["summary"]["all_verified"] is True
        assert payload["engine"]["backend"] == "jsonl"
    # Whatever the interleaving, the union of work covers the suite and a
    # third client is then served entirely warm.
    third = _run_verify(tmp_path)
    stdout, _ = third.communicate(timeout=180)
    warm = json.loads(stdout.decode())
    assert warm["summary"]["all_verified"] is True
    assert warm["engine"]["cache_hits"] == 4
    assert warm["engine"]["cache_misses"] == 0

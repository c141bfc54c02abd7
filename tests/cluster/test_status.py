"""The run-status board: worker heartbeats folded into ``run-status.json``."""

import json

from repro.cluster import verify_passes_distributed
from repro.cluster.status import (
    RUN_STATUS_SCHEMA_VERSION,
    RunStatusBoard,
    read_run_status,
    run_status_path,
)
from repro.passes import ALL_VERIFIED_PASSES

SUBSET = list(ALL_VERIFIED_PASSES)[:6]


# --------------------------------------------------------------------- #
# Board mechanics
# --------------------------------------------------------------------- #

def test_board_writes_on_init_and_reads_back(tmp_path):
    RunStatusBoard(tmp_path, 12, node="vm-7")
    status = read_run_status(tmp_path)
    assert status["schema"] == RUN_STATUS_SCHEMA_VERSION
    assert status["units_total"] == 12
    assert status["node"] == "vm-7"
    assert status["done"] is False
    assert status["workers"] == {}


def test_heartbeat_folds_gauges_into_the_worker_row(tmp_path):
    board = RunStatusBoard(tmp_path, 5)
    board.heartbeat("worker-1-peer", {"inflight": "unit-02", "units_done": 1,
                                      "prove_seconds": 0.25,
                                      "rss_bytes": 1048576})
    row = board.snapshot()["workers"]["worker-1-peer"]
    assert row["inflight"] == "unit-02"
    assert row["units_done"] == 1
    assert row["prove_seconds"] == 0.25
    assert row["rss_bytes"] == 1048576
    assert row["last_seen"] > 0

    # A later heartbeat with nothing inflight clears the marker.
    board.heartbeat("worker-1-peer", {"inflight": None, "units_done": 2})
    row = board.snapshot()["workers"]["worker-1-peer"]
    assert row["inflight"] is None and row["units_done"] == 2


def test_heartbeat_tolerates_garbage_payloads(tmp_path):
    board = RunStatusBoard(tmp_path, 5)
    board.heartbeat("w", None)                      # protocol-v1 worker
    board.heartbeat("w", {"units_done": "not-a-number", "rss_bytes": []})
    row = board.snapshot()["workers"]["w"]
    assert row["units_done"] == 0 and row["rss_bytes"] is None


def test_note_result_accumulates_and_clears_inflight(tmp_path):
    board = RunStatusBoard(tmp_path, 5)
    board.heartbeat("w", {"inflight": "unit-01"})
    board.note_result("w", prove_seconds=0.1, transport_seconds=0.02)
    board.note_result("w", prove_seconds=0.2, transport_seconds=0.03)
    row = board.snapshot()["workers"]["w"]
    assert row["units_done"] == 2
    assert row["prove_seconds"] == 0.3
    assert row["transport_seconds"] == 0.05
    assert row["inflight"] is None


def test_finish_forces_the_final_write_and_leaves_the_file(tmp_path):
    board = RunStatusBoard(tmp_path, 2)
    # Throttled: updates inside WRITE_INTERVAL stay in memory...
    board.set_progress(units_done=2)
    assert read_run_status(tmp_path)["units_done"] == 0
    # ...until finish(), which always writes and marks the board done.
    board.finish()
    status = read_run_status(tmp_path)
    assert status["done"] is True
    assert status["units_done"] == 2
    assert run_status_path(tmp_path).exists()


def test_in_memory_board_never_touches_disk(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    board = RunStatusBoard(None, 3)
    board.heartbeat("w", {"units_done": 1})
    board.finish()
    assert board.snapshot()["workers"]["w"]["units_done"] == 1
    assert not list(tmp_path.iterdir())


def test_read_rejects_other_schemas_and_garbage(tmp_path):
    assert read_run_status(tmp_path) is None  # no file
    path = run_status_path(tmp_path)
    path.write_text("not json")
    assert read_run_status(tmp_path) is None
    path.write_text(json.dumps({"schema": RUN_STATUS_SCHEMA_VERSION + 1}))
    assert read_run_status(tmp_path) is None


def test_board_file_is_private(tmp_path):
    RunStatusBoard(tmp_path, 1)
    assert (run_status_path(tmp_path).stat().st_mode & 0o777) == 0o600


# --------------------------------------------------------------------- #
# Wiring: a real distributed run feeds the board
# --------------------------------------------------------------------- #

def test_distributed_run_leaves_a_completed_board(tmp_path, cluster_peers):
    cache_dir = tmp_path / "cache"
    # No self-leasing: the coordinator would otherwise race the peers for
    # the six units and could prove them all before a peer connects.
    with cluster_peers(cache_dir) as hostfile:
        report = verify_passes_distributed(SUBSET, hostfile=hostfile,
                                           cache_dir=str(cache_dir),
                                           self_lease=False)
    assert all(result.verified for result in report.results)
    status = read_run_status(cache_dir)
    assert status is not None and status["done"] is True
    assert status["units_done"] == len(SUBSET)
    assert status["failures"] == 0
    # Worker heartbeats rode the lease messages: the rows carry real
    # prove time and (on Linux) an rss sample.
    workers = {owner: row for owner, row in status["workers"].items()
               if owner.startswith("worker-")}
    assert workers, f"no worker rows in {sorted(status['workers'])}"
    assert sum(row["units_done"] for row in status["workers"].values()) \
        == len(SUBSET)
    assert any(row["prove_seconds"] > 0 for row in workers.values())
    assert any(row["last_seen"] > 0 for row in workers.values())


def test_cacheless_distributed_run_still_verifies(tmp_path, monkeypatch,
                                                  cluster_peers):
    # use_cache=False -> no shared directory to meet a reader in, so the
    # board stays in memory; nothing lands in the default cache location,
    # and the run is unaffected.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "default-cache"))
    with cluster_peers() as hostfile:
        report = verify_passes_distributed(SUBSET[:3], hostfile=hostfile,
                                           use_cache=False)
    assert all(result.verified for result in report.results)
    assert read_run_status(tmp_path / "default-cache") is None

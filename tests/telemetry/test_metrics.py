"""Counters, Prometheus exposition, and the daemon ``/metrics`` endpoint."""

import threading

import pytest

from repro.passes import ALL_VERIFIED_PASSES
from repro.service.client import connect
from repro.service.daemon import ProofDaemon, VerificationService
from repro.service.protocol import make_pass_spec
from repro.telemetry.metrics import (
    CounterRegistry,
    parse_prometheus,
    render_prometheus,
)


# --------------------------------------------------------------------- #
# CounterRegistry
# --------------------------------------------------------------------- #

def test_counter_registry_inc_set_get():
    counters = CounterRegistry()
    counters.inc("a_total")
    counters.inc("a_total", 4)
    counters.set("gauge", 2.5)
    assert counters.get("a_total") == 5
    assert counters.get("gauge") == 2.5
    assert counters.get("missing", -1) == -1
    snapshot = counters.snapshot()
    snapshot["a_total"] = 999  # snapshots are copies
    assert counters.get("a_total") == 5


def test_counter_registry_merge_adds_snapshots():
    counters = CounterRegistry()
    counters.inc("a_total", 2)
    counters.merge({"a_total": 3, "b_total": 5})
    counters.merge({})  # merging nothing is a no-op
    assert counters.get("a_total") == 5
    assert counters.get("b_total") == 5


def test_counter_registry_merge_combines_worker_payloads():
    """The fuzz campaign folds per-unit snapshots into one registry."""
    workers = [CounterRegistry() for _ in range(3)]
    for index, registry in enumerate(workers):
        registry.inc("repro_fuzz_cases_total", index + 1)
    combined = CounterRegistry()
    for registry in workers:
        combined.merge(registry.snapshot())
    assert combined.get("repro_fuzz_cases_total") == 6


def test_counter_registry_is_thread_safe():
    counters = CounterRegistry()

    def bump():
        for _ in range(1000):
            counters.inc("n_total")

    threads = [threading.Thread(target=bump) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert counters.get("n_total") == 8000


def test_histogram_observe_buckets_are_cumulative():
    counters = CounterRegistry()
    counters.observe("latency", 0.003, buckets=(0.001, 0.005, 0.1))
    counters.observe("latency", 0.05, buckets=(0.001, 0.005, 0.1))
    counters.observe("latency", 99.0, buckets=(0.001, 0.005, 0.1))
    (row,) = counters.histogram_snapshot()
    assert row["bounds"] == (0.001, 0.005, 0.1)
    assert row["counts"] == [0, 1, 2]  # cumulative: le=0.005 holds 0.003
    assert row["count"] == 3           # +Inf comes from the total
    assert row["sum"] == pytest.approx(99.053)


def test_histogram_labels_partition_series():
    counters = CounterRegistry()
    counters.observe("latency", 0.01, labels=(("solver", "z3"),))
    counters.observe("latency", 0.02, labels=(("solver", "builtin"),))
    counters.observe("latency", 0.03, labels=(("solver", "builtin"),))
    rows = counters.histogram_snapshot()
    by_labels = {row["labels"]: row["count"] for row in rows}
    assert by_labels == {(("solver", "builtin"),): 2, (("solver", "z3"),): 1}


# --------------------------------------------------------------------- #
# Prometheus text exposition
# --------------------------------------------------------------------- #

def test_render_parse_round_trip():
    text = render_prometheus({"x_total": 3, "uptime_seconds": 1.5})
    parsed = parse_prometheus(text)
    assert parsed == {"x_total": 3.0, "uptime_seconds": 1.5}


def test_render_types_and_help():
    text = render_prometheus(
        {"served_total": 7, "inflight": 1},
        types={"inflight": "gauge"},
        help_text={"served_total": "requests served"},
    )
    lines = text.splitlines()
    assert "# HELP served_total requests served" in lines
    assert "# TYPE served_total counter" in lines  # _total defaults counter
    assert "# TYPE inflight gauge" in lines
    assert "served_total 7" in lines


def test_parse_skips_comments_and_garbage():
    parsed = parse_prometheus("# HELP x y\n# TYPE x counter\nx 4\nbad line\n\n")
    assert parsed == {"x": 4.0}


def test_render_histogram_follows_the_prometheus_convention():
    counters = CounterRegistry()
    counters.observe("verify_latency_seconds", 0.004,
                     labels=(("solver", "builtin"),), buckets=(0.005, 0.1))
    text = render_prometheus(
        {}, help_text={"verify_latency_seconds": "verify latency"},
        histograms=counters.histogram_snapshot())
    lines = text.splitlines()
    assert "# HELP verify_latency_seconds verify latency" in lines
    assert "# TYPE verify_latency_seconds histogram" in lines
    assert ('verify_latency_seconds_bucket{solver="builtin",le="0.005"} 1'
            in lines)
    assert ('verify_latency_seconds_bucket{solver="builtin",le="+Inf"} 1'
            in lines)
    assert 'verify_latency_seconds_count{solver="builtin"} 1' in lines
    assert any(line.startswith('verify_latency_seconds_sum{solver="builtin"}')
               for line in lines)
    # The labeled series round-trip through the parser with their label
    # block verbatim; unlabeled parsing is untouched (repro status relies
    # on that).
    parsed = parse_prometheus(text)
    assert parsed['verify_latency_seconds_bucket{solver="builtin",le="+Inf"}'] \
        == 1.0


# --------------------------------------------------------------------- #
# Daemon endpoint
# --------------------------------------------------------------------- #

@pytest.fixture
def daemon(tmp_path):
    service = VerificationService(cache_dir=tmp_path)
    server = ProofDaemon(service)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        thread.join(timeout=10)
        server.close()


def _specs(classes):
    from repro.bench.table2 import pass_kwargs_for

    return [make_pass_spec(cls, pass_kwargs_for(cls)) for cls in classes]


def test_metrics_endpoint_counts_requests(daemon, tmp_path):
    client = connect(tmp_path)
    classes = ALL_VERIFIED_PASSES[:3]
    client.verify_specs(_specs(classes))
    client.verify_specs(_specs(classes))  # warm: served from the store

    metrics = parse_prometheus(client.metrics())
    assert metrics["repro_requests_total"] == 2.0
    assert metrics["repro_passes_served_total"] == 6.0
    assert metrics["repro_cache_misses_total"] == 3.0
    assert metrics["repro_cache_hits_total"] == 3.0
    assert metrics["repro_inflight_requests"] == 0.0
    assert metrics["repro_request_errors_total"] == 0.0
    assert metrics["repro_uptime_seconds"] >= 0.0
    assert metrics["repro_protocol_version"] >= 1.0
    assert metrics["repro_store_entries_live"] >= 3.0


def test_metrics_endpoint_is_plain_text(daemon, tmp_path):
    client = connect(tmp_path)
    text = client.metrics()
    assert "# TYPE repro_requests_total counter" in text
    assert "# HELP repro_requests_total" in text


def test_status_payload_carries_counters(daemon, tmp_path):
    client = connect(tmp_path)
    client.verify_specs(_specs(ALL_VERIFIED_PASSES[:2]))
    status = client.status()
    assert status["counters"]["repro_requests_total"] == 1
    assert status["counters"]["repro_passes_served_total"] == 2


def test_metrics_export_store_damage(tmp_path):
    """Unreadable lines the daemon's load dropped show on /metrics."""
    from repro.engine import ProofCache

    with ProofCache(tmp_path) as cache:
        cache.put_pass("pk", {"verified": True})
    with open(tmp_path / "proofs.jsonl", "a", encoding="utf-8") as handle:
        handle.write("torn{\n")
    service = VerificationService(cache_dir=tmp_path)
    try:
        metrics = parse_prometheus(service.metrics())
    finally:
        service.close()
    assert metrics["repro_store_corrupt_lines"] == 1.0
    assert metrics["repro_store_entries_live"] == 1.0


def test_protocol_errors_are_counted(daemon, tmp_path):
    from repro.service.protocol import ProtocolError

    client = connect(tmp_path)
    with pytest.raises(ProtocolError):
        client.verify_specs([])  # empty request is a protocol error
    metrics = parse_prometheus(client.metrics())
    assert metrics["repro_request_errors_total"] == 1.0
    assert metrics["repro_inflight_requests"] == 0.0


def test_metrics_endpoint_serves_latency_histogram_and_rss(daemon, tmp_path):
    client = connect(tmp_path)
    client.verify_specs(_specs(ALL_VERIFIED_PASSES[:2]))
    client.verify_specs(_specs(ALL_VERIFIED_PASSES[:2]))  # warm request
    text = client.metrics()
    assert "# TYPE repro_verify_latency_seconds histogram" in text
    metrics = parse_prometheus(text)
    # Two verify requests observed, partitioned by solver backend.
    inf_keys = [key for key in metrics
                if key.startswith("repro_verify_latency_seconds_bucket")
                and 'le="+Inf"' in key]
    assert inf_keys and sum(metrics[key] for key in inf_keys) == 2.0
    assert any('solver="' in key for key in inf_keys)
    # The daemon samples its own rss where /proc (or getrusage) allows.
    rss = metrics.get("repro_rss_bytes")
    assert rss is None or rss > 0


def test_status_cli_reports_metrics_unavailable(daemon, tmp_path, capsys,
                                                monkeypatch):
    """A daemon predating /metrics (or an erroring endpoint) degrades to an
    explicit 'unavailable' line instead of breaking ``repro status``."""
    from repro.cli import main
    from repro.service.client import DaemonClient, DaemonUnavailable

    assert main(["status", "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "served      :" in out and "metrics     :" not in out

    def _no_metrics(self):
        raise DaemonUnavailable("404 from an old daemon")

    monkeypatch.setattr(DaemonClient, "metrics", _no_metrics)
    assert main(["status", "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "metrics     : unavailable" in out
    assert "served      :" not in out

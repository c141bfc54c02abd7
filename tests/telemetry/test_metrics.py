"""Counters and their Prometheus text exposition."""

import threading

from repro.telemetry.metrics import CounterRegistry, render_prometheus


# --------------------------------------------------------------------- #
# CounterRegistry
# --------------------------------------------------------------------- #

def test_counter_registry_inc_set_get():
    counters = CounterRegistry()
    counters.inc("b_total", 0.5)
    counters.inc("a_total")
    counters.inc("a_total", 4)
    snapshot = counters.snapshot()
    assert list(snapshot.items()) == [("a_total", 5), ("b_total", 0.5)]
    snapshot["a_total"] = 999  # snapshots are copies
    assert counters.snapshot()["a_total"] == 5


def test_counter_registry_merge_adds_snapshots():
    counters = CounterRegistry()
    counters.inc("a_total", 2)
    counters.merge({"a_total": 3, "b_total": 5})
    counters.merge({})  # merging nothing is a no-op
    assert counters.snapshot() == {"a_total": 5, "b_total": 5}


def test_counter_registry_merge_combines_worker_payloads():
    """The fuzz campaign folds per-unit snapshots into one registry."""
    workers = [CounterRegistry() for _ in range(3)]
    for index, registry in enumerate(workers):
        registry.inc("repro_fuzz_cases_total", index + 1)
    combined = CounterRegistry()
    for registry in workers:
        combined.merge(registry.snapshot())
    assert combined.snapshot() == {"repro_fuzz_cases_total": 6}


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
    assert counters.snapshot() == {"n_total": 8000}


# --------------------------------------------------------------------- #
# Prometheus text exposition
# --------------------------------------------------------------------- #

def test_render_formats_counters_and_gauges():
    text = render_prometheus({"x_total": 3, "uptime_seconds": 1.5,
                              "ready": True})
    assert text.splitlines() == [
        "# TYPE ready gauge", "ready 1",
        "# TYPE uptime_seconds gauge", "uptime_seconds 1.5",
        "# TYPE x_total counter", "x_total 3",
    ]


def _read_samples(text):
    """Read the sample lines of a text exposition back as name -> value."""
    samples = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, value = line.split(" ")
            samples[name] = float(value)
    return samples


def test_render_parse_round_trip():
    values = {"x_total": 3, "uptime_seconds": 1.5,
              "ratio": 0.1 + 0.2, "bytes_total": 2 ** 60}
    text = render_prometheus(values)
    # Every sample reads back exactly: no value loses precision in the text.
    assert _read_samples(text) == {name: float(value)
                                   for name, value in values.items()}


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

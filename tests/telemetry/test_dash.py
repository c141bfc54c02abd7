"""The self-contained dashboard and its CLI surfaces (``stats``/``dash``)."""

import json

from repro.cli import main
from repro.telemetry.dash import DASH_SECTIONS, render_dashboard, write_dashboard
from repro.telemetry.history import TelemetryHistory
from repro.telemetry.stats import StatsRecorder


def _assert_self_contained(page):
    for section_id in DASH_SECTIONS:
        assert f'<section id="{section_id}"' in page, section_id
    assert "<script" not in page
    assert "http://" not in page and "https://" not in page


# --------------------------------------------------------------------- #
# Rendering
# --------------------------------------------------------------------- #

def test_empty_directory_renders_every_section_with_placeholders(tmp_path):
    page = render_dashboard(tmp_path)
    _assert_self_contained(page)
    assert page.count("no data") == 0           # placeholders are specific
    assert "no recorded runs yet" in page
    assert "no traced run recorded yet" in page
    assert "no store analytics recorded yet" in page
    assert "no fuzz corpus found" in page
    # Rendering a report must not create stores in the directory.
    assert list(tmp_path.iterdir()) == []


def test_populated_directory_renders_real_data(tmp_path):
    summary = {
        "records": 10,
        "passes": [{"name": "CXCancellation", "seconds": 0.5,
                    "subgoals": 3, "solver": "builtin"}],
        "solvers": {"builtin": {"count": 1}},
    }
    recorder = StatsRecorder(tmp_path, backend="jsonl")
    recorder.note_pass("p", "hit")
    recorder.note_unit(["s1", "s1"], ["s2"])
    recorder.finalize_and_save()
    with TelemetryHistory(tmp_path) as history:
        history.record_run(summary, stats={"backend": "jsonl"},
                           store_stats=recorder.canonical(), git="abc123")
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "corpus.jsonl").write_text(
        json.dumps({"schema": 1, "kind": "mismatch", "pass": "X"}) + "\n")

    page = render_dashboard(tmp_path, corpus_dir=corpus)
    _assert_self_contained(page)
    assert "1 recorded run(s)" in page
    assert "CXCancellation" in page
    assert "0.5000s" in page                    # the pass's bar label
    assert "<polyline" in page                  # the SVG charts rendered
    assert "mismatch" in page
    assert "abc123" in page


def test_write_dashboard_is_atomic_and_returns_path(tmp_path):
    out = write_dashboard(tmp_path, tmp_path / "report.html")
    assert out.read_text().startswith("<!DOCTYPE html>")
    assert not (tmp_path / "report.html.tmp").exists()


# --------------------------------------------------------------------- #
# CLI: repro stats / repro dash
# --------------------------------------------------------------------- #

def test_cli_stats_table_and_json(tmp_path, capsys):
    cache = tmp_path / "cache"
    assert main(["verify", "CXCancellation", "Width",
                 "--cache-dir", str(cache)]) == 0
    capsys.readouterr()
    assert main(["stats", "--cache-dir", str(cache)]) == 0
    out = capsys.readouterr().out
    assert "store stats" in out and "hot keys" in out
    assert main(["stats", "--cache-dir", str(cache),
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    # JSON mode prints the canonical aggregate only — no local section.
    assert "local" not in payload
    assert payload["tiers"]["pass"]["misses"] == 2


def test_cli_stats_without_data_exits_one(tmp_path, capsys):
    assert main(["stats", "--cache-dir", str(tmp_path)]) == 1
    assert "no store analytics" in capsys.readouterr().err


def test_cli_dash_renders_sections(tmp_path, capsys):
    out_file = tmp_path / "dash.html"
    assert main(["dash", "--cache-dir", str(tmp_path / "cache"),
                 "--html", str(out_file)]) == 0
    assert "wrote" in capsys.readouterr().out
    _assert_self_contained(out_file.read_text())

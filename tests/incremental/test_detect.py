"""Change detection and minimal-staleness computation."""

import os

from repro.incremental.detect import (
    ChangeDetector,
    normalize_path,
    stale_identities,
)


def _write(path, text):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def test_detector_baselines_silently_and_reports_content_changes(tmp_path):
    a = tmp_path / "a.py"
    b = tmp_path / "b.py"
    _write(a, "x = 1\n")
    _write(b, "y = 1\n")
    detector = ChangeDetector([a, b])
    assert detector.poll() == set()

    _write(a, "x = 2\n")
    assert detector.poll() == {normalize_path(a)}
    assert detector.poll() == set()  # change consumed


def test_touch_without_content_change_is_quiet(tmp_path):
    a = tmp_path / "a.py"
    _write(a, "x = 1\n")
    detector = ChangeDetector([a])
    future = os.stat(a).st_mtime + 60
    os.utime(a, (future, future))
    assert detector.poll() == set()


def test_deletion_and_reappearance_are_changes(tmp_path):
    a = tmp_path / "a.py"
    _write(a, "x = 1\n")
    detector = ChangeDetector([a])
    os.unlink(a)
    assert detector.poll() == {normalize_path(a)}
    assert detector.poll() == set()
    _write(a, "x = 1\n")
    assert detector.poll() == {normalize_path(a)}


def test_poll_extends_watch_set_without_reporting_new_paths(tmp_path):
    a = tmp_path / "a.py"
    b = tmp_path / "b.py"
    _write(a, "x = 1\n")
    detector = ChangeDetector([a])
    _write(b, "y = 1\n")
    assert detector.poll([b]) == set()   # new path baselined, not reported
    _write(b, "y = 2\n")
    assert detector.poll() == {normalize_path(b)}


def test_stale_identities_is_minimal(tmp_path, monkeypatch):
    # Each entry watches its own pass module and one shared data file.
    name = f"stale_probe_{tmp_path.name}".replace("-", "_")
    for suffix in ("a", "b"):
        _write(tmp_path / f"{name}_{suffix}.py", "VALUE = 1\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    a = normalize_path(tmp_path / f"{name}_a.py")
    b = normalize_path(tmp_path / f"{name}_b.py")
    shared = normalize_path(tmp_path / "shared.json")
    dep_index = {
        "pass-a": {"fingerprint": "fa", "module": f"{name}_a", "data_paths": [shared]},
        "pass-b": {"fingerprint": "fb", "module": f"{name}_b", "data_paths": [shared]},
    }
    assert stale_identities(dep_index, []) == set()
    assert stale_identities(dep_index, [a]) == {"pass-a"}
    assert stale_identities(dep_index, [b]) == {"pass-b"}
    assert stale_identities(dep_index, [shared]) == {"pass-a", "pass-b"}
    assert stale_identities(dep_index, [tmp_path / "unrelated.py"]) == set()

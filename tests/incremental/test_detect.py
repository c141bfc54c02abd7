"""Change detection and minimal-staleness computation."""

import os

from repro.engine.driver import verify_passes
from repro.incremental.detect import ChangeDetector, normalize_path


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


PROBE = """
from repro.verify.passes import AnalysisPass


class {name}(AnalysisPass):
    data_dependencies = ({shared!r},)

    def run(self, circuit):
        self.property_set["{name}"] = circuit.num_qubits
        return circuit
"""


def test_stale_identities_is_minimal(tmp_path, pass_package):
    # The stale set is what verify_passes(changed_paths=...) re-checks: a
    # configuration one of whose sources an edit moved, and no other.
    # Each pass reads its own module and one shared data file.
    shared = tmp_path / "shared.json"
    _write(shared, "{}")
    classes = {}

    def write_probe(name, edit=""):
        pass_package.write(f"{name.lower()}.py",
                           PROBE.format(name=name, shared=str(shared)) + edit)

    for name in ("ProbeA", "ProbeB"):
        write_probe(name)
        classes[name] = pass_package.load(name.lower(), name)
    cache_dir = str(tmp_path / "cache")
    assert verify_passes(list(classes.values()), cache_dir=cache_dir).all_verified

    def stale(*changed):
        return {name for name, cls in classes.items()
                if verify_passes([cls], cache_dir=cache_dir,
                                 changed_paths=changed).stats.stale_passes}

    assert stale() == set()
    write_probe("ProbeA", "# an edit\n")
    assert stale(pass_package.path_of("probea.py")) == {"ProbeA"}
    write_probe("ProbeB", "# an edit\n")
    assert stale(pass_package.path_of("probeb.py")) == {"ProbeB"}
    _write(shared, '{"edited": true}')
    assert stale(shared) == {"ProbeA", "ProbeB"}
    assert stale(tmp_path / "unrelated.py") == set()

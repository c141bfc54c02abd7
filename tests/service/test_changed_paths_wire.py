"""``changed_paths`` over the daemon wire: incremental remote requests."""

import os
import sys
import textwrap
import threading
import time
import uuid

import pytest

from repro.bench.table2 import pass_kwargs_for
from repro.passes import ALL_VERIFIED_PASSES
from repro.service.client import connect, verify_with_fallback
from repro.service.daemon import ProofDaemon, VerificationService
from repro.service.protocol import ProtocolError, make_pass_spec


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
    return [make_pass_spec(cls, pass_kwargs_for(cls)) for cls in classes]


_GOOD_WIDTH = '''
from repro.verify.passes import AnalysisPass


class TempWidth(AnalysisPass):
    """Store the register width."""

    def run(self, circuit):
        self.property_set["width"] = circuit.num_qubits
        return circuit
'''

_GOOD_WIDTH_EDITED = '''
from repro.verify.passes import AnalysisPass


class TempWidth(AnalysisPass):
    """Store the register width (including clbits)."""

    def run(self, circuit):
        self.property_set["width"] = circuit.num_qubits + circuit.num_clbits
        return circuit
'''


class _TempPackage:
    """A throwaway importable package with an editable pass module."""

    GOOD_WIDTH = _GOOD_WIDTH
    GOOD_WIDTH_EDITED = _GOOD_WIDTH_EDITED

    def __init__(self, root):
        self.name = f"wirepkg_{uuid.uuid4().hex[:10]}"
        self.root = str(root)
        self.package_dir = os.path.join(self.root, self.name)
        self._bumps = 0
        os.makedirs(self.package_dir)
        self.write("__init__.py", "")
        sys.path.insert(0, self.root)

    def write(self, filename, body):
        path = os.path.join(self.package_dir, filename)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(textwrap.dedent(body))
        self._bumps += 1
        bump = time.time() + self._bumps
        os.utime(path, (bump, bump))
        return os.path.realpath(path)

    def load(self, module, attribute):
        import importlib

        return getattr(importlib.import_module(f"{self.name}.{module}"), attribute)

    def cleanup(self):
        sys.path.remove(self.root)
        for name in list(sys.modules):
            if name == self.name or name.startswith(self.name + "."):
                del sys.modules[name]


@pytest.fixture
def pass_package(tmp_path):
    package = _TempPackage(tmp_path / "pkgroot")
    try:
        yield package
    finally:
        package.cleanup()


def test_empty_change_set_serves_everything_incrementally(daemon, tmp_path):
    client = connect(tmp_path)
    classes = ALL_VERIFIED_PASSES[:5]
    # Cold request records the dependency index daemon-side.
    client.verify_specs(_specs(classes))
    results, stats = client.verify_specs(_specs(classes), changed_paths=[])
    assert all(r.verified for r in results)
    assert stats.stale_passes == 0
    assert stats.cache_hits == len(classes)
    assert stats.cache_misses == 0


def test_changed_unrelated_path_keeps_everything_warm(daemon, tmp_path):
    client = connect(tmp_path)
    classes = ALL_VERIFIED_PASSES[:4]
    client.verify_specs(_specs(classes))
    bogus = str(tmp_path / "not-a-dependency.py")
    results, stats = client.verify_specs(_specs(classes), changed_paths=[bogus])
    assert all(r.verified for r in results)
    assert stats.stale_passes == 0
    assert stats.cache_misses == 0


def test_changed_dependency_path_restales_only_its_passes(daemon, tmp_path):
    client = connect(tmp_path)
    classes = ALL_VERIFIED_PASSES[:6]
    client.verify_specs(_specs(classes))
    # The module the first class lives in is certainly in its dependency
    # set; its content did not actually change, so the re-derived keys all
    # still hit the store.
    touched = sys.modules[classes[0].__module__].__file__
    results, stats = client.verify_specs(_specs(classes),
                                         changed_paths=[touched])
    assert all(r.verified for r in results)
    # Only the passes whose dependency set includes the file were
    # re-fingerprinted; the file content did not actually change, so every
    # re-derived key still hits the store.
    assert stats.stale_passes is not None and 0 < stats.stale_passes <= len(classes)
    assert stats.cache_misses == 0


def test_malformed_changed_paths_is_a_protocol_error(daemon, tmp_path):
    client = connect(tmp_path)
    with pytest.raises(ProtocolError):
        client.verify_specs(_specs(ALL_VERIFIED_PASSES[:1]),
                            changed_paths="not-a-list")


def test_daemon_absorbs_edit_and_reproves_new_code(daemon, tmp_path, pass_package):
    """A non-watching daemon given changed_paths reloads before proving.

    The temp pass is injected into the daemon's registry (it is not a
    shipped pass); after the edit, the request carrying the changed path
    must be verified against the *new* source — the absorbed reload — not
    the class object the daemon resolved at injection time.
    """
    path = pass_package.write("width_mod.py", pass_package.GOOD_WIDTH)
    temp_class = pass_package.load("width_mod", "TempWidth")
    daemon.service.registry["TempWidth"] = temp_class

    client = connect(tmp_path)
    spec = [{"name": "TempWidth", "coupling": None}]
    results, stats = client.verify_specs(spec)
    assert results[0].verified
    assert stats.cache_misses == 1

    pass_package.write("width_mod.py", pass_package.GOOD_WIDTH_EDITED)
    results, stats = client.verify_specs(spec, changed_paths=[path])
    assert results[0].verified
    # The edit moved the key: the daemon re-proved rather than serving the
    # stale verdict, which is only possible if it reloaded the module.
    assert stats.cache_misses == 1
    assert stats.stale_passes == 1


def test_fallback_path_honours_changed_paths(tmp_path):
    """No daemon at all: verify_with_fallback runs incrementally in-process."""
    classes = ALL_VERIFIED_PASSES[:3]
    verify_with_fallback(classes, cache_dir=str(tmp_path),
                         pass_kwargs_fn=pass_kwargs_for)
    report = verify_with_fallback(classes, cache_dir=str(tmp_path),
                                  pass_kwargs_fn=pass_kwargs_for,
                                  changed_paths=[])
    assert report.stats.daemon is None
    assert report.stats.stale_passes == 0
    assert report.stats.cache_hits == len(classes)

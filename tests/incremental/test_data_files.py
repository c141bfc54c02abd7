"""Data-file dependencies: device maps and declared data files invalidate."""

import json

import pytest

from repro.coupling.devices import load_device_map
from repro.engine import verify_passes
from repro.engine.fingerprint import data_dependency_digest, pass_fingerprint
from repro.incremental.deps import (
    build_dep_entry,
    class_data_paths,
    entry_watch_paths,
    kwarg_data_paths,
)
from repro.incremental.detect import ChangeDetector, normalize_path
from repro.passes import ALL_VERIFIED_PASSES


def _write_device(path, num_qubits=5, extra_edge=None):
    edges = [[i, i + 1] for i in range(num_qubits - 1)]
    if extra_edge:
        edges.append(list(extra_edge))
    path.write_text(json.dumps({"num_qubits": num_qubits, "edges": edges}))
    return str(path)


def _coupling_pass():
    from repro.engine.driver import COUPLING_PASSES

    for cls in ALL_VERIFIED_PASSES:
        if cls.__name__ in COUPLING_PASSES:
            return cls
    pytest.skip("no coupling pass in the suite")


def test_load_device_map_records_its_source(tmp_path):
    path = _write_device(tmp_path / "device.json")
    coupling = load_device_map(path)
    assert coupling.num_qubits == 5
    assert coupling.source_path == path
    assert kwarg_data_paths({"coupling": coupling}) == (normalize_path(path),)
    # In-code devices carry no source and contribute nothing.
    from repro.coupling.devices import linear_device

    assert kwarg_data_paths({"coupling": linear_device(5)}) == ()


def test_malformed_device_map_raises(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"edges": "nope"}')
    with pytest.raises(ValueError):
        load_device_map(str(bad))


def test_dep_entry_includes_device_file(tmp_path):
    path = _write_device(tmp_path / "device.json")
    cls = _coupling_pass()
    kwargs = {"coupling": load_device_map(path)}
    entry = build_dep_entry(cls, kwargs, "fp")
    assert entry["data_paths"] == [normalize_path(path)]
    watched = entry_watch_paths(entry)
    assert normalize_path(path) in watched
    # Source files are watched too.
    assert any(p.endswith(".py") for p in watched)


def test_editing_the_device_file_invalidates_exactly_its_config(tmp_path):
    path = _write_device(tmp_path / "device.json")
    cls = _coupling_pass()
    other = ALL_VERIFIED_PASSES[0]
    cache_dir = str(tmp_path / "cache")

    def kwargs_fn(pass_class):
        return {"coupling": load_device_map(path)} if pass_class is cls else None

    def stale(pass_class, changed):
        return verify_passes([pass_class], cache_dir=cache_dir, pass_kwargs_fn=kwargs_fn,
                             changed_paths=changed).stats.stale_passes

    assert verify_passes([cls, other], cache_dir=cache_dir,
                         pass_kwargs_fn=kwargs_fn).all_verified
    detector = ChangeDetector([path])
    assert detector.poll() == set()
    _write_device(tmp_path / "device.json", extra_edge=(0, 4))
    changed = detector.poll()
    assert changed == {normalize_path(path)}
    assert (stale(cls, changed), stale(other, changed)) == (1, 0)


def test_device_edit_changes_the_cache_key_end_to_end(tmp_path):
    """changed_paths=[device file] re-proves under the new topology."""
    device_file = tmp_path / "device.json"
    _write_device(device_file)
    cls = _coupling_pass()
    cache_dir = str(tmp_path / "cache")

    def kwargs_fn(_cls):
        return {"coupling": load_device_map(str(device_file))}

    cold = verify_passes([cls], cache_dir=cache_dir, pass_kwargs_fn=kwargs_fn)
    assert cold.stats.cache_misses == 1

    _write_device(device_file, extra_edge=(0, 4))
    edited = verify_passes([cls], cache_dir=cache_dir, pass_kwargs_fn=kwargs_fn,
                           changed_paths=[str(device_file)])
    assert edited.stats.stale_passes == 1
    # New edge set, new key: the old proof must not be served.
    assert edited.stats.cache_misses == 1


def test_declared_data_dependencies_feed_the_fingerprint(tmp_path):
    data = tmp_path / "table.dat"
    data.write_text("v1")

    class DataPass(ALL_VERIFIED_PASSES[0]):
        data_dependencies = (str(data),)

    assert class_data_paths(DataPass) == (normalize_path(str(data)),)
    first = data_dependency_digest(DataPass)
    key_one = pass_fingerprint(DataPass)
    data.write_text("v2")
    assert data_dependency_digest(DataPass) != first
    assert pass_fingerprint(DataPass) != key_one
    # Missing files hash as absent, not as an error.
    data.unlink()
    assert data_dependency_digest(DataPass)[0][1] == "<missing>"


def test_file_backed_qasm_suite(tmp_path):
    from repro.bench.qasmbench import load_qasm_suite, qasmbench_suite

    (tmp_path / "tiny.qasm").write_text(
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n')
    (tmp_path / "broken.qasm").write_text("not qasm at all")
    (tmp_path / "ignored.txt").write_text("x")
    suite = load_qasm_suite(str(tmp_path))
    assert [entry.name for entry in suite] == ["tiny"]
    assert suite[0].num_qubits == 2
    assert suite[0].family == "file"
    # qasmbench_suite(directory=...) prefers the files.
    assert [e.name for e in qasmbench_suite(directory=str(tmp_path))] == ["tiny"]

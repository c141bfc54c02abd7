"""End-to-end incremental re-verification: driver, watcher, pre-warm.

Each watch cycle verifies in a fresh interpreter, so the tests edit the
pass modules on disk and never have to re-import them here.
"""

import json
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.engine.driver import verify_passes

REPO_SRC = Path(__file__).resolve().parents[2] / "src"


# --------------------------------------------------------------------------- #
# verify_passes(changed_paths=...)
# --------------------------------------------------------------------------- #
def test_incremental_run_skips_unchanged_passes(tmp_path, pass_package):
    pass_package.write("mod_a.py", pass_package.GOOD_WIDTH)
    pass_package.write("mod_b.py", pass_package.GOOD_SIZE)
    width = pass_package.load("mod_a", "TempWidth")
    size = pass_package.load("mod_b", "TempSize")
    cache_dir = tmp_path / "cache"

    cold = verify_passes([width, size], cache_dir=cache_dir)
    assert cold.stats.cache_misses == 2
    assert cold.stats.stale_passes is None  # full runs don't report staleness

    quiet = verify_passes([width, size], cache_dir=cache_dir, changed_paths=[])
    assert quiet.stats.stale_passes == 0
    assert quiet.stats.cache_hits == 2
    assert quiet.stats.cache_misses == 0

    pass_package.write("mod_a.py", pass_package.GOOD_WIDTH + "# an edit\n")
    only_a = verify_passes([width, size], cache_dir=cache_dir,
                           changed_paths=[pass_package.path_of("mod_a.py")])
    assert only_a.stats.stale_passes == 1
    assert only_a.stats.cache_hits == 1    # TempSize: its recorded key
    assert only_a.stats.cache_misses == 1  # the edit moved TempWidth's key
    assert [r.verified for r in only_a.results] == \
        [r.verified for r in cold.results]


def test_pass_without_dep_entry_is_conservatively_stale(tmp_path, pass_package):
    pass_package.write("mod_a.py", pass_package.GOOD_WIDTH)
    width = pass_package.load("mod_a", "TempWidth")
    cache_dir = tmp_path / "cache"
    # Populate the proof cache but *not* the dep index.
    cold = verify_passes([width], cache_dir=cache_dir, record_deps=False)
    assert cold.stats.cache_misses == 1
    incr = verify_passes([width], cache_dir=cache_dir, changed_paths=[])
    assert incr.stats.stale_passes == 1   # no entry -> full fingerprint path
    assert incr.stats.cache_hits == 1     # ... which then hits the proof cache


def test_an_entry_serves_its_key_while_its_sources_hold(tmp_path, pass_package,
                                                        monkeypatch):
    from repro.engine import driver

    two_passes = pass_package.GOOD_WIDTH + pass_package.GOOD_SIZE
    pass_package.write("mod.py", two_passes)
    classes = [pass_package.load("mod", "TempWidth"), pass_package.load("mod", "TempSize")]
    cache_dir = tmp_path / "cache"
    assert verify_passes(classes, cache_dir=cache_dir).stats.cache_misses == 2

    derived = []
    real = driver.pass_fingerprint
    monkeypatch.setattr(driver, "pass_fingerprint",
                        lambda cls, *a, **k: derived.append(cls.__name__) or real(cls, *a, **k))

    def run(**kwargs):
        del derived[:]
        stats = verify_passes(classes, cache_dir=cache_dir, **kwargs).stats
        return derived[:], stats.cache_hits, stats.cache_misses, stats.stale_passes

    assert run() == ([], 2, 0, None)   # a warm run derives no key
    # Nor does a run that lists a file no edit touched: the list decides
    # nothing, and no pass counts as stale.
    assert run(changed_paths=[pass_package.path_of("mod.py")]) == ([], 2, 0, 0)
    # A comment in one class moves both passes' sources, whatever the
    # change list says: both keys are derived again, and only the edited
    # one moved.  The run sees the edit with no reset of this process's
    # memos.
    edited = two_passes.replace("class TempWidth(AnalysisPass):\n",
                                "class TempWidth(AnalysisPass):\n    # an edit\n")
    pass_package.write("mod.py", edited)
    assert run(changed_paths=[]) == (["TempWidth", "TempSize"], 1, 1, 2)
    # Both entries were rewritten with the new sources.
    assert run() == ([], 2, 0, None)


def test_a_key_derived_after_an_edit_is_recorded_beside_its_own_sources(
        tmp_path, pass_package, monkeypatch):
    from repro.engine import driver
    from repro.engine.cache import ProofCache
    from repro.engine.fingerprint import data_dependency_digest, pass_fingerprint
    from repro.incremental.deps import identity_key, sources_digest

    pass_package.write("mod_a.py", pass_package.GOOD_WIDTH)
    width = pass_package.load("mod_a", "TempWidth")
    verify_passes([width], cache_dir=tmp_path / "first")   # hashes mod_a

    # The module changes after the next run read its sources and before
    # it derives the key, which then reads the edited file.
    real = driver.pass_fingerprint

    def edit_then_derive(*args, **kwargs):
        pass_package.write("mod_a.py", pass_package.GOOD_WIDTH_EDITED)
        return real(*args, **kwargs)

    monkeypatch.setattr(driver, "pass_fingerprint", edit_then_derive)
    verify_passes([width], cache_dir=tmp_path / "second")
    monkeypatch.undo()

    with ProofCache(tmp_path / "second") as cache:
        entry = cache.deps_snapshot()[identity_key(width)]
    assert entry["fingerprint"] == pass_fingerprint(width)
    assert entry["sources"] == sources_digest(width.__module__, "builtin",
                                              data_dependency_digest(width))


def test_verdicts_identical_to_full_run_after_edit(tmp_path, pass_package):
    from repro.incremental.watch import Watcher

    pass_package.write("mod_a.py", pass_package.GOOD_WIDTH)
    pass_package.write("mod_b.py", pass_package.GOOD_SIZE)
    classes = [pass_package.load("mod_a", "TempWidth"),
               pass_package.load("mod_b", "TempSize")]
    watcher = Watcher(classes, cache_dir=str(tmp_path / "cache"))
    watcher.run_cycle()

    pass_package.write("mod_a.py", pass_package.GOOD_WIDTH_EDITED)
    incr = watcher.run_cycle()
    full = Watcher(classes, cache_dir=str(tmp_path / "fresh")).run_cycle()
    assert incr.stats.stale_passes == 1
    assert incr.stats.cache_misses == 1   # the edited pass was re-proved
    assert full.stats.cache_misses == 2
    assert [r.verified for r in incr.results] == \
        [r.verified for r in full.results]


# --------------------------------------------------------------------------- #
# The Watcher loop
# --------------------------------------------------------------------------- #
def test_watcher_reverifies_only_the_edited_pass(tmp_path, pass_package):
    from repro.incremental.watch import Watcher

    pass_package.write("mod_a.py", pass_package.GOOD_WIDTH)
    pass_package.write("mod_b.py", pass_package.GOOD_SIZE)
    width = pass_package.load("mod_a", "TempWidth")
    size = pass_package.load("mod_b", "TempSize")

    watcher = Watcher([width, size], cache_dir=str(tmp_path / "cache"))
    baseline = watcher.run_cycle()
    assert baseline.stats.cache_misses == 2
    assert baseline.all_verified

    quiet = watcher.run_cycle()
    assert quiet.quiet

    pass_package.write("mod_a.py", pass_package.GOOD_WIDTH_EDITED)
    cycle = watcher.run_cycle()
    assert not cycle.quiet
    assert cycle.changed_paths == (pass_package.path_of("mod_a.py"),)
    assert cycle.stats.stale_passes == 1
    assert cycle.stats.cache_hits == 1     # TempSize untouched: served warm
    assert cycle.stats.cache_misses == 1   # TempWidth re-proved
    assert cycle.all_verified


def test_engine_stats_survive_the_child_reply_field_for_field(monkeypatch):
    """A cycle's stats cross to the watcher as the JSON reply's ``stats``
    object, which the watcher turns back into ``EngineStats(**stats)``."""
    import io

    from repro.engine import driver
    from repro.engine.driver import EngineReport, EngineStats
    from repro.incremental.watch import verify_in_child

    stats = EngineStats(passes_total=2, cache_hits=1, cache_misses=1,
                        subgoal_hits=3, subgoal_misses=4, invalidated=5,
                        wall_seconds=0.25, cache_dir="/store", backend="jsonl",
                        solver="bounded", stale_passes=1)
    monkeypatch.setattr(driver, "verify_passes",
                        lambda *args, **kwargs: EngineReport(stats=stats))
    reply = io.StringIO()
    monkeypatch.setattr(sys, "stdout", reply)
    verify_in_child({"passes": [], "pass_kwargs_fn": None, "cache_dir": None,
                     "counterexample_search": False, "changed_paths": None})
    rebuilt = EngineStats(**json.loads(reply.getvalue())["stats"])
    assert vars(rebuilt) == vars(stats)


def test_watcher_watch_runs_bounded_cycles(tmp_path, pass_package):
    from repro.incremental.watch import Watcher

    pass_package.write("mod_a.py", pass_package.GOOD_WIDTH)
    width = pass_package.load("mod_a", "TempWidth")
    watcher = Watcher([width], cache_dir=str(tmp_path / "cache"))
    lines = []
    last = watcher.watch(interval=0.01, cycles=2, printer=lines.append)
    assert watcher.cycles_run == 2
    assert last is not None and last.index == 0   # only the baseline verified
    assert any("cycle 0" in line for line in lines)


def test_watcher_takes_only_an_importable_kwargs_function(pass_package):
    from repro.engine.driver import default_pass_kwargs
    from repro.incremental.watch import Watcher

    pass_package.write("mod_a.py", pass_package.GOOD_WIDTH)
    width = pass_package.load("mod_a", "TempWidth")
    # The child process finds the function by module and qualname.
    watcher = Watcher([width], pass_kwargs_fn=default_pass_kwargs)
    assert watcher.kwargs_reference == \
        ("repro.engine.driver", "default_pass_kwargs")
    with pytest.raises(TypeError, match="not a module-level function"):
        Watcher([width], pass_kwargs_fn=lambda cls: None)


_ADD_AN_IMPORT = textwrap.dedent(
    """
    import json
    import os
    import sys

    from repro.incremental.watch import Watcher

    package = sys.argv[1]
    helper = os.path.join(os.path.dirname(package), "repro", "watch_helper.py")

    def write(path, text):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)

    write(helper, "VALUE = 1\\n")
    module = os.path.join(package, "mod_a.py")
    with open(module, encoding="utf-8") as handle:
        body = handle.read()
    from watchpkg.mod_a import TempWidth

    watcher = Watcher([TempWidth], cache_dir=sys.argv[2])
    cycles = [watcher.run_cycle()]
    write(module, "import repro.watch_helper  # noqa: F401\\n" + body)
    cycles.append(watcher.run_cycle())
    write(helper, "VALUE = 22\\n")
    cycles.append(watcher.run_cycle())
    print(json.dumps([
        {"changed": [os.path.basename(path) for path in cycle.changed_paths],
         "stale": cycle.stats and cycle.stats.stale_passes,
         "misses": cycle.stats and cycle.stats.cache_misses,
         "verified": cycle.all_verified}
        for cycle in cycles]))
    """
)


def test_the_watch_set_follows_an_edit_that_adds_an_import(tmp_path,
                                                           pass_package):
    """Only package modules join a closure, so the helper lives in a copy
    of ``src/repro``; the pass module gains an import of it, and an edit
    to the helper alone must then re-verify the pass."""
    src = tmp_path / "src"
    shutil.copytree(REPO_SRC / "repro", src / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    package = src / "watchpkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod_a.py").write_text(textwrap.dedent(pass_package.GOOD_WIDTH))
    completed = subprocess.run(
        [sys.executable, "-c", _ADD_AN_IMPORT, str(package),
         str(tmp_path / "store")],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert completed.returncode == 0, completed.stderr
    baseline, added, helper = json.loads(completed.stdout)
    assert baseline == {"changed": [], "stale": None, "misses": 1,
                        "verified": True}
    assert added == {"changed": ["mod_a.py"], "stale": 1, "misses": 1,
                     "verified": True}
    assert helper == {"changed": ["watch_helper.py"], "stale": 1, "misses": 1,
                      "verified": True}


# --------------------------------------------------------------------------- #
# Pre-warm
# --------------------------------------------------------------------------- #
def test_watch_cycle_prewarms_store(tmp_path, pass_package):
    """After a watch cycle re-proves an edit, the next run on the same
    store is served entirely warm."""
    from repro.incremental.watch import Watcher

    pass_package.write("mod_a.py", pass_package.GOOD_WIDTH)
    pass_package.write("mod_b.py", pass_package.GOOD_SIZE)
    width = pass_package.load("mod_a", "TempWidth")
    size = pass_package.load("mod_b", "TempSize")
    store = str(tmp_path / "store")

    watcher = Watcher([width, size], cache_dir=store)
    assert watcher.run_cycle().stats.cache_misses == 2   # baseline

    pass_package.write("mod_a.py", pass_package.GOOD_WIDTH_EDITED)
    cycle = watcher.run_cycle()
    assert cycle.stats.cache_misses == 1   # exactly the edited pass re-proved

    client = Watcher([width, size], cache_dir=store).run_cycle()
    assert client.stats.cache_hits == 2
    assert client.stats.cache_misses == 0

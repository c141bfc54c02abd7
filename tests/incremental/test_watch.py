"""End-to-end incremental re-verification: driver, watcher, pre-warm."""

from repro.engine.driver import verify_passes


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

    only_a = verify_passes([width, size], cache_dir=cache_dir,
                           changed_paths=[pass_package.path_of("mod_a.py")])
    assert only_a.stats.stale_passes == 1
    assert only_a.stats.cache_hits == 2  # unchanged source -> same key -> hit
    assert only_a.stats.cache_misses == 0
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


def test_verdicts_identical_to_full_run_after_edit(tmp_path, pass_package):
    pass_package.write("mod_a.py", pass_package.GOOD_WIDTH)
    pass_package.write("mod_b.py", pass_package.GOOD_SIZE)
    width = pass_package.load("mod_a", "TempWidth")
    size = pass_package.load("mod_b", "TempSize")
    cache_dir = tmp_path / "cache"
    verify_passes([width, size], cache_dir=cache_dir)

    pass_package.write("mod_a.py", pass_package.GOOD_WIDTH_EDITED)
    from repro.incremental.watch import refresh_classes, refresh_source_state

    refresh_source_state([pass_package.path_of("mod_a.py")])
    width, size = refresh_classes([width, size])

    incr = verify_passes([width, size], cache_dir=cache_dir,
                         changed_paths=[pass_package.path_of("mod_a.py")])
    full = verify_passes([width, size], cache_dir=tmp_path / "fresh")
    assert incr.stats.stale_passes == 1
    assert incr.stats.cache_misses == 1   # the edited pass was re-proved
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
    assert any("mod_a" in name for name in cycle.reloaded_modules)
    # The reloaded class really is the edited one.
    assert "num_clbits" in [c for c in watcher.pass_classes
                            if c.__name__ == "TempWidth"][0].run.__code__.co_names


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


# --------------------------------------------------------------------------- #
# Pre-warm
# --------------------------------------------------------------------------- #
def test_watch_cycle_prewarms_store(tmp_path, pass_package):
    """After a watch cycle re-proves an edit, the next run on the same
    store is served entirely warm."""
    from repro.incremental.watch import Watcher, refresh_classes

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

    client = verify_passes(refresh_classes([width, size]), cache_dir=store)
    assert client.stats.cache_hits == 2
    assert client.stats.cache_misses == 0


# --------------------------------------------------------------------------- #
# PassManager tie-in
# --------------------------------------------------------------------------- #
def test_passmanager_mark_stale_drops_only_affected_configs(tmp_path,
                                                            pass_package):
    from repro.transpiler.passmanager import PassManager

    pass_package.write("mod_a.py", pass_package.GOOD_WIDTH)
    pass_package.write("mod_b.py", pass_package.GOOD_SIZE)
    width = pass_package.load("mod_a", "TempWidth")
    size = pass_package.load("mod_b", "TempSize")

    manager = PassManager([width(), size()], verify_first=True,
                          verify_cache_dir=str(tmp_path / "cache"))
    manager.ensure_verified()
    assert len(manager._verified_classes) == 2

    # An unrelated edit invalidates nothing.
    assert manager.mark_stale([str(tmp_path / "unrelated.py")]) == 0
    assert len(manager._verified_classes) == 2

    # Editing mod_a invalidates exactly TempWidth's marker.
    assert manager.mark_stale([pass_package.path_of("mod_a.py")]) == 1
    remaining = [cls.__name__ for (cls, _) in manager._verified_classes.values()]
    assert remaining == ["TempSize"]

"""Term interning: observability, bounded reset, reload regression."""

import pickle
import sys
import textwrap

from repro.smt.terms import (
    QUBIT,
    Term,
    app,
    interning_stats,
    lit,
    on_reset_interning,
    reset_interning,
    var,
)


def test_interning_stats_track_hits_and_misses():
    before = interning_stats()
    fresh = app("stats_probe", lit(("unique", before["misses"])))
    after_miss = interning_stats()
    assert after_miss["misses"] > before["misses"]
    again = app("stats_probe", lit(("unique", before["misses"])))
    assert again is fresh
    assert interning_stats()["hits"] > after_miss["hits"]
    assert interning_stats()["terms"] >= 1


def test_reset_interning_clears_the_table_and_keeps_ids_monotonic():
    old = app("reset_probe", var("x"))
    old_id = old.term_id
    dropped = reset_interning()
    assert dropped > 0
    assert interning_stats()["terms"] == 0
    assert interning_stats()["resets"] >= 1
    # A structurally equal term is a *fresh* object after the reset (the
    # stale one is no longer canonical) with a strictly newer id — the
    # eq()-normalisation order can never collide with survivors.
    fresh = app("reset_probe", var("x"))
    assert fresh is not old
    assert fresh.term_id > old_id


def test_unpickling_reinterns_to_the_same_object():
    term = app("f", var("x", QUBIT), lit(1, QUBIT), sort=QUBIT)
    assert pickle.loads(pickle.dumps(term)) is term


def test_reset_hooks_run_and_clear_solver_memos():
    calls = []
    on_reset_interning(lambda: calls.append("hook"))
    from repro.prover import resolve_solver
    from repro.smt.terms import eq

    backend = resolve_solver("builtin")
    goal = eq(app("memo_probe"), app("memo_probe"))
    backend.check(goal, [])
    assert backend._memo
    reset_interning()
    assert calls == ["hook"]
    assert not backend._memo


def test_watch_reload_resets_interning(tmp_path):
    """The regression: module reload through the watcher must not leak
    stale hash-consed terms for the watcher's lifetime."""
    from repro.incremental.watch import refresh_source_state

    module_path = tmp_path / "interning_reload_probe.py"
    module_path.write_text(textwrap.dedent("""
        VALUE = 1
    """))
    sys.path.insert(0, str(tmp_path))
    try:
        import interning_reload_probe  # noqa: F401

        app("leak_probe", lit("pre-reload"))
        table_before = len(Term._interned)
        assert table_before > 0
        resets_before = interning_stats()["resets"]
        module_path.write_text("VALUE = 2\n")
        reloaded = refresh_source_state([str(module_path)])
        assert reloaded == ["interning_reload_probe"]
        assert interning_stats()["resets"] == resets_before + 1
        assert len(Term._interned) < table_before
    finally:
        sys.path.remove(str(tmp_path))
        sys.modules.pop("interning_reload_probe", None)

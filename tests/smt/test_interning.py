"""Term interning: observability and pickling."""

import pickle

from repro.smt.terms import QUBIT, app, interning_stats, lit, var


def test_interning_stats_track_hits_and_misses():
    before = interning_stats()
    fresh = app("stats_probe", lit(("unique", before["misses"])))
    after_miss = interning_stats()
    assert after_miss["misses"] > before["misses"]
    again = app("stats_probe", lit(("unique", before["misses"])))
    assert again is fresh
    assert interning_stats()["hits"] > after_miss["hits"]
    assert interning_stats()["terms"] >= 1


def test_unpickling_reinterns_to_the_same_object():
    term = app("f", var("x", QUBIT), lit(1, QUBIT), sort=QUBIT)
    assert pickle.loads(pickle.dumps(term)) is term

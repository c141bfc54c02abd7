"""Noise-aware numeric thresholds shared by bench gating and run diffing.

Raw wall-clock numbers do not transfer between machines or even between
two runs on the same machine, so every consumer that compares timings —
``tools/check_bench.py`` gating fresh bench output against the recorded
baselines, ``repro trace diff`` attributing wall deltas between two runs,
``repro history regressions`` scanning the longitudinal store — shares the
same two-part test instead of comparing seconds against seconds:

* a **relative** bound: the candidate must exceed the reference by more
  than ``noise_pct`` percent, and
* an **absolute** floor: the delta must also exceed ``min_seconds``, so a
  microsecond-scale wobble on a microsecond-scale pass never flags.

Both must trip for a comparison to count as a regression.  The constants
here are the single source of truth; ``check_bench.py`` imports them
rather than hard-coding its own copies.
"""

from __future__ import annotations

from typing import Optional

__all__ = [
    "DEFAULT_MIN_SPEEDUP",
    "DEFAULT_MAX_OVERHEAD_PCT",
    "DEFAULT_NOISE_PCT",
    "DEFAULT_MIN_SECONDS",
    "exceeds_ratio",
    "is_regression",
    "regression_ratio",
]

#: Fresh e-matching speedup may be far below the recorded figure on a
#: loaded runner; an order-of-magnitude cushion still catches the indexed
#: path degenerating into the linear scan.
DEFAULT_MIN_SPEEDUP = 2.0

#: Tracing overhead on a warm suite is a microsecond-scale effect measured
#: against a millisecond-scale wall; the recorded baseline documents the
#: quiet-machine figure, while this CI bound only rejects tracing becoming
#: a structural slowdown.
DEFAULT_MAX_OVERHEAD_PCT = 25.0

#: Two runs of the same warm suite on the same machine routinely differ by
#: double-digit percentages at the per-pass level; a run-to-run comparison
#: only counts as a regression beyond this relative cushion.
DEFAULT_NOISE_PCT = 20.0

#: Relative noise alone is not enough: a 3x blowup on a 50-microsecond
#: pass is scheduler jitter, not a regression.  The delta must also clear
#: this absolute floor.
DEFAULT_MIN_SECONDS = 0.005


def exceeds_ratio(value: float, reference: float, *,
                  max_pct: float) -> bool:
    """True when ``value`` exceeds ``reference`` by more than ``max_pct``
    percent.  A non-positive reference never bounds anything."""
    if reference <= 0:
        return False
    return value > reference * (1.0 + max_pct / 100.0)


def regression_ratio(before: float, after: float) -> Optional[float]:
    """``after / before`` when both are positive, else ``None`` (a pass
    that appeared or vanished has no meaningful ratio)."""
    if before <= 0 or after <= 0:
        return None
    return after / before


def is_regression(before: float, after: float, *,
                  noise_pct: float = DEFAULT_NOISE_PCT,
                  min_seconds: float = DEFAULT_MIN_SECONDS) -> bool:
    """Noise-aware "did it get slower": ``after`` must beat ``before`` by
    both the relative cushion and the absolute floor.

    >>> is_regression(1.0, 1.5)
    True
    >>> is_regression(1.0, 1.1)          # inside the 20% cushion
    False
    >>> is_regression(0.0001, 0.0004)    # relative blowup, absolute jitter
    False
    """
    if after - before <= min_seconds:
        return False
    return exceeds_ratio(after, before, max_pct=noise_pct)

"""Decompose a pending verification batch into distributable work units.

The default unit is a whole pass — the granularity the engine already
schedules across local processes.  For passes whose *recorded* wall time
exceeds a threshold (path-explosion-heavy passes dominate hard suites),
the plan splits the discharge work into subgoal shards: every shard
re-runs the cheap, deterministic symbolic execution and discharges only
the obligations whose enumeration index lands in its stripe (see
:func:`repro.engine.driver.verify_pass_shard`).  Splitting never needs to
know the subgoal count up front — a shard that owns no obligations merges
as an empty contribution — so the plan is safe on passes it has never
seen.

Unit identity is deterministic (:func:`repro.engine.fingerprint.unit_fingerprint`):
the same pending pass at the same split always yields the same unit ids,
which is what makes results cacheable, mergeable, and idempotent under
work stealing.

Timings come from a small ``timings.json`` record in the cache directory,
updated by the coordinator after every run — so a suite's second cluster
run knows which passes deserved splitting even if their proofs were
evicted in between.  The shard count is auto-tuned from the same record:
a pass recorded at N times the threshold is cut into ~N shards (clamped
to :data:`MAX_SHARD_COUNT`), instead of the seed's fixed two-way split.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine.fingerprint import DEFAULT_SOLVER, unit_fingerprint
from repro.incremental.deps import identity_key
from repro.service.protocol import ProtocolError, make_pass_spec, resolve_pass_spec

_TIMINGS_FILE = "timings.json"

#: Default wall-time threshold (seconds) above which a pass is split.
DEFAULT_SHARD_THRESHOLD = 1.0

#: Default number of subgoal shards a split pass is cut into when no
#: recorded timing says otherwise.
DEFAULT_SHARD_COUNT = 2

#: Upper bound on auto-tuned shard counts: past this, per-shard symbolic
#: re-execution overhead dominates whatever discharge parallelism remains.
MAX_SHARD_COUNT = 8


def derive_shard_count(recorded: Optional[float],
                       threshold: float) -> int:
    """Shard count for one pass from its recorded wall time.

    The split should leave each shard roughly one threshold's worth of
    discharge work: a pass recorded at 3.2s against a 1.0s threshold cuts
    into 4 shards, not a fixed 2 — and never more than
    :data:`MAX_SHARD_COUNT` (each shard re-runs the symbolic execution).
    With no recorded time, or a non-positive threshold (force-split mode),
    there is no ratio to derive from and the default applies.
    """
    if recorded is None or threshold <= 0:
        return DEFAULT_SHARD_COUNT
    return max(DEFAULT_SHARD_COUNT,
               min(MAX_SHARD_COUNT, math.ceil(recorded / threshold)))


@dataclass
class WorkUnit:
    """One leasable unit of verification work.

    ``kind`` is ``"pass"`` (verify the whole pass) or ``"shard"``
    (discharge one subgoal stripe).  ``index`` is the position in the
    *pending* list the coordinator planned from; ``spec`` is the wire form
    (:func:`~repro.service.protocol.make_pass_spec`); ``key`` is the pass
    fingerprint (``None`` for uncacheable passes).
    """

    unit_id: str
    index: int
    kind: str
    spec: Dict[str, object]
    key: Optional[str]
    shard_index: int = 0
    shard_count: int = 1

    def to_wire(self, counterexample_search: bool,
                solver: str = DEFAULT_SOLVER) -> Dict[str, object]:
        return {
            "unit_id": self.unit_id,
            "kind": self.kind,
            "spec": self.spec,
            # The pass fingerprint travels so the worker can verify it
            # re-derives the same key locally (source-skew guard).
            "key": self.key,
            # The solver backend the run discharges with: the worker must
            # prove with the same backend (the key covers it, so a skewed
            # worker refuses the unit rather than poisoning the store).
            "solver": solver,
            "shard_index": self.shard_index,
            "shard_count": self.shard_count,
            # Shards never search (no shard sees the full failure set);
            # the coordinator re-proves whole when a counterexample is
            # wanted.
            "counterexample_search": counterexample_search and self.kind == "pass",
        }


@dataclass
class Plan:
    """The planned decomposition of one pending batch."""

    units: List[WorkUnit] = field(default_factory=list)
    #: Pending entries that cannot travel (inexpressible kwargs, classes
    #: outside the registry): ``(index, pass_class, pass_kwargs, key)``.
    local: List[Tuple] = field(default_factory=list)
    #: Pending indexes that were split, mapped to their shard count.
    split: Dict[int, int] = field(default_factory=dict)

    @property
    def split_passes(self) -> int:
        return len(self.split)


def _distributable_spec(pass_class, pass_kwargs, registry) -> Optional[Dict]:
    """The wire spec for one configuration, or ``None`` if it cannot travel.

    A spec is only usable if the worker's registry round-trips it to the
    *same* configuration: same class object, same canonical kwargs (the
    identity key captures both).  Anything else — custom classes, kwargs
    the protocol cannot express — is verified coordinator-side instead.
    """
    try:
        spec = make_pass_spec(pass_class, pass_kwargs)
        resolved_class, resolved_kwargs = resolve_pass_spec(spec, registry)
    except ProtocolError:
        return None
    if resolved_class is not pass_class:
        return None
    if identity_key(resolved_class, resolved_kwargs) != \
            identity_key(pass_class, pass_kwargs):
        return None
    return spec


def plan_units(
    pending: Sequence[Tuple],
    registry: Dict[str, type],
    *,
    timings: Optional[Dict[str, float]] = None,
    shard_threshold: Optional[float] = None,
    shard_count: Optional[int] = None,
) -> Plan:
    """Plan the unit decomposition of ``pending``.

    ``pending`` is the engine's resolution output:
    ``(index, pass_class, pass_kwargs, key)`` per entry (see
    :func:`repro.engine.driver.resolve_pending`).  ``timings`` maps
    identity keys to recorded wall seconds; a pass is split into subgoal
    shards when its recorded time is at least ``shard_threshold``.
    ``shard_count=None`` (the default) auto-tunes the split per pass from
    the recorded-time/threshold ratio (:func:`derive_shard_count`); an
    explicit count pins every split pass to that many shards.
    ``shard_threshold <= 0`` force-splits every distributable pass (used
    by tests and smoke runs to exercise the sharded path without waiting
    for a slow suite).
    """
    threshold = DEFAULT_SHARD_THRESHOLD if shard_threshold is None else float(shard_threshold)
    fixed_count = None if shard_count is None else max(2, int(shard_count))
    timings = timings or {}
    plan = Plan()
    seen_ids: set = set()

    def unique(unit_id: str, index: int) -> str:
        # The same configuration pending twice in one batch (rare, but the
        # engine allows it) must not collapse into one unit.
        if unit_id in seen_ids:
            unit_id = f"{unit_id}@{index}"
        seen_ids.add(unit_id)
        return unit_id

    for entry in pending:
        index, pass_class, pass_kwargs, key = entry
        spec = _distributable_spec(pass_class, pass_kwargs, registry)
        if spec is None:
            plan.local.append(entry)
            continue
        recorded = timings.get(identity_key(pass_class, pass_kwargs))
        split = threshold <= 0 or (recorded is not None and recorded >= threshold)
        # An uncacheable pass (key None) has no deterministic unit id to
        # merge shards under; keep it whole.
        if split and key is not None:
            count = fixed_count if fixed_count is not None \
                else derive_shard_count(recorded, threshold)
            plan.split[index] = count
            for shard in range(count):
                plan.units.append(WorkUnit(
                    unit_id=unique(unit_fingerprint(key, shard, count), index),
                    index=index,
                    kind="shard",
                    spec=spec,
                    key=key,
                    shard_index=shard,
                    shard_count=count,
                ))
        else:
            plan.units.append(WorkUnit(
                unit_id=unique(key if key is not None else f"uncacheable-{index}", index),
                index=index,
                kind="pass",
                spec=spec,
                key=key,
            ))
    return plan


# --------------------------------------------------------------------------- #
# Recorded timings
# --------------------------------------------------------------------------- #
def timings_path(cache_dir: os.PathLike) -> Path:
    return Path(cache_dir) / _TIMINGS_FILE


def load_timings(cache_dir: Optional[os.PathLike]) -> Dict[str, float]:
    """The recorded per-configuration wall times (identity key → seconds)."""
    if cache_dir is None:
        return {}
    try:
        with open(timings_path(cache_dir), "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        return {str(k): float(v) for k, v in payload.items()}
    except (OSError, ValueError, TypeError, AttributeError):
        return {}


def record_timings(cache_dir: Optional[os.PathLike],
                   updates: Dict[str, float]) -> None:
    """Merge freshly measured wall times into the record (last write wins)."""
    if cache_dir is None or not updates:
        return
    merged = load_timings(cache_dir)
    merged.update({str(k): round(float(v), 6) for k, v in updates.items()})
    path = timings_path(cache_dir)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(merged, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, path)
    except OSError:
        pass  # timings are an optimisation hint, never worth failing a run

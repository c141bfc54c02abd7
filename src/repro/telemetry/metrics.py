"""Counters registry and Prometheus text exposition.

A fuzz campaign counts its cases, checks, failures and shrink steps in one
:class:`CounterRegistry` and writes the totals beside its corpus as
``metrics.prom`` in the Prometheus text format (version 0.0.4): one
``# TYPE`` line per metric followed by ``name value``.

Counters are plain ints guarded by one lock — no allocation on the hot
path, and reading a snapshot never blocks writers for long.
"""

from __future__ import annotations

import threading
from typing import Dict, Mapping, Optional, Union

__all__ = [
    "CounterRegistry",
    "render_prometheus",
]

Number = Union[int, float]


class CounterRegistry:
    """A named bag of monotonically increasing counters."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._values: Dict[str, Number] = {}

    def inc(self, name: str, value: Number = 1) -> None:
        with self._lock:
            self._values[name] = self._values.get(name, 0) + value

    def merge(self, values: Mapping[str, Number]) -> None:
        """Fold another registry's counter snapshot into this one.

        Addition per name, under the lock — the fuzz campaign uses this to
        absorb the counter dicts its seed-range batches return, and the
        result is independent of merge order.
        """
        with self._lock:
            for name, value in values.items():
                self._values[name] = self._values.get(name, 0) + value

    def snapshot(self) -> Dict[str, Number]:
        """A sorted point-in-time copy of every counter."""
        with self._lock:
            return dict(sorted(self._values.items()))


def _format_value(value: Number) -> str:
    if isinstance(value, bool):  # bools are ints; keep them numeric
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def render_prometheus(values: Mapping[str, Number], *,
                      types: Optional[Mapping[str, str]] = None,
                      help_text: Optional[Mapping[str, str]] = None) -> str:
    """Render name→value pairs as Prometheus text exposition.

    ``types`` maps metric names to ``counter``/``gauge`` (metrics ending in
    ``_total`` default to ``counter``, everything else to ``gauge``).
    """
    types = types or {}
    help_text = help_text or {}
    lines = []
    for name in sorted(values):
        kind = types.get(name, "counter" if name.endswith("_total") else "gauge")
        text = help_text.get(name)
        if text:
            lines.append(f"# HELP {name} {text}")
        lines.append(f"# TYPE {name} {kind}")
        lines.append(f"{name} {_format_value(values[name])}")
    return "\n".join(lines) + "\n"

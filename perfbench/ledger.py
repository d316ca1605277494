"""Span ledger for the traced runs: wrappers, self time and the layer table.

The traced run patches the public functions and methods of ``src/repro``
at the site where their caller looks them up (a module global for a
function imported by name, the class attribute for a method), records
one span per call and restores every original afterwards. Nothing
inside ``src/repro`` is edited. Spans live in memory — name, start,
end, parent span and request id — and are written out when the run
ends.

The parent of a span is the span open in the *current context*
(``contextvars``), so each asyncio task keeps its own stack and
interleaved requests never nest into each other.
"""

from __future__ import annotations

import contextlib
import contextvars
import json
import pathlib
import time
from typing import Any, Callable, Dict, List, Optional

_CURRENT = contextvars.ContextVar("perfbench_span", default=-1)
REQUEST_ID = contextvars.ContextVar("perfbench_request", default=None)


class Ledger:
    """In-memory span list plus the patches that feed it."""

    def __init__(self) -> None:
        # Each span: [name, start_s, end_s, parent_index, request_id].
        self.spans: List[list] = []
        self.counts: Dict[str, float] = {}
        self._patches: List[tuple] = []
        # Beacon re-checks run in a drain task whose context belongs to
        # the first beacon of the batch; this maps the client being
        # re-checked to its own request span instead.
        self.client_owner: Dict[str, int] = {}

    # -- spans ---------------------------------------------------------
    def open(self, name: str, parent: Optional[int] = None) -> tuple:
        index = len(self.spans)
        if parent is None:
            parent = _CURRENT.get()
        self.spans.append(
            [name, time.perf_counter(), None, parent, REQUEST_ID.get()]
        )
        return index, _CURRENT.set(index)

    def close(self, handle: tuple) -> None:
        index, token = handle
        self.spans[index][2] = time.perf_counter()
        _CURRENT.reset(token)

    @contextlib.contextmanager
    def span(self, name: str, parent: Optional[int] = None):
        handle = self.open(name, parent)
        try:
            yield handle[0]
        finally:
            self.close(handle)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- patching ------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        on_result: Optional[Callable[["Ledger", Any], None]] = None,
        parent_of: Optional[Callable[[tuple], Optional[int]]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        original = raw.__func__ if is_classmethod else raw
        ledger = self

        def wrapper(*args, **kwargs):
            parent = parent_of(args) if parent_of is not None else None
            handle = ledger.open(name, parent)
            try:
                result = original(*args, **kwargs)
            finally:
                ledger.close(handle)
            if on_result is not None:
                on_result(ledger, result)
            return result

        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._patches.append((owner, attr, raw))

    def unwrap_all(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # -- analysis ------------------------------------------------------
    def self_times(self) -> Dict[str, Dict[str, float]]:
        """Per span name: call count, total and self seconds."""
        child_s = self.children_s()
        table: Dict[str, Dict[str, float]] = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_s[index]
        return table

    def children_s(self) -> List[float]:
        """Summed duration of each span's direct children."""
        child_s = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        return child_s

    def write(self, path: pathlib.Path, meta: Dict[str, Any]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "meta": meta,
            "fields": ["name", "start_s", "end_s", "parent", "request"],
            "spans": self.spans,
            "counts": self.counts,
        }
        path.write_text(json.dumps(payload, separators=(",", ":")))


def span_cost_s(calls: int = 20000) -> float:
    """Measured cost of one recorded span around a trivial call."""

    class Probe:
        def touch(self):
            return None

    probe = Probe()
    t0 = time.perf_counter()
    for _ in range(calls):
        probe.touch()
    bare = time.perf_counter() - t0
    ledger = Ledger()
    ledger.wrap(Probe, "touch", "probe")
    t0 = time.perf_counter()
    for _ in range(calls):
        probe.touch()
    wrapped = time.perf_counter() - t0
    ledger.unwrap_all()
    return max(0.0, wrapped - bare) / calls


def print_layer_table(title: str, table: Dict[str, Dict[str, float]], wall_s: float) -> None:
    """The human-readable ledger, ordered by self time."""
    print(f"layer ledger — {title} (traced time {wall_s:.3f} s)")
    print(f"  {'span':<34}{'calls':>9}{'self_s':>12}{'share':>8}")
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        share = 100.0 * row["self_s"] / wall_s if wall_s > 0 else 0.0
        print(f"  {name:<34}{row['calls']:>9}{row['self_s']:>12.4f}{share:>7.1f}%")

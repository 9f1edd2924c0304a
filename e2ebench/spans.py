"""In-memory span recording for the traced benchmark run.

A span is one timed interval at a layer boundary: its name, start, end, the
span that caused it (``parent``) and the row it belongs to.  Spans stay in
memory while the run executes and are written out once, when it ends.

Times are ``time.monotonic()`` seconds.  On Linux that is
``CLOCK_MONOTONIC``, one clock for every process on the host, so spans
recorded in a leg process line up with the spans its parent records.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

clock = time.monotonic


class SpanRecorder:
    """Collects spans as plain dicts; nesting follows the ``with`` blocks."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._open: List[int] = []

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[int],
        row: Optional[str] = None,
        **attrs: object,
    ) -> int:
        """Record a finished span and return its id."""
        span_id = len(self.spans)
        self.spans.append(
            dict(id=span_id, name=name, start=start, end=end, parent=parent, row=row, **attrs)
        )
        return span_id

    @contextmanager
    def span(self, name: str, row: Optional[str] = None, **attrs: object) -> Iterator[int]:
        """Time the ``with`` body as a child of the innermost open span."""
        parent = self._open[-1] if self._open else None
        span_id = self.add(name, clock(), 0.0, parent, row, **attrs)
        self._open.append(span_id)
        try:
            yield span_id
        finally:
            self._open.pop()
            self.spans[span_id]["end"] = clock()


def self_times(spans: List[dict]) -> Dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: Dict[int, List[dict]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    result: Dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span["start"]
        for child in sorted(children.get(span["id"], []), key=lambda c: c["start"]):
            lo = max(child["start"], cursor)
            hi = min(child["end"], span["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span["id"]] = (span["end"] - span["start"]) - covered
    return result


def totals_by_name(spans: List[dict]) -> Dict[str, Dict[str, float]]:
    """Busy (summed duration) and self time per span name."""
    own = self_times(spans)
    totals: Dict[str, Dict[str, float]] = {}
    for span in spans:
        entry = totals.setdefault(span["name"], {"busy_s": 0.0, "self_s": 0.0, "count": 0})
        entry["busy_s"] += span["end"] - span["start"]
        entry["self_s"] += own[span["id"]]
        entry["count"] += 1
    return totals


def graft(spans: List[dict], parent: int, into: SpanRecorder) -> None:
    """Re-number a leg process's spans into ``into``, rooted under ``parent``."""
    mapping: Dict[int, int] = {}
    for span in spans:
        fields = {k: v for k, v in span.items() if k not in ("id", "parent", "name", "start", "end", "row")}
        mapped_parent = parent if span["parent"] is None else mapping[span["parent"]]
        mapping[span["id"]] = into.add(
            span["name"], span["start"], span["end"], mapped_parent, span["row"], **fields
        )

"""Outside-in spans: time calls into each layer's public functions.

The benchmark owns the tracing; nothing under ``src/`` is edited.
:class:`SpanRecorder` replaces a public method on a live object with a
wrapper that records ``(name, start, end, parent)`` in memory; the pure
functions below turn the recorded list into per-layer self times, call
counts and a Chrome-trace file.  A layer's self time is its spans'
duration minus the part of each interval its child spans cover.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

__all__ = [
    "Span",
    "SpanRecorder",
    "self_times",
    "call_counts",
    "durations",
    "write_chrome_trace",
]


class Span(NamedTuple):
    name: str
    start: float
    end: float
    #: index of the enclosing span in the recorder's list, or None
    parent: Optional[int]


class SpanRecorder:
    """Records spans around wrapped callables (single-threaded)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.spans: List[Span] = []
        self._clock = clock
        self._open: List[int] = []
        self._undo: List[Tuple[Any, str, bool, Any]] = []

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        on_call: Optional[Callable[..., None]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``owner`` is a live object (the wrapper shadows the bound
        method in the instance dict) or a class (the wrapper replaces
        the function, for objects the program recreates, such as the
        flux register).  ``on_call(result, *args)`` sees every call's
        result, for counts only the return value carries.
        """
        had_own = attr in vars(owner)
        previous = vars(owner).get(attr)
        target = getattr(owner, attr)
        spans, open_, clock = self.spans, self._open, self._clock

        @functools.wraps(target)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            parent = open_[-1] if open_ else None
            spans.append(Span(name, 0.0, 0.0, parent))
            open_.append(index)
            start = clock()
            try:
                result = target(*args, **kwargs)
            finally:
                end = clock()
                open_.pop()
                spans[index] = Span(name, start, end, parent)
            if on_call is not None:
                on_call(result, *args)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, had_own, previous))

    def unwrap_all(self) -> None:
        """Restore every wrapped attribute (reverse order)."""
        while self._undo:
            owner, attr, had_own, previous = self._undo.pop()
            if had_own:
                setattr(owner, attr, previous)
            else:
                delattr(owner, attr)


def _covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    covered = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            covered += end - start
            reach = end
    return covered


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Per-name self time: each span's duration minus the part of its
    interval covered by its direct children."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out: Dict[str, float] = {}
    for index, span in enumerate(spans):
        own = (span.end - span.start) - _covered(
            children.get(index, []), span.start, span.end
        )
        out[span.name] = out.get(span.name, 0.0) + own
    return out


def call_counts(spans: Sequence[Span]) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for span in spans:
        out[span.name] = out.get(span.name, 0) + 1
    return out


def durations(spans: Sequence[Span], name: str) -> List[float]:
    return [s.end - s.start for s in spans if s.name == name]


def write_chrome_trace(spans: Sequence[Span], path: Path, *, process: str) -> None:
    """Write the spans as Chrome trace events (``chrome://tracing``,
    Perfetto): complete events in microseconds from the first span."""
    origin = min((s.start for s in spans), default=0.0)
    events: List[Dict[str, Any]] = [
        {"name": "process_name", "ph": "M", "pid": 0, "tid": 0,
         "args": {"name": process}},
    ]
    for index, span in enumerate(spans):
        events.append({
            "name": span.name,
            "cat": span.name.split(".")[0],
            "ph": "X",
            "pid": 0,
            "tid": 0,
            "ts": (span.start - origin) * 1e6,
            "dur": (span.end - span.start) * 1e6,
            "args": {"id": index, "parent": span.parent},
        })
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)

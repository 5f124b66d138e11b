"""In-memory span recorder, self-time analysis and Chrome trace export.

A span is one timed call at a layer boundary: its name, start and end
(``time.perf_counter_ns``, which is ``CLOCK_MONOTONIC`` on Linux and so
comparable across processes on one host), the span that caused it, the
thread it ran on and the request id it served (``None`` outside a
served request). Spans are kept in memory and written once, when the
traced process exits.

The analysis half (:func:`self_times`, :func:`covered_ns`) is pure: it
works on plain span records, so the self tests can check its
arithmetic on a synthetic tree.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


@dataclass
class Span:
    """One finished span. Times are integer nanoseconds."""

    id: int
    name: str
    start: int
    end: int
    parent: Optional[int]
    tid: int
    rid: Optional[str] = None

    @property
    def duration(self) -> int:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "id": self.id, "name": self.name, "start": self.start,
            "end": self.end, "parent": self.parent, "tid": self.tid,
            "rid": self.rid,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Span":
        return cls(**payload)


class Recorder:
    """Thread-safe span and counter store for one traced process.

    Each thread keeps its own stack of open spans, so a span's parent
    is the innermost open span on the same thread. A request id given
    to :meth:`open` is inherited by every span opened beneath it on
    that thread.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[str]:
        """Name of the innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1][1] if stack else None

    def open(self, name: str, rid: Optional[str] = None) -> list:
        """Push a span; returns the handle :meth:`close` takes."""
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = stack[-1] if stack else None
        if rid is None and parent is not None:
            rid = parent[4]
        handle = [span_id, name, time.perf_counter_ns(),
                  parent[0] if parent else None, rid]
        stack.append(handle)
        return handle

    def close(self, handle: list) -> None:
        end = time.perf_counter_ns()
        stack = self._stack()
        stack.pop()
        span_id, name, start, parent, rid = handle
        span = Span(span_id, name, start, end, parent,
                    threading.get_ident(), rid)
        with self._lock:
            self.spans.append(span)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def dump(self, path: str) -> None:
        with self._lock:
            payload = {
                "spans": [s.to_dict() for s in self.spans],
                "counters": dict(self.counters),
            }
        with open(path, "w") as handle:
            json.dump(payload, handle)


def load(path: str) -> Tuple[List[Span], Dict[str, float]]:
    with open(path) as handle:
        payload = json.load(handle)
    return (
        [Span.from_dict(s) for s in payload["spans"]],
        payload["counters"],
    )


def _union_ns(intervals: Iterable[Tuple[int, int]]) -> int:
    total, cur_start, cur_end = 0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[str, Tuple[int, int]]:
    """``name -> (calls, self ns)``.

    A span's self time is its duration minus the part of its interval
    that its child spans cover (children are clipped to the parent and
    overlapping children are counted once).
    """
    children: Dict[int, List[Tuple[int, int]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(
                (span.start, span.end)
            )
    out: Dict[str, Tuple[int, int]] = {}
    for span in spans:
        clipped = [
            (max(s, span.start), min(e, span.end))
            for s, e in children.get(span.id, ())
            if min(e, span.end) > max(s, span.start)
        ]
        own = span.duration - _union_ns(clipped)
        calls, total = out.get(span.name, (0, 0))
        out[span.name] = (calls + 1, total + own)
    return out


def covered_ns(
    spans: Sequence[Span], start: int, end: int, rid: Optional[str] = None
) -> int:
    """How much of ``[start, end]`` some span covers.

    With ``rid`` only that request's spans count, so a concurrent
    request's work never covers another request's wait.
    """
    return _union_ns(
        (max(s.start, start), min(s.end, end))
        for s in spans
        if (rid is None or s.rid == rid)
        and min(s.end, end) > max(s.start, start)
    )


def chrome_events(spans: Sequence[Span], pid: int, label: str) -> List[dict]:
    """Chrome trace-event (``ph: X``) records Perfetto can open."""
    events = [{
        "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
        "args": {"name": label},
    }]
    for span in spans:
        args = {"id": span.id, "parent": span.parent}
        if span.rid is not None:
            args["request_id"] = span.rid
        events.append({
            "name": span.name, "cat": span.name.split(".", 1)[0],
            "ph": "X", "ts": span.start / 1e3, "dur": span.duration / 1e3,
            "pid": pid, "tid": span.tid, "args": args,
        })
    return events

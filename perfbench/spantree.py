"""Spans recorded from the benchmark's side of each layer boundary.

The traced run wraps calls into the public functions of each ``repro``
layer (explicit ``with recorder.span(...)`` blocks around direct calls,
or :meth:`SpanRecorder.wrap` around functions the service calls
internally).  Spans stay in memory and are written out once, at the end
of the run.  A span name is ``<layer>.<call>``; the layer is the part
before the first dot.
"""

from __future__ import annotations

import contextlib
import functools
import time
from typing import Callable, Dict, Iterator, List, Optional


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class SpanRecorder:
    """An in-memory span stack for one single-threaded process.

    Every span carries the id of the operation it belongs to (a trial or
    a request), its own id, its parent's id, a name and start/end times
    from ``clock``.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[dict] = []
        self.active = True
        self._stack: List[int] = []
        self._next_id = 0
        self._op: Optional[str] = None
        self._restores: List[Callable[[], None]] = []

    def begin_op(self, op_id: str) -> None:
        self._op = op_id

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.active:
            yield
            return
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans.append(
                {
                    "op": self._op,
                    "id": span_id,
                    "parent": parent,
                    "name": name,
                    "start": start,
                    "end": end,
                }
            )

    def wrap(self, owner: object, attribute: str, name: str) -> None:
        """Replace ``owner.attribute`` by a spanned call until :meth:`unwrap`."""
        original = getattr(owner, attribute)
        recorder = self

        @functools.wraps(original)
        def spanned(*args, **kwargs):
            with recorder.span(name):
                return original(*args, **kwargs)

        setattr(owner, attribute, spanned)
        self._restores.append(lambda: setattr(owner, attribute, original))

    def unwrap(self) -> None:
        while self._restores:
            self._restores.pop()()


def _covered(intervals: List[tuple], start: float, end: float) -> float:
    """Length of the union of *intervals*, clipped to ``[start, end]``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: List[dict]) -> Dict[str, float]:
    """Self time per span name: each span's duration minus the part of
    its interval that its child spans cover, summed over all spans."""
    children: Dict[tuple, List[tuple]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault((span["op"], span["parent"]), []).append(
                (span["start"], span["end"])
            )
    totals: Dict[str, float] = {}
    for span in spans:
        own = span["end"] - span["start"] - _covered(
            children.get((span["op"], span["id"]), []), span["start"], span["end"]
        )
        totals[span["name"]] = totals.get(span["name"], 0.0) + own
    return totals


def layer_self_times(spans: List[dict]) -> Dict[str, float]:
    """:func:`self_times` summed per layer."""
    totals: Dict[str, float] = {}
    for name, seconds in self_times(spans).items():
        layer = layer_of(name)
        totals[layer] = totals.get(layer, 0.0) + seconds
    return totals


def durations(spans: List[dict], name: str) -> List[float]:
    """Wall durations of every span called *name*, in record order."""
    return [span["end"] - span["start"] for span in spans if span["name"] == name]

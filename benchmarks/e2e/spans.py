"""In-memory span tracing around public calls, from outside the program.

The benchmark never edits the code it measures.  A :class:`Tracer`
instead replaces a public method on an object (or class) with a wrapper
that records one span per call: name, start, end, the enclosing span and
the benchmark operation (tick, call or fit) it belongs to.  Spans stay
in memory and are written as JSON lines once the run ends.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover.  Calls are synchronous and
single-threaded, so children never overlap and the covered part is the
sum of their durations; self times of a root span and all its
descendants add up exactly to the root's duration.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

_MISSING = object()


class Tracer:
    """Records nested spans of wrapped calls; see the module docstring."""

    def __init__(self) -> None:
        #: One ``[name, start, end, parent, op]`` list per span, in start order.
        self.spans: list[list] = []
        #: Per span name, the summed ``count(args)`` of :meth:`wrap` calls given one.
        self.counts: dict[str, int] = defaultdict(int)
        self.op: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Record one span around a block of benchmark code."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, owner: object, attr: str, name: str, count=None) -> None:
        """Trace every call of ``owner.attr`` (an instance or a class method).

        ``count``, if given, maps the call's positional arguments to a
        number summed into :attr:`counts` (e.g. rows per forward).
        """
        original = getattr(owner, attr)
        own = vars(owner).get(attr, _MISSING)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if count is not None:
                tracer.counts[name] += count(args)
            index = tracer._open(name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer._close(index)

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, own))

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        for owner, attr, own in reversed(self._patches):
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)
        self._patches.clear()

    # ------------------------------------------------------------------
    def self_times(self) -> np.ndarray:
        """Self time (s) of every span, aligned with :attr:`spans`."""
        durations = np.array([end - start for _, start, end, _, _ in self.spans])
        covered = np.zeros(len(self.spans))
        for index, (_, _, _, parent, _) in enumerate(self.spans):
            if parent >= 0:
                covered[parent] += durations[index]
        return durations - covered

    def by_name(self) -> dict[str, dict[str, np.ndarray]]:
        """Per span name: ``duration`` and ``self`` arrays (seconds)."""
        selfs = self.self_times()
        grouped: dict[str, dict[str, list]] = defaultdict(lambda: {"duration": [], "self": []})
        for (name, start, end, _, _), self_s in zip(self.spans, selfs):
            grouped[name]["duration"].append(end - start)
            grouped[name]["self"].append(self_s)
        return {
            name: {key: np.asarray(values) for key, values in entry.items()}
            for name, entry in grouped.items()
        }

    def layer_self_seconds(self) -> dict[str, float]:
        """Total self time per layer (a span name minus its last component)."""
        totals: dict[str, float] = defaultdict(float)
        for (name, *_), self_s in zip(self.spans, self.self_times()):
            totals[name.rsplit(".", 1)[0]] += float(self_s)
        return dict(totals)

    def write_jsonl(self, path: Path) -> None:
        """Write one JSON object per span, times in microseconds from the first."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        with path.open("w", encoding="utf-8") as stream:
            stream.writelines(
                f'{{"id": {index}, "name": {json.dumps(name)}, '
                f'"start_us": {(start - origin) * 1e6:.3f}, "end_us": {(end - origin) * 1e6:.3f}, '
                f'"parent": {parent}, "op": {json.dumps(op)}}}\n'
                for index, (name, start, end, parent, op) in enumerate(self.spans)
            )

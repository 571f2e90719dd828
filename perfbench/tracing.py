"""Spans around calls into ipuq, recorded from outside the package.

:class:`Tracer` replaces a public function with a timing wrapper in the
module that looks it up (``ipuq.campaign.score_payload``, not
``ipuq.scores``), so only calls made through that name are traced.  Spans
stay in memory as ``(id, name, start, end, parent, cell)`` tuples; the
parent is the innermost open span on the same thread, and ``cell`` is the
campaign cell whose elicitation last started on that thread.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None, str | None]] = []
        self.counts: Counter[str] = Counter()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object | None]] = []

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(value)

    def wrap(self, fn, name: str, *, before=None, on_return=None, on_raise=None, cell=None):
        """``fn`` timed as span ``name``.

        ``before(args, kwargs)`` runs just ahead of the span; ``on_return``
        and ``on_raise`` get the result or exception first.  ``cell(args,
        kwargs)`` names the campaign cell this call starts.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = tracer._local
            stack = local.__dict__.setdefault("stack", [])
            if cell is not None:
                local.cell = cell(args, kwargs)
            if before is not None:
                before(args, kwargs)
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                end = time.perf_counter()
                if on_raise is not None:
                    on_raise(exc, args, kwargs)
                raise
            else:
                end = time.perf_counter()
                if on_return is not None:
                    on_return(result, args, kwargs)
                return result
            finally:
                stack.pop()
                tracer.spans.append(
                    (span_id, name, start, end, parent, getattr(local, "cell", None))
                )

        return traced

    def patch(self, owner, attr: str, name: str, **hooks) -> None:
        original = self._remember(owner, attr)
        setattr(owner, attr, self.wrap(original, name, **hooks))

    def count_calls(self, owner, attr: str, counter: str) -> None:
        """Count calls without a span, so the caller's self time keeps them."""
        original = self._remember(owner, attr)

        @functools.wraps(original)
        def counted(*args, **kwargs):
            self.count(counter)
            return original(*args, **kwargs)

        setattr(owner, attr, counted)

    def _remember(self, owner, attr: str):
        # A method looked up on an instance lives on its class: undo by
        # deleting the instance attribute, not by pinning the bound method.
        self._undo.append((owner, attr, vars(owner).get(attr)))
        return getattr(owner, attr)

    @contextmanager
    def patches(self):
        """Yield for patching; every patch made inside is undone on exit."""
        try:
            yield self
        finally:
            while self._undo:
                owner, attr, original = self._undo.pop()
                if original is None:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)

    def by_name(self) -> dict[str, tuple[list[float], float]]:
        """Per span name: every duration, and the summed self time (seconds).

        Self time is a span's duration minus the part of it that its child
        spans cover.
        """
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out: dict[str, tuple[list[float], float]] = {}
        for span_id, name, start, end, _, _ in self.spans:
            durations, self_s = out.get(name, ([], 0.0))
            durations.append(end - start)
            own = (end - start) - _covered(start, end, children[span_id])
            out[name] = (durations, self_s + own)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, cell in self.spans:
                fh.write(json.dumps([span_id, name, start, end, parent, cell]) + "\n")


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total

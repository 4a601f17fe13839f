"""In-memory spans for the traced benchmark run.

A :class:`Tracer` wraps library functions from the outside: each
wrapped call records one :class:`Span` (name, start, end, parent span,
operation id) on the calling thread's stack.  Spans stay in memory and
are written once, at exit, as Chrome trace-event JSON (load the file
in ``chrome://tracing`` or Perfetto).

A span's *self time* is its duration minus the part of that interval
its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping

#: ``counter(args, kwargs, result) -> {counter name: amount}``, run
#: after a wrapped call returns.
CounterFn = Callable[[tuple, dict, Any], Mapping[str, float]]


@dataclass(frozen=True, slots=True)
class Span:
    """One timed call at a layer boundary (perf_counter seconds)."""

    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    op_id: str | None
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals.

    Child intervals are clipped to the parent's and overlapping
    children are counted once, so self time is never negative.
    """
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out: dict[int, float] = {}
    for span in spans:
        covered = 0.0
        run_start = run_end = None
        for start, end in sorted(children.get(span.span_id, ())):
            start, end = max(start, span.start), min(end, span.end)
            if end <= start:
                continue
            if run_end is None or start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = start, end
            else:
                run_end = max(run_end, end)
        if run_end is not None:
            covered += run_end - run_start
        out[span.span_id] = span.duration - covered
    return out


def _library_modules() -> list:
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and name.startswith(("repro", "benchmarks"))
    ]


class _OpenSpan:
    __slots__ = ("span_id", "name", "start", "parent", "op_id")

    def __init__(self, span_id, name, start, parent, op_id):
        self.span_id = span_id
        self.name = name
        self.start = start
        self.parent = parent
        self.op_id = op_id


class Tracer:
    """Records spans and counters around wrapped library calls.

    :meth:`wrap_method` and :meth:`wrap_function` patch the library in
    place; :meth:`uninstall` restores every original.  A wrapped call nested
    directly inside a span of the same name records nothing (so
    ``predict`` calling ``predict_proba`` counts its rows once).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.spans: list[Span] = []
        self.counters: Counter[str] = Counter()
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []
        self._functions: list[tuple[str, Callable, Callable]] = []

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list[_OpenSpan]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, op_id: str | None = None) -> _OpenSpan:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        if op_id is None:
            # A root span starts its own operation; children inherit it.
            op_id = parent.op_id if parent is not None else f"{name}-{span_id}"
        span = _OpenSpan(
            span_id,
            name,
            self._clock(),
            parent.span_id if parent is not None else None,
            op_id,
        )
        stack.append(span)
        return span

    def _close(self, span: _OpenSpan) -> None:
        end = self._clock()
        self._stack().pop()
        record = Span(
            span.span_id,
            span.name,
            span.start,
            end,
            span.parent,
            span.op_id,
            threading.get_ident(),
        )
        with self._lock:
            self.spans.append(record)

    @contextmanager
    def operation(self, name: str, op_id: str) -> Iterator[None]:
        """A root span; every span opened inside it shares ``op_id``."""
        span = self._open(name, op_id)
        try:
            yield
        finally:
            self._close(span)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    # -- patching -----------------------------------------------------------

    def _wrapper(
        self, fn: Callable, name: str, counter: CounterFn | None
    ) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack and stack[-1].name == name:
                return fn(*args, **kwargs)
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if counter is not None:
                for key, amount in counter(args, kwargs, result).items():
                    tracer.count(key, amount)
            return result

        return traced

    def wrap_method(
        self,
        cls: type,
        attr: str,
        name: str,
        counter: CounterFn | None = None,
    ) -> None:
        """Wrap ``cls.attr`` (defined on ``cls`` itself) as span ``name``."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            patched: object = classmethod(self._wrapper(raw.__func__, name, counter))
        elif isinstance(raw, staticmethod):
            patched = staticmethod(self._wrapper(raw.__func__, name, counter))
        else:
            patched = self._wrapper(raw, name, counter)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, patched)

    def wrap_function(
        self,
        module: str,
        attr: str,
        name: str,
        counter: CounterFn | None = None,
    ) -> None:
        """Wrap ``module.attr`` in every loaded module that imported it.

        Functions imported by name (``from m import f``) are bound in
        each importer, so each binding of the same object is patched.
        """
        original = getattr(sys.modules[module], attr)
        patched = self._wrapper(original, name, counter)
        self._functions.append((attr, patched, original))
        for mod in _library_modules():
            if getattr(mod, attr, None) is original:
                self._patches.append((mod, attr, original))
                setattr(mod, attr, patched)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first.

        A module imported while the wrappers were installed bound the
        wrapper itself; those bindings are restored too.
        """
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        for mod in _library_modules():
            for attr, patched, original in self._functions:
                if getattr(mod, attr, None) is patched:
                    setattr(mod, attr, original)
        self._functions.clear()

    # -- results ------------------------------------------------------------

    def by_name(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, total self seconds)."""
        selfs = self_times(self.spans)
        calls: Counter[str] = Counter()
        seconds: dict[str, float] = defaultdict(float)
        for span in self.spans:
            calls[span.name] += 1
            seconds[span.name] += selfs[span.span_id]
        return {name: (calls[name], seconds[name]) for name in calls}

    def chrome_trace(self) -> dict[str, object]:
        """Spans as Chrome trace-event JSON (complete ``X`` events, µs)."""
        origin = min((span.start for span in self.spans), default=0.0)
        pid = os.getpid()
        events = [
            {
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "ph": "X",
                "ts": (span.start - origin) * 1e6,
                "dur": span.duration * 1e6,
                "pid": pid,
                "tid": span.thread,
                "args": {
                    "span_id": span.span_id,
                    "parent": span.parent,
                    "op_id": span.op_id,
                },
            }
            for span in sorted(self.spans, key=lambda s: s.start)
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.chrome_trace()), encoding="utf-8")

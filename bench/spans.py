"""Spans recorded from outside the program, by wrapping its entry points.

A span is (name, parent, start_ns, end_ns, note). Spans live in memory in
call order; the index in ``Tracer.spans`` is the span id, and a parent of -1
marks a root. ``note`` carries what the wrapper learnt at the boundary: the
exception type a call raised, or a byte count.

Entry points are named as their callers see them, e.g.
``officelab.pipeline.fuse_run`` (pipeline's own binding of the name) or
``officelab.fusion.LikelihoodModel.tick_likelihood``. A path segment may also
be a key of a dict, as in ``officelab.pipeline.STAGES.fuse``. A name that no
longer resolves is reported as absent; it is not an error.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable

NAME, PARENT, START, END, NOTE = range(5)


@dataclass(frozen=True)
class EntryPoint:
    target: str  # dotted path as the caller sees it
    span: str  # span name; several targets may share one
    note: Callable[[tuple, dict, Any], Any] | None = None  # called after a successful return


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        rec = [name, self._stack[-1] if self._stack else -1, time.perf_counter_ns(), 0, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def wrap(self, point: EntryPoint, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(point.span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[NOTE] = type(exc).__name__
                raise
            finally:
                self._close(rec)
            if point.note is not None:
                rec[NOTE] = point.note(args, kwargs, result)
            return result

        return traced


def _resolve(target: str) -> tuple[Any, str] | None:
    """(owner, last segment) for a dotted target, or None if it is gone."""
    parts = target.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:-1]:
            if isinstance(owner, dict):
                if part not in owner:
                    return None
                owner = owner[part]
            elif hasattr(owner, part):
                owner = getattr(owner, part)
            else:
                return None
        last = parts[-1]
        present = last in owner if isinstance(owner, dict) else hasattr(owner, last)
        return (owner, last) if present else None
    return None


@contextmanager
def patched(tracer: Tracer, points: list[EntryPoint]):
    """Wrap every resolvable entry point for the duration; yields the absent targets."""
    undo: list[tuple[Any, str, Any]] = []
    absent: list[str] = []
    try:
        for point in points:
            found = _resolve(point.target)
            if found is None:
                absent.append(point.target)
                continue
            owner, last = found
            if isinstance(owner, dict):
                original = owner[last]
                owner[last] = tracer.wrap(point, original)
            else:
                original = inspect.getattr_static(owner, last)
                if isinstance(original, staticmethod):
                    setattr(owner, last, staticmethod(tracer.wrap(point, original.__func__)))
                else:
                    setattr(owner, last, tracer.wrap(point, getattr(owner, last)))
            undo.append((owner, last, original))
        yield absent
    finally:
        for owner, last, original in reversed(undo):
            if isinstance(owner, dict):
                owner[last] = original
            else:
                setattr(owner, last, original)


def covered_ns(start: int, end: int, intervals: list[tuple[int, int]]) -> int:
    """Length of the part of [start, end) that the union of intervals covers."""
    total = 0
    cursor = start
    for s, e in sorted(intervals):
        s, e = max(s, cursor), min(e, end)
        if e > s:
            total += e - s
            cursor = e
    return total


def self_times_ns(spans: list[list]) -> list[int]:
    """Per span: its duration minus the time its children cover."""
    children: list[list[tuple[int, int]]] = [[] for _ in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            children[rec[PARENT]].append((rec[START], rec[END]))
    return [
        (rec[END] - rec[START]) - covered_ns(rec[START], rec[END], kids)
        for rec, kids in zip(spans, children)
    ]


class SpanIndex:
    """Aggregates over one list of spans, by span name."""

    def __init__(self, spans: list[list]) -> None:
        self.spans = spans
        self.self_ns = self_times_ns(spans)
        self._by_name: dict[str, list[int]] = {}
        for i, rec in enumerate(spans):
            self._by_name.setdefault(rec[NAME], []).append(i)

    def _outermost(self, name: str) -> list[int]:
        """Spans named ``name`` with no ancestor of the same name (no double counting)."""
        out = []
        for i in self._by_name.get(name, []):
            p = self.spans[i][PARENT]
            while p >= 0 and self.spans[p][NAME] != name:
                p = self.spans[p][PARENT]
            if p < 0:
                out.append(i)
        return out

    def names(self) -> list[str]:
        return list(self._by_name)

    def count(self, name: str) -> int:
        return len(self._by_name.get(name, []))

    def total_s(self, name: str) -> float:
        return sum(self.spans[i][END] - self.spans[i][START] for i in self._outermost(name)) / 1e9

    def self_s(self, name: str) -> float:
        return sum(self.self_ns[i] for i in self._by_name.get(name, [])) / 1e9

    def notes(self, name: str) -> list:
        return [self.spans[i][NOTE] for i in self._by_name.get(name, [])]


def write_spans_csv(spans: list[list], path) -> None:
    with open(path, "w") as fh:
        fh.write("id,parent,name,start_ns,end_ns,note\n")
        for i, rec in enumerate(spans):
            note = "" if rec[NOTE] is None else rec[NOTE]
            fh.write(f"{i},{rec[PARENT]},{rec[NAME]},{rec[START]},{rec[END]},{note}\n")

"""In-memory span recording around the public functions of torusvar.

A `Tracer` replaces a function by a recording wrapper everywhere its callers
look it up: in every loaded ``torusvar.*`` module namespace that holds the
same object (``from .geometry import helmholtz_solve`` makes a second
reference), or on the class for methods such as ``FlatTorus.distance_field``.
Each call becomes one `Span` (name, start, end, parent, op id, extra facts);
spans stay in memory until the run ends.  `restore` puts every original back.

`self_times` is the reporter's arithmetic: a span's self time is its
duration minus the part of that interval its children cover, where children
may overlap each other (calls made from pool threads).
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: Optional[int]
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of `intervals` clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo))
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span: its duration minus the union of its children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.duration - covered_length(children.get(s.id, []), s.start, s.end)
            for s in spans}


class Tracer:
    """Records spans for wrapped callables; one instance per traced pass."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.op: Optional[int] = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._root: Optional[int] = None  # parent for spans opened on pool threads
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             describe: Optional[Callable] = None):
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        span_id = next(self._ids)
        is_root = parent is None
        if is_root:
            self._root = span_id
        stack.append(span_id)
        start = self.clock()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = self.clock()
            stack.pop()
            if is_root:
                self._root = None
            info = describe(args, kwargs, result) if describe is not None else {}
            self.spans.append(Span(span_id, name, start, end, parent, self.op, info))

    def wrap(self, name: str, fn: Callable, describe: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, describe)
        return traced

    def patch_function(self, module_name: str, attr: str, name: str,
                       describe: Optional[Callable] = None) -> None:
        """Replace module_name.attr in every torusvar namespace that holds it."""
        original = getattr(sys.modules[module_name], attr)
        wrapper = self.wrap(name, original, describe)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "torusvar" and not mod_name.startswith("torusvar."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, value))
                    setattr(module, key, wrapper)

    def patch_method(self, cls: type, attr: str, name: str,
                     describe: Optional[Callable] = None) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, describe))

    def restore(self) -> None:
        while self._patches:
            owner, key, value = self._patches.pop()
            setattr(owner, key, value)

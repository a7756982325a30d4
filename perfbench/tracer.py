"""Span tracing around functions, installed at run time from outside a package.

A span is one call of a wrapped function: its name, the span that was open
when it started (its parent), and its start and end times.  Spans are kept
in memory as flat lists and reduced to per-name totals when the run ends.
The self time of a span is its duration minus the durations of its direct
children; calls are nested and single-threaded, so the children never
overlap.

`install` replaces a function by its wrapper under every name any module of
the package binds it to, so a re-import such as ``from .quantum import
gram`` inside another module is traced as well.
"""

from __future__ import annotations

import functools
import math
import time
from collections import Counter, defaultdict
from types import ModuleType
from typing import Callable, Iterable

# span fields, stored as lists for speed: [parent, name, start, end]
_PARENT, _NAME, _START, _END = range(4)


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.keys: defaultdict[str, set] = defaultdict(set)
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([parent, name, self.clock(), None])
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][_END] = self.clock()
        popped = self._stack.pop()
        if popped != sid:
            raise RuntimeError(f"span {sid} closed while span {popped} was open")

    def root(self) -> int | None:
        """The outermost open span: the operation the current call belongs to."""
        return self._stack[0] if self._stack else None

    def add(self, key: str, n: float = 1) -> None:
        self.counts[key] += n

    def self_times(self) -> dict[str, float]:
        return self_times(self.spans)

    def totals(self) -> dict[str, float]:
        """Inclusive duration per span name."""
        out: defaultdict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span[_NAME]] += span[_END] - span[_START]
        return dict(out)

    def calls(self) -> Counter:
        return Counter(span[_NAME] for span in self.spans)


def self_times(spans: Iterable[list]) -> dict[str, float]:
    """Per span name: the sum of each span's duration minus its children's."""
    spans = list(spans)
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[_END] is None:
            raise ValueError(f"span {span[_NAME]!r} was never closed")
        if span[_PARENT] is not None:
            child_time[span[_PARENT]] += span[_END] - span[_START]
    out: defaultdict[str, float] = defaultdict(float)
    for sid, span in enumerate(spans):
        out[span[_NAME]] += span[_END] - span[_START] - child_time[sid]
    return dict(out)


Observer = Callable[[Tracer, tuple, dict, object], None]


def wrap(tracer: Tracer, fn: Callable, name: str, observe: Observer | None = None) -> Callable:
    """`fn` inside a span called `name`; `observe` sees arguments and result.

    An exception closes the span, is counted as ``<name>.raised.<type>`` and
    propagates unchanged.
    """

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            tracer.end(sid)
            tracer.add(f"{name}.raised.{type(exc).__name__}")
            raise
        tracer.end(sid)
        if observe is not None:
            observe(tracer, args, kwargs, result)
        return result

    traced.__perfbench_original__ = fn
    return traced


def install(
    tracer: Tracer,
    modules: Iterable[ModuleType],
    targets: Iterable[tuple[Callable, str, Observer | None]],
) -> Callable[[], None]:
    """Wrap each target function wherever one of `modules` binds it.

    Module globals and class attributes (static methods included) are both
    searched.  Returns a function that puts every original back.
    """
    modules = list(modules)
    undo: list[tuple[object, str, object]] = []
    for fn, name, observe in targets:
        wrapper = wrap(tracer, fn, name, observe)
        bound = 0
        for module in modules:
            classes = [v for v in vars(module).values() if isinstance(v, type) and v.__module__ == module.__name__]
            for owner in [module, *classes]:
                for key, value in list(vars(owner).items()):
                    if value is fn:
                        replacement = wrapper
                    elif isinstance(value, staticmethod) and value.__func__ is fn:
                        replacement = staticmethod(wrapper)
                    else:
                        continue
                    undo.append((owner, key, value))
                    setattr(owner, key, replacement)
                    bound += 1
        if not bound:
            raise LookupError(f"{name}: {fn!r} is bound in none of the given modules")

    def restore() -> None:
        for owner, key, value in reversed(undo):
            setattr(owner, key, value)

    return restore


TAIL_LADDER = (99.9, 99.0, 90.0, 75.0, 50.0)


def nearest_rank(n: int, percentile: float) -> int:
    """1-based rank of the percentile in n sorted samples (nearest-rank)."""
    # rounding first keeps 99.9% of 1000 at rank 999, not 1000
    return max(1, math.ceil(round(n * percentile / 100, 9)))


def tail(samples: Iterable[float], min_beyond: int = 10) -> tuple[float, float, int]:
    """Value at the highest ladder percentile with `min_beyond` samples above it.

    Returns (value, percentile, samples beyond).  With too few samples for
    any rung, the median rung is used and the short count is reported.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if not n:
        raise ValueError("no samples")
    for percentile in TAIL_LADDER:
        rank = nearest_rank(n, percentile)
        if n - rank >= min_beyond:
            return ordered[rank - 1], percentile, n - rank
    rank = nearest_rank(n, 50.0)
    return ordered[rank - 1], 50.0, n - rank

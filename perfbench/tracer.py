"""Span tracing from outside the library.

The tracer replaces each public function of the traced modules, and every
name it is re-bound to in the other traced namespaces, with a timing
wrapper; `restore()` puts every original object back. Spans stay in
memory as [name, start, end, parent, channel, points] lists and are
written out once, at the end of a run.
"""

from __future__ import annotations

import functools
import inspect
import json
from time import perf_counter

import numpy as np

# span fields
NAME, START, END, PARENT, CHANNEL, POINTS = range(6)


def _points_in(args, kwargs) -> int:
    """Size of the point cloud handed to from_pareto_points."""
    pts = kwargs["points"] if "points" in kwargs else args[0]
    return int(np.size(pts)) // 2


# per-span counters recorded at the call boundary, keyed by function name
_COUNTERS = {"from_pareto_points": _points_in}


class Tracer:
    """Wraps the public functions of `modules` (and `methods`, as
    (class, name, span name) triples) while installed.

    `aliases` are extra namespaces (such as the package itself) whose
    re-bound names are wrapped too. Spans carry the id in `channel`, which
    the caller sets before each channel.
    """

    def __init__(self, modules, methods=(), aliases=()):
        self.modules = tuple(modules)
        self.methods = tuple(methods)
        self.aliases = tuple(aliases)
        self.spans: list = []
        self.channel = -1
        self._stack: list = []
        self._saved: list = []

    def _wrap(self, span_name: str, fn):
        counter = _COUNTERS.get(fn.__name__)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [span_name, 0.0, 0.0, stack[-1] if stack else -1,
                    self.channel,
                    counter(args, kwargs) if counter is not None else 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for mod in self.modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{name}", obj)
        for ns in self.modules + self.aliases:
            for name, obj in list(vars(ns).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._saved.append((ns, name, obj))
                    setattr(ns, name, wrappers[id(obj)])
        for cls, name, span_name in self.methods:
            obj = cls.__dict__[name]
            self._saved.append((cls, name, obj))
            setattr(cls, name, self._wrap(span_name, obj))

    def restore(self) -> None:
        while self._saved:
            owner, name, obj = self._saved.pop()
            setattr(owner, name, obj)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def dump(self, path) -> None:
        names = sorted({s[NAME] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "channel",
                                  "points"],
                       "names": names,
                       "spans": [[index[s[NAME]]] + s[1:] for s in self.spans]},
                      fh)


def self_times(spans) -> list:
    """Per-span self time: duration minus the part of it child spans cover."""
    children: dict = {}
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append(i)
    out = []
    for i, s in enumerate(spans):
        lo, hi = s[START], s[END]
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children.get(i, ()), key=lambda c: spans[c][START]):
            a, b = max(spans[c][START], lo), min(spans[c][END], hi)
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((hi - lo) - covered)
    return out


def summarize(spans) -> dict:
    """Totals per span name: calls, self seconds, and counted points."""
    out: dict = {}
    for s, self_s in zip(spans, self_times(spans)):
        row = out.setdefault(s[NAME], {"calls": 0, "self_s": 0.0, "points": 0})
        row["calls"] += 1
        row["self_s"] += self_s
        row["points"] += s[POINTS]
    return out


def child_points(spans, parent_name: str, child_name: str) -> tuple[int, int]:
    """(points handed to `child_name` directly by `parent_name` spans,
    number of `parent_name` spans)."""
    parents = {i for i, s in enumerate(spans) if s[NAME] == parent_name}
    pts = sum(s[POINTS] for s in spans
              if s[NAME] == child_name and s[PARENT] in parents)
    return pts, len(parents)

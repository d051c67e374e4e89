"""Spans around the public functions of latentperf, recorded from outside.

The tracer wraps every public function defined in the traced modules and
replaces each module attribute that refers to one of them, so a call is
seen wherever its caller looks the name up: ``cli`` imports
``fit_with_restarts`` by name, ``estimator.fit`` reaches ``simulate_all``
through its own globals, and so on.  Nothing inside the package changes;
the patches are undone when the ``traced`` block exits.

Spans stay in memory.  Each holds its name, start, end, the index of the
span that caused it, and a few counts taken at the same boundary.
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from contextlib import contextmanager
from dataclasses import dataclass, field

MODULES = ("cli", "dataio", "estimator", "model", "scenarios", "reporting")

# A fit counts as still descending when its loss fell by more than this
# share over its last tenth of steps.
DESCENDING_REL_DROP = 1e-3


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _fit_attrs(attrs, args, kwargs, result):
    trace = getattr(result, "loss_trace", None)
    if trace is None:
        return
    steps = len(trace) - 1
    attrs["steps"] = steps
    k = max(1, steps // 10)
    if steps >= 1:
        before, after = float(trace[-1 - k]), float(trace[-1])
        attrs["still_descending"] = before - after > DESCENDING_REL_DROP * abs(before)


def _raw_log_attrs(attrs, args, kwargs, result):
    attrs["rows"] = sum(len(log.records) for log in result[2])


def _write_curves_attrs(attrs, args, kwargs, result):
    matrices = args[2] if len(args) > 2 else kwargs.get("matrices", ())
    if isinstance(matrices, (list, tuple)):
        attrs["rows"] = sum(int(m.mask.sum()) for m in matrices)


# Counts recorded when a call returns, keyed by span name.
RESULT_HOOKS = {
    "estimator.fit": _fit_attrs,
    "dataio.parse_raw_log": _raw_log_attrs,
    "dataio.write_curves": _write_curves_attrs,
}


class Tracer:
    """Collects spans for one traced command."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        hook = RESULT_HOOKS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, parent=stack[-1] if stack else None)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = time.perf_counter()
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                stack.pop()
            span.end = time.perf_counter()
            if hook is not None:
                hook(span.attrs, args, kwargs, result)
            return result

        return wrapper


def public_functions(package: str = "latentperf") -> dict:
    """Map each public function of the traced modules to its span name."""
    out = {}
    for short in MODULES:
        mod = importlib.import_module(f"{package}.{short}")
        for attr, obj in vars(mod).items():
            if (
                not attr.startswith("_")
                and isinstance(obj, types.FunctionType)
                and obj.__module__ == mod.__name__
            ):
                out[obj] = f"{short}.{attr}"
    return out


@contextmanager
def traced(tracer: Tracer, package: str = "latentperf"):
    """Route every module-level reference to a public function through
    ``tracer`` for the duration of the block."""
    names = public_functions(package)
    wrappers = {fn: tracer.wrap(name, fn) for fn, name in names.items()}
    modules = [importlib.import_module(package)] + [
        importlib.import_module(f"{package}.{short}") for short in MODULES
    ]
    patched = []
    try:
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    patched.append((mod, attr, obj))
        yield tracer
    finally:
        for mod, attr, obj in reversed(patched):
            setattr(mod, attr, obj)


def covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_time(spans, index: int) -> float:
    """A span's duration minus the part of it that its children cover."""
    span = spans[index]
    children = [(s.start, s.end) for s in spans if s.parent == index]
    return span.duration - covered(children, span.start, span.end)


def _ancestor_names(spans, span: Span):
    while span.parent is not None:
        span = spans[span.parent]
        yield span.name


def total_time(spans, name: str) -> float:
    """Time inside spans called ``name``, counting nested repeats once."""
    return sum(
        s.duration
        for s in spans
        if s.name == name and name not in _ancestor_names(spans, s)
    )


def counts(spans) -> dict:
    out: dict[str, int] = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0) + 1
    return out

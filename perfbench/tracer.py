"""In-memory call tracing for the traced benchmark run.

`Tracer.install()` wraps every public function of the traced modules at
every module attribute that holds it (the defining module and each module
that imported it), plus a few class members named by the caller.
`Tracer.uninstall()` puts the original objects back. Nothing is traced
unless `install()` ran, and the untraced runs check with `wrapped_attributes`
that no wrapper is left behind.

A span is a list `[name, start, end, parent, op, error, value]`:
`parent` is the index of the enclosing span or -1, `op` the id of the
benchmark operation, `error` is 1 when an exception started in this span
(not in a traced callee), and `value` is what the name's observer returned
for the result, or None.
"""
from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

_MARK = "__perfbench_traced__"

NAME, START, END, PARENT, OP, ERROR, VALUE = range(7)


class Tracer:
    def __init__(self, modules, members=(), observers=None):
        """modules maps a short layer name to a module object; members lists
        (owner, attribute, span name) for class members to trace; observers
        maps a span name to a function of the call's result.
        """
        self.modules = dict(modules)
        self.members = tuple(members)
        self.observers = dict(observers or {})
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._raised: list[BaseException] = []
        self._patches: list[tuple[object, str, object]] = []

    def begin_op(self, op) -> None:
        self.op = op
        self._raised.clear()

    def _wrap(self, name, fn):
        spans, stack, raised = self.spans, self._stack, self._raised
        clock = time.perf_counter
        observe = self.observers.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, tracer.op, 0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if not any(exc is seen for seen in raised):
                    raised.append(exc)
                    span[ERROR] = 1
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if observe is not None:
                span[VALUE] = observe(result)
            return result

        setattr(traced, _MARK, True)
        return traced

    def _patch(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for short, mod in self.modules.items():
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        for mod in self.modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])
        for owner, attr, name in self.members:
            original = owner.__dict__[attr]
            if isinstance(original, staticmethod):
                new = staticmethod(self._wrap(name, original.__func__))
            else:
                new = self._wrap(name, original)
            self._patch(owner, attr, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc_info):
        self.uninstall()


def wrapped_attributes(modules, members=()) -> list[str]:
    """Names of module attributes and class members that still hold a
    tracing wrapper; empty when every original is in place.
    """
    out = []
    for short, mod in modules.items():
        for attr, obj in vars(mod).items():
            if getattr(obj, _MARK, False):
                out.append(f"{short}.{attr}")
    for owner, attr, name in members:
        obj = owner.__dict__[attr]
        if getattr(getattr(obj, "__func__", obj), _MARK, False):
            out.append(name)
    return out


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    return [
        span[END] - span[START] - covered_length(children[i], span[START], span[END])
        for i, span in enumerate(spans)
    ]

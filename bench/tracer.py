"""Per-layer timing from outside the program.

A traced run swaps the module-level names that callers bind (for example
``pipeline.signed_distance`` or ``retarget.fingertip_jacobian``) for timing
wrappers, and restores them afterwards.  Each wrapper opens a span: it counts
the call, adds its wall time to the span's busy time, and adds busy time minus
the time of wrapped calls made inside it to the span's self time.  A call made
inside a span of the same key runs unwrapped, so each key counts its
outermost entry calls once however the program nests them.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable


@dataclass(frozen=True)
class SpanSpec:
    """A span key, the names whose bindings it wraps, and its work count.

    ``work(args, kwargs, result)`` returns the units of work one call did,
    such as points queried or controller steps run.
    """

    key: str
    names: tuple
    work: Callable | None = None


@dataclass
class SpanStat:
    count: int = 0
    busy: float = 0.0
    self_time: float = 0.0
    work: float = 0.0


@dataclass
class Tracer:
    """Span statistics, kept in memory and read when the run ends."""

    clock: Callable = time.perf_counter
    stats: dict = field(default_factory=dict)
    # (parent key, child key) -> calls of the child made directly in the parent
    nested: Counter = field(default_factory=Counter)
    _stack: list = field(default_factory=list)
    _active: Counter = field(default_factory=Counter)

    def stat(self, key: str) -> SpanStat:
        return self.stats.setdefault(key, SpanStat())

    def wrap(self, spec: SpanSpec, fn: Callable) -> Callable:
        clock = self.clock

        def traced(*args, **kwargs):
            if self._active[spec.key]:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            frame = [spec.key, 0.0]     # key, time spent in wrapped children
            self._stack.append(frame)
            self._active[spec.key] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self._stack.pop()
                self._active[spec.key] -= 1
                stat = self.stat(spec.key)
                stat.count += 1
                stat.busy += elapsed
                stat.self_time += elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed
                    self.nested[parent[0], spec.key] += 1
            if spec.work is not None:
                self.stat(spec.key).work += spec.work(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", spec.key)
        return traced


def package_modules(package: str) -> list:
    """The package and every submodule of it imported so far."""
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == package or name.startswith(package + "."))]


def bound_names(modules, specs) -> dict:
    """For each spec key, the names some module binds to a callable."""
    found = {}
    for spec in specs:
        found[spec.key] = tuple(
            name for name in spec.names
            if any(callable(vars(mod).get(name)) for mod in modules))
    return found


@contextmanager
def installed(tracer: Tracer, modules, specs):
    """Swap every module binding of every spec name for a wrapper.

    Names no module binds are skipped; ``bound_names`` reports them.
    """
    swapped = []
    try:
        for spec in specs:
            for mod in modules:
                for name in spec.names:
                    fn = vars(mod).get(name)
                    if callable(fn):
                        setattr(mod, name, tracer.wrap(spec, fn))
                        swapped.append((mod, name, fn))
        yield tracer
    finally:
        for mod, name, fn in reversed(swapped):
            setattr(mod, name, fn)

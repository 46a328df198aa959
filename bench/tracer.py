"""Outside-in tracing of paulilab's public functions.

The tracer wraps every public function of the named modules and rebinds
each wrapper under every name that held the original in any loaded module
of the package: ``derive_along`` is imported by name into five modules, and
``verification.ALL_CHECKS`` holds the check groups in a tuple, so both kinds
of binding are replaced.  Leaving the ``with`` block restores every binding.

A span is ``(name, start, end, parent)``: ``parent`` is the index of the
enclosing span, or -1.  Spans stay in memory until :meth:`Tracer.take`;
callers write them out when the run ends.  Meters turn a call's arguments
and result into named counts (bytes moved, steps taken), outside the span
of the call they meter.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from types import FunctionType, ModuleType
from typing import Callable

Meter = Callable[[dict, object], dict]


def public_functions(module: ModuleType) -> dict[str, FunctionType]:
    """Public functions defined in ``module`` itself (not imported into it)."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and isinstance(obj, FunctionType)
        and obj.__module__ == module.__name__
    }


def _substitute(value, wrappers: dict[int, FunctionType]):
    """``value`` with originals replaced by wrappers, also inside (nested)
    tuples and lists, or ``value`` itself when it holds none."""
    if isinstance(value, FunctionType):
        return wrappers.get(id(value), value)
    if isinstance(value, (tuple, list)):
        items = [_substitute(v, wrappers) for v in value]
        if all(a is b for a, b in zip(items, value)):
            return value
        return type(value)(items)
    return value


class Tracer:
    """Context manager that records a span for each call into ``targets``.

    ``targets`` maps a module of ``package`` to the function names to wrap,
    or to ``None`` for all of its public functions.  ``meters`` maps a span
    name (``module.function``, without the package prefix) to a callable
    that receives the bound arguments and the result and returns counts to
    add to :attr:`counters`.
    """

    def __init__(self, package: str, targets: dict[ModuleType, list[str] | None],
                 meters: dict[str, Meter] | None = None):
        self.package = package
        self.targets = targets
        self.meters = dict(meters or {})
        self.spans: list = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[ModuleType, str, object]] = []

    def _short(self, module: ModuleType) -> str:
        return module.__name__.removeprefix(self.package + ".")

    def _wrap(self, name: str, fn: FunctionType) -> FunctionType:
        spans, stack, counters = self.spans, self._stack, self.counters
        meter = self.meters.get(name)
        signature = inspect.signature(fn) if meter else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if meter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, amount in meter(bound.arguments, result).items():
                    counters[key] = counters.get(key, 0) + amount
            return result

        return traced

    def __enter__(self) -> "Tracer":
        if self._saved:
            raise RuntimeError("tracer is already installed")
        wrappers: dict[int, FunctionType] = {}
        for module, names in self.targets.items():
            functions = public_functions(module)
            for fname in functions if names is None else names:
                fn = functions[fname]
                wrappers[id(fn)] = self._wrap(f"{self._short(module)}.{fname}", fn)
        prefix = self.package + "."
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == self.package or mod_name.startswith(prefix)):
                continue
            for attr, value in list(vars(module).items()):
                replaced = _substitute(value, wrappers)
                if replaced is not value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, replaced)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def take(self) -> tuple[list, dict[str, float]]:
        """Hand over the spans and counters recorded so far and start afresh."""
        if self._stack:
            raise RuntimeError("cannot take spans while a traced call is open")
        spans, counters = list(self.spans), dict(self.counters)
        self.spans.clear()
        self.counters.clear()
        return spans, counters


def self_times(spans: list) -> dict[str, tuple[int, float]]:
    """Per span name: call count and summed self time, where self time is a
    span's duration minus the durations of its direct children.  Calls are
    single-threaded and nested, so children never overlap."""
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, tuple[int, float]] = {}
    for (name, start, end, _parent), child in zip(spans, covered):
        calls, total = out.get(name, (0, 0.0))
        out[name] = (calls + 1, total + (end - start - child))
    return out

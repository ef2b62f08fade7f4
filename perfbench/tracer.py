"""In-memory span tracer that times calls into the program's layers.

The program is not instrumented for this benchmark; instead the traced
run wraps the public functions of each layer from here.  A function
imported with ``from module import name`` is bound in every importing
module (and registries hold their own references), so :meth:`Tracer.patch`
rebinds the wrapper everywhere the original object is found.

Each call records a span ``(name, start, end, parent)``; spans stay in
memory and are summarised when the run ends.  A span's self time is its
duration minus the time covered by its direct children (spans of one
thread nest, so children never overlap).
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable


class Tracer:
    def __init__(self) -> None:
        # [name, start, end, parent index or -1]
        self.spans: list[list[Any]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent])
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def count(self, name: str, amount: float) -> None:
        with self._lock:
            self.counts[name] += amount

    def wrap(
        self,
        fn: Callable,
        name: str | Callable[..., str],
        count: Callable[..., float] | None = None,
    ) -> Callable:
        """``fn`` timed under ``name`` (or ``name(*args, **kwargs)``);
        ``count(result, *args, **kwargs)`` adds to the counter
        ``<name>.count`` after each successful call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            index = self._open(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if count is not None:
                self.count(label + ".count", count(result, *args, **kwargs))
            return result

        return traced

    # -- patching ------------------------------------------------------------

    @staticmethod
    def _namespaces():
        """Module namespaces that may bind a program function: the
        program's own modules and this benchmark's."""
        here = os.path.dirname(os.path.abspath(__file__))
        for module_name, module in list(sys.modules.items()):
            if module is None:
                continue
            path = getattr(module, "__file__", None) or ""
            if (
                module_name == "repro"
                or module_name.startswith("repro.")
                or os.path.dirname(os.path.abspath(path)) == here
            ):
                yield vars(module)

    def patch(
        self,
        owner: Any,
        attr: str,
        name: str | Callable[..., str],
        count: Callable[..., float] | None = None,
    ) -> None:
        """Wrap ``owner.attr`` and rebind every reference to it.

        ``owner`` is a module (the function is rebound in every module
        namespace and registry that holds it) or a class (the method is
        replaced on the class).
        """
        original = vars(owner)[attr]
        wrapper = self.wrap(original, name, count)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            self._restore.append((owner, attr, original))
            return
        from repro.scenario.registry import Registry

        for namespace in self._namespaces():
            for key, value in list(namespace.items()):
                if value is original:
                    namespace[key] = wrapper
                    self._restore.append((namespace, key, original))
                elif isinstance(value, Registry):
                    entries = value._entries
                    for entry, target in list(entries.items()):
                        if target is original:
                            entries[entry] = wrapper
                            self._restore.append((entries, entry, original))

    def restore(self) -> None:
        for owner, key, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._restore.clear()

    # -- summary -------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``self_s``, ``total_s`` (outermost
        spans of that name only, so recursion is not double counted)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0 and end is not None:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0}
        )
        for index, (name, start, end, parent) in enumerate(self.spans):
            if end is None:
                continue
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[index]
            ancestor = parent
            nested = False
            while ancestor >= 0:
                if self.spans[ancestor][0] == name:
                    nested = True
                    break
                ancestor = self.spans[ancestor][3]
            if not nested:
                entry["total_s"] += end - start
        return dict(out)

    def root_time(self) -> float:
        """Time covered by top-level spans (the sum of all self times)."""
        return sum(
            end - start
            for _, start, end, parent in self.spans
            if parent < 0 and end is not None
        )

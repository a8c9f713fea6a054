"""Span tracer that wraps divrel's public functions from outside the package.

Each wrapped call is a span.  A span's self time is its duration minus the
time covered by the spans it directly contains, so nested calls such as
inequality_report -> additive_energy -> divisors -> factor are each charged
only for their own work.  Generators are timed per `next()`, so the time a
generator spends producing items is its own and the consumer keeps the rest.

Spans are aggregated in memory per name (calls, total and self nanoseconds);
distinct-key sets and plain counters sit beside them.  Wrappers record
nothing in a forked child (for example a `sweep --workers 2` pool worker):
they call straight through, and the child's work is not traced.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns
from typing import Callable, Iterator


class Tracer:
    def __init__(self) -> None:
        # name -> [calls, total_ns, self_ns]
        self.spans: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        self.keys: dict[str, set] = defaultdict(set)
        self.counts: Counter = Counter()
        # One child-time accumulator per open span; the bottom one is the root.
        self._stack: list[list[int]] = [[0]]
        self._pid = os.getpid()
        self._installed: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _enter(self) -> int:
        self._stack.append([0])
        return perf_counter_ns()

    def _exit(self, name: str, t0: int) -> None:
        dur = perf_counter_ns() - t0
        child = self._stack.pop()[0]
        self._stack[-1][0] += dur
        rec = self.spans[name]
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - child

    def active(self) -> bool:
        return os.getpid() == self._pid

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        t0 = self._enter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(name, t0)

    def timed_iter(self, name: str, it: Iterator) -> Iterator:
        """Yield from it, charging each next() to a span called name."""
        while True:
            t0 = self._enter()
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self._exit(name, t0)
            self.counts[name + ".yielded"] += 1
            yield item

    # -- wrapping ----------------------------------------------------------

    def wrap(
        self,
        fn: Callable,
        name: str | Callable[..., str],
        key: Callable[..., object] | None = None,
        after: Callable[..., None] | None = None,
        generator: bool = False,
        span: bool = True,
    ) -> Callable:
        """A traced stand-in for fn.

        name is the span name, or a function of the call's arguments giving
        it.  key(*args, **kwargs) adds a value to the distinct-key set of the
        span; after(result, *args, **kwargs) runs outside the span and may
        update counters.  With generator=True the returned iterator is timed
        per item; with span=False only key and after run.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active():
                return fn(*args, **kwargs)
            label = name(*args, **kwargs) if callable(name) else name
            if key is not None:
                self.keys[label].add(key(*args, **kwargs))
            result = self.call(label, fn, *args, **kwargs) if span else fn(*args, **kwargs)
            if after is not None:
                after(result, *args, **kwargs)
            if generator:
                return self.timed_iter(label, result)
            return result

        return traced

    def install(self, module: object, attr: str, wrapper: Callable) -> None:
        """Replace every binding of module.attr inside the divrel package.

        Modules that did `from .x import f` hold their own reference to f,
        so wrapping only the defining module would miss their calls.
        """
        original = getattr(module, attr)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "divrel" or mod_name.startswith("divrel.")):
                continue
            for bound_name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, bound_name, wrapper)
                    self._installed.append((mod, bound_name, original))

    def uninstall(self) -> None:
        for mod, bound_name, original in reversed(self._installed):
            setattr(mod, bound_name, original)
        self._installed.clear()

    # -- results -----------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.spans[name][0] if name in self.spans else 0

    def self_s(self, name: str) -> float:
        return self.spans[name][2] / 1e9 if name in self.spans else 0.0

    def distinct_ratio(self, name: str) -> float:
        calls = self.calls(name)
        return len(self.keys[name]) / calls if calls else 0.0

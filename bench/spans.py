"""Span tracing from outside the program.

A :class:`Tracer` replaces a function by a timing wrapper under the name its
caller looks it up by (``langtrack.inference.build_graph`` is what
``track_video`` calls), records inclusive and self time per layer, and
restores every original when it is deactivated.  Optional hooks compute
counters from a call's arguments and result; the time they take is kept out
of every span, so counters do not inflate the layer times they sit next to.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.inclusive_s: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._stack: list[list] = []  # open spans: [layer, start, hook_s at start, child_s]
        self._hook_s = 0.0
        self._specs: list[tuple] = []
        self._originals: list[tuple] = []

    def span(self, owner, attr: str, layer: str, before=None, after=None) -> None:
        """Time ``owner.attr`` as ``layer``.  ``before(tracer, args)`` runs ahead
        of the call, ``after(tracer, args, result)`` once it returns."""
        self._specs.append((owner, attr, lambda f: self._timer(f, layer, before, after)))

    def count_calls(self, owner, attr: str, counter: str) -> None:
        """Count calls of ``owner.attr`` without a span (for very hot functions)."""
        self._specs.append((owner, attr, lambda f: self._counter(f, counter)))

    @contextmanager
    def active(self):
        """Install every wrapper for the duration of the block."""
        for owner, attr, make_wrapper in self._specs:
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, make_wrapper(original))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(self._originals):
                setattr(owner, attr, original)
            self._originals.clear()

    def _counter(self, original, counter: str):
        counts = self.counts

        @functools.wraps(original)
        def counted(*args, **kwargs):
            counts[counter] += 1
            return original(*args, **kwargs)

        return counted

    def _timer(self, original, layer: str, before, after):
        @functools.wraps(original)
        def timed(*args, **kwargs):
            if before is not None:
                self._run_hook(before, args)
            self._stack.append([layer, time.perf_counter(), self._hook_s, 0.0])
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(time.perf_counter())
            if after is not None:
                self._run_hook(after, args, result)
            return result

        return timed

    def _close(self, end: float) -> None:
        layer, start, hook_start, child_s = self._stack.pop()
        duration = end - start - (self._hook_s - hook_start)
        self.calls[layer] += 1
        self.inclusive_s[layer] += duration
        self.self_s[layer] += duration - child_s
        if self._stack:
            self._stack[-1][3] += duration

    def _run_hook(self, hook, *hook_args) -> None:
        start = time.perf_counter()
        hook(self, *hook_args)
        self._hook_s += time.perf_counter() - start

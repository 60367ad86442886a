"""Spans recorded from the benchmark's side of the package boundary.

`Tracer.patched()` rebinds public names of `linepaint` at the module where
they are called with wrappers that open and close a span, and restores the
originals on exit.  Spans are kept in memory as (name, parent, start, end)
and written out by `dump()` when the run ends.  A span's self time is its
duration minus the durations of its direct children.

Only the parent process records spans: spans opened in forked pool workers
stay in the workers and are lost.
"""

from __future__ import annotations

import contextlib
import functools
import json
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}

    def _open(self, name: str) -> int:
        i = len(self.spans)
        self.spans.append([name, self._stack[-1] if self._stack else -1, perf_counter(), 0.0])
        self._stack.append(i)
        return i

    def _close(self, i: int) -> None:
        self.spans[i][3] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        i = self._open(name)
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, name: str, fn, before=None, after=None):
        """`fn` inside a span; `after(tracer, args, result, state)` records
        counts, with `state = before(args)` taken before the call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(args) if before is not None else None
            i = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(i)
            if after is not None:
                after(self, args, out, state)
            return out

        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Rebind each (owner, attribute, span name, before, after) target
        for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, before, after in targets:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, before, after))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def stats(self) -> dict[str, dict]:
        """Per span name: calls, total wall seconds, total self seconds and
        the list of individual durations."""
        child = [0.0] * len(self.spans)
        for name, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "wall": 0.0, "self": 0.0, "durs": []})
        for i, (name, _, t0, t1) in enumerate(self.spans):
            rec = out[name]
            rec["calls"] += 1
            rec["wall"] += t1 - t0
            rec["self"] += t1 - t0 - child[i]
            rec["durs"].append(t1 - t0)
        return out

    def dump(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            base = self.spans[0][2] if self.spans else 0.0
            for i, (name, parent, t0, t1) in enumerate(self.spans):
                fh.write(f'[{i},{parent},"{name}",{(t0 - base) * 1e6:.1f},{(t1 - base) * 1e6:.1f}]\n')

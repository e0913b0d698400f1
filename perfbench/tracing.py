"""In-memory span tracing for the benchmark's traced run.

The program has no tracing of its own yet, so the benchmark wraps public
functions at their import sites (module attributes, class methods and the
layer objects of a ``TinyNet``) for the duration of a ``with`` block and
restores the originals afterwards. Each call becomes one span
``[name, start, end, parent]`` kept in memory; a span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

# Percentiles tried for the high-percentile latency, highest first. The one
# reported is the highest with at least MIN_TAIL_SAMPLES calls beyond it;
# spans with fewer calls than that report their median instead.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_TAIL_SAMPLES = 10


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []
        self._saved = []  # (owner, attr, original attribute or None, owned)

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        return traced

    def patch(self, owner, attr, name):
        """Replace owner.attr with a traced wrapper until the block ends."""
        owned = attr in vars(owner)
        self._saved.append((owner, attr, vars(owner).get(attr), owned))
        setattr(owner, attr, self.wrap(name, getattr(owner, attr)))

    @contextmanager
    def installed(self, sites=()):
        """Patch every (owner, attr, span name) in `sites`; patches added
        with `patch` inside the block are undone with them."""
        depth = len(self._saved)
        try:
            for owner, attr, name in sites:
                self.patch(owner, attr, name)
            yield self
        finally:
            while len(self._saved) > depth:
                owner, attr, original, owned = self._saved.pop()
                if owned:
                    setattr(owner, attr, original)
                else:
                    delattr(owner, attr)


def self_times(spans) -> np.ndarray:
    durations = np.array([end - start for _, start, end, _ in spans])
    self_s = durations.copy()
    for (_, _, _, parent), duration in zip(spans, durations):
        if parent >= 0:
            self_s[parent] -= duration
    return self_s


def has_ancestor(spans, index, name) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def tail_percentile(n: int) -> float:
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= MIN_TAIL_SAMPLES:
            return p
    return 50.0


def summarize(spans, names, ranges) -> dict:
    """Per span name: calls and self time per pass, each the median over the
    passes whose spans are ``spans[a:b]`` for (a, b) in ``ranges``; median
    and high-percentile call duration (inclusive of children) over every
    pass, with the percentile used and its sample count."""
    self_s = self_times(spans)
    by_pass = []  # one {name: [span index, ...]} per pass
    for a, b in ranges:
        by_name = {}
        for i in range(a, b):
            by_name.setdefault(spans[i][0], []).append(i)
        by_pass.append(by_name)
    out = {}
    for name in names:
        calls, owns, durations = [], [], []
        for by_name in by_pass:
            idx = by_name.get(name, [])
            calls.append(len(idx))
            owns.append(float(self_s[idx].sum()))
            durations += [spans[i][2] - spans[i][1] for i in idx]
        n = len(durations)
        p_hi = tail_percentile(n)
        out[name] = {
            "calls": float(np.median(calls)) if calls else 0.0,
            "self_s": float(np.median(owns)) if owns else 0.0,
            "p50_ms": float(np.percentile(durations, 50) * 1e3) if n else 0.0,
            "p_hi_ms": float(np.percentile(durations, p_hi) * 1e3) if n else 0.0,
            "p_hi_percentile": p_hi,
            "samples": n,
        }
    return out

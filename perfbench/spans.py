"""Spans and counters recorded from outside the program.

A `Tracer` wraps public functions of the program's layers. Each call of a
wrapped function records one span (name, start, end, parent); spans stay in
memory until `write` puts them in a CSV file. Functions too hot to record as
spans (one call per rotated vector) are wrapped as counters instead, which
keep only a call count and a summed wall time.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from pathlib import Path

perf = time.perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.kept: dict[int, object] = {}   # what `keep` took from each call
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, keep=None):
        """Wrap `fn`; `keep(args, result)`, if given, picks what to retain
        from each call."""
        def wrapper(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1])
            self.ends.append(math.nan)
            self._stack.append(idx)
            self.starts.append(perf())
            try:
                result = fn(*args, **kwargs)
                if keep is not None:
                    self.kept[idx] = keep(args, result)
                return result
            finally:
                self.ends[idx] = perf()
                self._stack.pop()
        return wrapper

    def counter(self, name: str, fn):
        calls, seconds = self.calls, self.seconds

        def wrapper(*args, **kwargs):
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name] += perf() - start
                calls[name] += 1
        return wrapper

    def patch(self, owner, attr: str, name: str, keep=None, counter: bool = False) -> None:
        """Replace `owner.attr` by a recording wrapper until `unpatch`."""
        original = owner.__dict__[attr]
        if counter:
            wrapper = self.counter(name, original)
        else:
            wrapper = self.span(name, original, keep)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- derived quantities -------------------------------------------------

    def duration(self, idx: int) -> float:
        return self.ends[idx] - self.starts[idx]

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children.

        Spans come from one thread, so children never overlap each other
        and their summed durations are the part of the parent they cover.
        """
        out = [self.duration(i) for i in range(len(self.names))]
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                out[parent] -= self.duration(i)
        return out

    def write(self, path: Path, origin: float) -> None:
        lines = ["id,name,parent,start_s,end_s"]
        lines += ["%d,%s,%d,%.9f,%.9f" % (i, n, p, s - origin, e - origin)
                  for i, (n, p, s, e) in enumerate(
                      zip(self.names, self.parents, self.starts, self.ends))]
        lines += ["# counter,%s,calls=%d,seconds=%.9f" % (name, self.calls[name], self.seconds[name])
                  for name in sorted(self.calls)]
        path.write_text("\n".join(lines) + "\n")

"""In-memory spans and counters recorded around calls into provrec's layers.

The benchmark wraps public functions of the program from its own files: a
wrapper replaces a module (or class) attribute for as long as tracing is
installed and restores it afterwards. Each call becomes one span (name,
start, end, parent); counters record call counts and input sizes. A span's
layer is the part of its name before the first dot.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._enter(name)
        try:
            yield idx
        finally:
            self._exit(idx)

    def _wrapper(self, original, name: str, count):
        def traced(*args, **kwargs):
            idx = self._enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._exit(idx)
            self.counts[name] += 1
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    @contextmanager
    def installed(self, plan):
        """Wrap every ``(owner, attribute, span name, count)`` of ``plan``.

        ``count(counts, args, result)``, when given, adds input or output
        sizes to the counters after each call.
        """
        saved = []
        try:
            for owner, attr, name, count in plan:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrapper(original, name, count))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def total(self, *names: str) -> float:
        """Summed duration of every closed span with one of ``names``."""
        wanted = set(names)
        return sum(e - s for n, s, e, _ in self.spans if n in wanted and e is not None)

    def self_times(self, root: int | None = None) -> dict[str, float]:
        """Per-layer self time: span duration minus its direct children's.

        With ``root``, only the root span and its descendants count.
        """
        n = len(self.spans)
        inside = [root is None] * n
        if root is not None:
            inside[root] = True
            # parents precede children, so one forward pass finds descendants
            for i in range(root + 1, n):
                parent = self.spans[i][3]
                inside[i] = parent >= 0 and inside[parent]
        out: dict[str, float] = defaultdict(float)
        child_time = [0.0] * n
        for i in range(n - 1, -1, -1):
            name, start, end, parent = self.spans[i]
            if not inside[i] or end is None:
                continue
            duration = end - start
            out[name.split(".", 1)[0]] += duration - child_time[i]
            if parent >= 0:
                child_time[parent] += duration
        return dict(out)

    def to_dict(self) -> dict:
        return {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p in self.spans
            ],
            "counts": dict(self.counts),
        }

"""In-memory span recorder for the traced benchmark mode.

Spans are recorded by the benchmark around calls into the engine's
public functions (no engine code changes); they are kept in a list and
written once, when the run ends.  A span's self time is its duration
minus the part of its interval that its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict


class Tracer:
    """Records (span_id, parent_id, name, t0_ns, t1_ns) tuples.

    Single-threaded by design: the parent of a span is whatever span is
    open on the stack when it starts."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._next = 0

    def wrap(self, name: str, fn, after=None):
        """``fn`` wrapped in a span; ``after(result)`` runs inside the span
        (used to force a lazy Dataset so its execution is timed)."""
        clock, stack, spans = time.perf_counter_ns, self._stack, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                if after is not None:
                    out = after(out)
                return out
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, name, t0, t1))
        return traced

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for sid, parent, name, t0, t1 in sorted(self.spans):
                f.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                    "t0_ns": t0, "t1_ns": t1}) + "\n")


def _covered(intervals: list, lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, end = 0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def summarize(spans: list) -> dict:
    """name -> {"count", "total_ns", "self_ns"} over ``spans``."""
    children = defaultdict(list)
    for _sid, parent, _name, t0, t1 in spans:
        if parent >= 0:
            children[parent].append((t0, t1))
    out: dict = {}
    for sid, _parent, name, t0, t1 in spans:
        agg = out.setdefault(name, {"count": 0, "total_ns": 0, "self_ns": 0})
        agg["count"] += 1
        agg["total_ns"] += t1 - t0
        agg["self_ns"] += (t1 - t0) - _covered(children.get(sid, []), t0, t1)
    return out


@contextlib.contextmanager
def patched(targets: list):
    """Temporarily replace module attributes: ``targets`` holds
    (module, attribute, replacement) triples; originals are restored on
    exit even if the body raises."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in targets]
    try:
        for mod, attr, repl in targets:
            setattr(mod, attr, repl)
        yield
    finally:
        for mod, attr, orig in saved:
            setattr(mod, attr, orig)

"""Spans recorded around calls into seqaccel, and per-module self time.

Spans are taken from the benchmark's own files, around public calls into
each module; the package itself is not instrumented.  A span is
``[name, start, end, parent, op]`` where ``parent`` is the index of the
enclosing span (None for the op's root span) and ``op`` the op id.
"""

from __future__ import annotations

import pstats
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path

# modules whose self time the profile pass reports; anything else is "other"
SHARE_MODULES = (
    "lbq", "epsilon", "tables", "modes", "sequences", "oracle", "determinants",
    "formatting", "seqgen", "analysis", "cli", "fractions", "mpmath",
)

_NULL = nullcontext()


class NullTracer:
    """Records nothing; the untraced runs use it."""

    op_id = None

    def span(self, name):
        return _NULL


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []
        self.op_id = None

    @contextmanager
    def span(self, name):
        rec = [name, time.perf_counter(), None, self._open[-1] if self._open else None, self.op_id]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    def as_records(self):
        return [
            {"id": i, "name": name, "start": start, "end": end, "parent": parent, "op": op}
            for i, (name, start, end, parent, op) in enumerate(self.spans)
        ]


def self_times(spans):
    """Each span's duration minus the time its direct children cover.

    Spans of one thread nest and never overlap, so the children's
    durations add up to the covered part.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


def summary(spans):
    """Per span name: calls, busy seconds and self seconds over the whole run."""
    out = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    for (name, start, end, _, _), own in zip(spans, self_times(spans)):
        row = out[name]
        row["calls"] += 1
        row["busy_s"] += end - start
        row["self_s"] += own
    return dict(out)


def busy_per_op(spans, duration=lambda start, end: end - start):
    """{name: {op: busy seconds}} for every span name, each span timed by ``duration``."""
    out = defaultdict(lambda: defaultdict(float))
    for name, start, end, _, op in spans:
        out[name][op] += duration(start, end)
    return out


def _module_of(filename, src):
    """Share module a profiled function's file belongs to, or None if unknown."""
    if filename.startswith(("~", "<")):
        return None  # built-ins and generated code: charged to the caller
    path = Path(filename)
    if path.parent == src and path.stem in SHARE_MODULES:
        return path.stem
    if path.name == "fractions.py":
        return "fractions"
    if "mpmath" in path.parts:
        return "mpmath"
    return "other"


def module_shares(profile, src):
    """Share of profiled self time per module, summing to 1.

    Built-in functions and generated code (dataclass methods) have no
    module of their own; their time is charged to the module of each
    caller in proportion to the time spent under that caller.
    """
    stats = pstats.Stats(profile).stats
    memo = {}

    def owner(func, seen):
        if func in memo:
            return memo[func]
        mod = _module_of(func[0], src)
        if mod is None:
            callers = stats[func][4]
            weights = defaultdict(float)
            for caller, edge in callers.items():
                if caller in seen or caller not in stats:
                    weights["other"] += edge[2]
                    continue
                for m, w in owner(caller, seen | {func}).items():
                    weights[m] += w * edge[2]
            total = sum(weights.values())
            mod = {m: w / total for m, w in weights.items()} if total else {"other": 1.0}
        else:
            mod = {mod: 1.0}
        memo[func] = mod
        return mod

    shares = dict.fromkeys(SHARE_MODULES + ("other",), 0.0)
    for func, (_, _, tt, _, _) in stats.items():
        for m, w in owner(func, frozenset()).items():
            shares[m] += w * tt
    total = sum(shares.values())
    return {m: v / total for m, v in shares.items()} if total else shares

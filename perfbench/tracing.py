"""Spans and counters around the calls that cross mti's module boundaries.

The tracer patches names from outside the library; nothing under src/ knows
about it.  Calls made once per trace or per operation become spans, kept in
memory with an operation id and a parent; calls made once per class (10^5
to 10^6 per census) only add to a counter.  A boundary name that no longer
exists is skipped, so its layer reports zero calls.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

_pc = time.perf_counter

# (module, attribute, span name, count name): per-trace calls, kept as spans;
# the count name, when given, adds len(result)
SPAN_BOUNDARIES = (
    ("mti.bqf", "reduced_forms_of_disc", "bqf.enumerate", "bqf.forms"),
    ("mti.census", "classes_with_trace", "bqf.classes", "bqf.classes"),
)
# (module, attribute, counter name): per-class calls, aggregated only
COUNTER_BOUNDARIES = (
    ("mti.census", "classify_mod_2", "sl2.classify"),
    ("mti.census", "_classify_residues", "sl2.classify"),
    ("mti.census", "sl2_snf_entries", "sl2.snf"),
    ("mti.census", "log_integral", "census.li"),
)


class Tracer:
    """In-memory spans [id, parent, op, name, start, end, child_s] plus
    per-name counts and [calls, seconds] counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.counters: dict[str, list] = {}
        # open spans as [id, op, child_s]; the root catches calls made
        # outside any span
        self._stack: list[list] = [[0, None, 0.0]]
        # wrappers record only while set: the timed job, not its checks
        self.active = False

    @contextmanager
    def span(self, name: str, op: str | None = None):
        parent = self._stack[-1]
        frame = [len(self.spans) + 1, op or parent[1], 0.0]
        record = [frame[0], parent[0], frame[1], name, _pc(), None, 0.0]
        self.spans.append(record)
        self._stack.append(frame)
        try:
            yield
        finally:
            self._stack.pop()
            record[5] = _pc()
            record[6] = frame[2]
            parent[2] += record[5] - record[4]

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def _span_wrapper(self, fn, name, count_name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            with self.span(name):
                out = fn(*args, **kwargs)
            if count_name:
                self.count(count_name, len(out))
            return out

        return wrapper

    def _counter_wrapper(self, fn, name):
        stat = self.counters.setdefault(name, [0, 0.0])
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            t0 = _pc()
            out = fn(*args, **kwargs)
            dt = _pc() - t0
            stat[0] += 1
            stat[1] += dt
            stack[-1][2] += dt
            return out

        return wrapper

    def install(self) -> list[str]:
        """Patch every boundary that exists; return the names patched."""
        patched = []
        for mod_name, attr, name, count_name in SPAN_BOUNDARIES:
            mod = sys.modules.get(mod_name)
            if mod is not None and callable(getattr(mod, attr, None)):
                setattr(mod, attr, self._span_wrapper(getattr(mod, attr), name, count_name))
                patched.append(f"{mod_name}.{attr}")
        for mod_name, attr, name in COUNTER_BOUNDARIES:
            mod = sys.modules.get(mod_name)
            if mod is not None and callable(getattr(mod, attr, None)):
                setattr(mod, attr, self._counter_wrapper(getattr(mod, attr), name))
                patched.append(f"{mod_name}.{attr}")
        return patched

    def self_time(self, name: str) -> float:
        """Summed duration of the spans called `name`, less their children."""
        return sum(s[5] - s[4] - s[6] for s in self.spans if s[3] == name)

    def total_time(self, name: str) -> float:
        return sum(s[5] - s[4] for s in self.spans if s[3] == name)

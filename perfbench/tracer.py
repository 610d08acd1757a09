"""Spans and counters around rootcover's public functions, installed from outside.

Each target is wrapped where the calling module looks it up (for example
``rootcover.invariants.select_v`` is the name ``k3_root_cover`` calls), so the
package runs unmodified.  Spans stay in memory and are aggregated into
per-layer calls, total time and self time when the traced process ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter

from stats import self_times

# (module that looks the function up, attribute, span name)
SPANS = (
    ("rootcover.cli", "run_sweep", "cli.run_sweep"),
    ("rootcover.cli", "_sweep_cell", "cli.cell"),
    ("rootcover.cli", "find_asymptotic_partition", "asympt.find_asymptotic_partition"),
    ("rootcover.asympt", "find_asymptotic_partition", "asympt.find_asymptotic_partition"),
    ("rootcover.cli", "invariant_report", "invariants.invariant_report"),
    ("rootcover.invariants", "invariant_report", "invariants.invariant_report"),
    ("rootcover.invariants", "chi_root_cover", "invariants.chi_root_cover"),
    ("rootcover.invariants", "k3_root_cover", "invariants.k3_root_cover"),
    ("rootcover.invariants", "euler_root_cover", "invariants.euler_root_cover"),
    ("rootcover.invariants", "chi_error_bound", "invariants.chi_error_bound"),
    ("rootcover.invariants", "select_v", "toric.select_v"),
    ("rootcover.invariants", "hj_expand", "hj.hj_expand"),
    ("rootcover.invariants", "hj_length", "hj.hj_length"),
    ("rootcover.asympt", "hj_length", "hj.hj_length"),
    ("rootcover.invariants", "dedekind_fast", "dedekind.dedekind_fast"),
    ("rootcover.asympt", "dedekind_fast", "dedekind.dedekind_fast"),
    ("rootcover.invariants", "log_chern_numbers", "logchern.log_chern_numbers"),
)

# Called millions of times by the partition search: counted, not timed.
COUNTERS = (
    ("rootcover.asympt", "girstmair_member", "asympt.girstmair_member"),
)


class Tracer:
    """In-memory span recorder; ``install`` patches the targets above."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _span(self, name: str, fn):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                counts[f"{name}!{type(exc).__name__}"] += 1
                raise
            finally:
                stack.pop()
                spans[index][2] = clock()

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for module, attr, name in SPANS:
            mod = importlib.import_module(module)
            setattr(mod, attr, self._span(name, getattr(mod, attr)))
        for module, attr, name in COUNTERS:
            mod = importlib.import_module(module)
            setattr(mod, attr, self._counter(name, getattr(mod, attr)))

    def summary(self) -> dict:
        """{"layers": {name: [calls, total_s, self_s]}, "counts": {name: n}}."""
        layers = self_times(self.spans)
        return {
            "layers": {name: list(v) for name, v in layers.items()},
            "counts": dict(self.counts),
        }

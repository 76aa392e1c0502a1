"""In-memory spans around the benchmark's calls into the package.

A span records the layer function it covers, its size label, start and end
(perf_counter seconds), the op it belongs to and the pass it ran in.  Spans
nest only one level: an op span (named ``bench.<op kind>``) is the parent of
the call spans its op records, so an op span's self time is the time its
output check and glue took.  When tracing is off, ``call`` runs the function
and records nothing.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

import numpy as np


def qualified_name(fn) -> str:
    """``<module>.<function>`` with the package prefix dropped."""
    return f"{fn.__module__.removeprefix('bcjacobi.')}.{fn.__name__}"


class Tracer:
    def __init__(self, workload: str, enabled: bool):
        self.workload = workload
        self.enabled = enabled
        # (name, size, start, end, op_id, pass_idx, parent) with parent an
        # index into self.spans or -1
        self.spans: list[tuple] = []
        self.pass_idx = -1
        self._op = None  # (op, op_id, span index)
        self._op_count = 0

    def begin_op(self, op) -> None:
        self._op_count += 1
        idx = -1
        if self.enabled:
            idx = len(self.spans)
            self.spans.append([f"bench.{op.kind}", op.size, time.perf_counter(), None,
                               self._op_count, self.pass_idx, -1])
        self._op = (op, self._op_count, idx)

    def end_op(self) -> None:
        _, _, idx = self._op
        if idx >= 0:
            self.spans[idx][3] = time.perf_counter()
        self._op = None

    def call(self, fn, *args, **kwargs):
        """Call ``fn`` inside a span named after it, sized by the current op."""
        op, op_id, parent = self._op
        name = qualified_name(fn)
        if name not in op.calls:
            raise RuntimeError(f"op {op.kind} records undeclared call {name}")
        if not self.enabled:
            return fn(*args, **kwargs)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            # a call that raises (an expected refusal) still gets its span
            self.spans.append([name, op.size, start, time.perf_counter(), op_id,
                               self.pass_idx, parent])

    def self_times(self) -> dict:
        """Median over passes of each (name, size)'s summed self time.

        A span's self time is its duration minus the durations of its
        children; children never overlap because ops run one at a time.
        """
        child_time = defaultdict(float)
        for name, size, start, end, op_id, pidx, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        per_pass = defaultdict(lambda: defaultdict(float))
        for i, (name, size, start, end, op_id, pidx, parent) in enumerate(self.spans):
            per_pass[(name, size)][pidx] += (end - start) - child_time[i]
        return {key: statistics.median(v.values()) for key, v in per_pass.items()}

    def dump(self) -> list[dict]:
        keys = ("name", "size", "start", "end", "op_id", "pass", "parent")
        return [dict(zip(keys, s), workload=self.workload) for s in self.spans]


def ladder_exponent(sizes, seconds) -> float:
    """Least-squares slope of log(time) against log(size)."""
    return float(np.polyfit(np.log(sizes), np.log(seconds), 1)[0])

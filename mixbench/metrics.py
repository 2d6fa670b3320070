"""Pure helpers: percentiles, the tail rule, outcome accounting and the
self/busy/wait split of a span forest.

Nothing here imports :mod:`repro`, so the self-tests run without it.
"""

from __future__ import annotations

import math
import statistics

#: Candidate tail percentiles, highest first.  p75 is a floor for a
#: run too short for 100 ops (``export`` at a few seconds).
TAIL_PERCENTILES = (0.999, 0.99, 0.9, 0.75)
#: A tail percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


def rank(p, n):
    """Nearest-rank position (1-based) of the ``p``-quantile of ``n``."""
    return max(1, min(n, math.ceil(p * n - 1e-9)))


def percentile(sorted_values, p):
    """Nearest-rank ``p``-quantile of an ascending, non-empty list."""
    return sorted_values[rank(p, len(sorted_values)) - 1]


def tail(values):
    """The op-latency tail: ``(value, p, beyond)``.

    ``value`` is the highest of :data:`TAIL_PERCENTILES` that has at
    least :data:`MIN_BEYOND` samples ranked beyond it; ``beyond`` is that
    sample count.  With fewer than 40 samples no candidate qualifies and
    the maximum is returned with ``p = 1.0`` and ``beyond = 0``.
    """
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        raise ValueError("tail() of no samples")
    for p in TAIL_PERCENTILES:
        beyond = n - rank(p, n)
        if beyond >= MIN_BEYOND:
            return percentile(ordered, p), p, beyond
    return ordered[-1], 1.0, 0


def quartile_spread(values):
    """Interquartile distance over the median (the acceptance spread)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


class Outcome:
    """Ops attempted and failed.

    An op fails when it raises, when the server refuses it (any typed
    error reply, ``MIX-E-BUSY`` included), or when the oracle finds its
    answer wrong.  Refusals are failures here: a refused request missed
    every latency limit, so dropping it would flatter the run.
    """

    def __init__(self):
        self.attempted = 0
        self.errors = 0
        self.refused = 0
        self.wrong = 0

    def attempt(self):
        self.attempted += 1

    def error(self):
        self.errors += 1

    def refuse(self):
        self.refused += 1

    def mismatch(self):
        self.wrong += 1

    @property
    def failed(self):
        return self.errors + self.refused + self.wrong

    @property
    def failed_frac(self):
        return self.failed / self.attempted if self.attempted else 0.0

    def merge(self, other):
        self.attempted += other.attempted
        self.errors += other.errors
        self.refused += other.refused
        self.wrong += other.wrong
        return self


# -- span accounting ------------------------------------------------------------
#
# A span record is the tuple
#   (span_id, parent_id, op_id, name, start, end, cpu_start, cpu_end)
# with wall times from ``time.perf_counter`` and CPU times from
# ``time.thread_time`` of the thread that ran the span.  ``parent_id``
# is 0 for a root.  Parents and children always share a thread, because
# the tracer keeps one span stack per thread.

SID, PARENT, OP, NAME, START, END, CPU0, CPU1 = range(8)


def self_times(spans):
    """Per-name ``{name: [self_s, busy_s, calls]}`` over ``spans``.

    Self time is a span's wall duration minus its children's; busy time
    is its thread CPU time minus its children's.  Wait time is the
    difference of the two (GIL, lock and source waits).
    """
    child_wall = {}
    child_cpu = {}
    for span in spans:
        parent = span[PARENT]
        if parent:
            child_wall[parent] = (
                child_wall.get(parent, 0.0) + span[END] - span[START]
            )
            child_cpu[parent] = (
                child_cpu.get(parent, 0.0) + span[CPU1] - span[CPU0]
            )
    totals = {}
    for span in spans:
        sid = span[SID]
        wall = span[END] - span[START] - child_wall.get(sid, 0.0)
        cpu = span[CPU1] - span[CPU0] - child_cpu.get(sid, 0.0)
        entry = totals.setdefault(span[NAME], [0.0, 0.0, 0])
        entry[0] += wall
        entry[1] += cpu
        entry[2] += 1
    return totals


def split(entry):
    """``(self_s, busy_s, wait_s)`` of a :func:`self_times` entry."""
    self_s, busy_s, _calls = entry
    return self_s, busy_s, self_s - busy_s

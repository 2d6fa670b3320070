"""A host-speed gauge: fixed interpreter work, timed next to each op.

A shared host does not run at one speed.  On the 2-vCPU Xeon host the
benchmark was written on, the same pure-Python work runs at a fast
speed or up to about twice as slow, switching every few seconds, and
thread CPU time follows wall time (the CPU itself is slower, not
descheduled).  A 22 s
run can then be mostly fast or mostly slow, and its latencies move by a
third from run to run with no change to the program.

The gauge is a small, fixed piece of interpreter work — object
construction, a recursive generator walk, string formatting and joins,
dict grouping — that imports nothing from :mod:`repro`, so no change to
the program can change what it costs.  :func:`sample` times it just
before every op (and once after the last), and :func:`scale` turns a
raw duration into *reference seconds*: the duration times
:data:`REFERENCE_S` over the mean of the gauge samples taken either
side of it.  A reference second is the time the work would take on a
host where one sample takes :data:`REFERENCE_S`, which is that host's
fast speed; there, reference seconds read as wall seconds.
"""

from __future__ import annotations

import gc
import time

#: One gauge sample on the reference host at its fast speed.
REFERENCE_S = 0.00042
#: Kernel rounds in one timing, and timings in one sample.
ROUNDS = 12
REPEATS = 3


class _Cell:
    __slots__ = ("label", "kids", "value")

    def __init__(self, label, value):
        self.label = label
        self.kids = []
        self.value = value


def _walk(node):
    yield node
    for kid in node.kids:
        yield from _walk(kid)


def kernel(rounds=ROUNDS):
    """The fixed work.  Returns a checksum, so none of it is dead."""
    total = 0
    for r in range(rounds):
        root = _Cell("root", r)
        for i in range(30):
            cell = _Cell("c%d" % (i % 7), i * r)
            root.kids.append(cell)
            if i % 3 == 0:
                cell.kids.append(_Cell("leaf", str(i)))
        text = "".join("<%s>%s</%s>" % (c.label, c.value, c.label)
                       for c in _walk(root))
        groups = {}
        for cell in root.kids:
            groups.setdefault(cell.label, []).append(cell.value)
        total += len(text.split("</")) + len(groups)
    return total


def sample():
    """Seconds of one gauge sample: the fastest of :data:`REPEATS`
    timings of the kernel, so a one-off interrupt does not count.
    Collection is held off meanwhile, so the program's heap does not
    enter the sample."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = None
        for _ in range(REPEATS):
            began = time.perf_counter()
            kernel()
            elapsed = time.perf_counter() - began
            if best is None or elapsed < best:
                best = elapsed
    finally:
        if enabled:
            gc.enable()
    return best


def scale(seconds, before, after):
    """``seconds`` of wall time in reference seconds, given the gauge
    samples taken ``before`` and ``after`` it."""
    return seconds * REFERENCE_S * 2.0 / (before + after)


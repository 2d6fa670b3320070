"""Run one MIX benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 mixbench/run.py --workload browse --seed 1 --seconds 22 --trace 0
    python3 mixbench/run.py --workload all --seed 1 --seconds 22

``--workload all`` runs the three workloads one after the other, each in
its own process.  ``--trace 0`` measures the end-to-end metrics with
tracing off: :data:`SETUPS` fresh copies of the workload are set up
and timed, then one window is measured.  Set-ups and ops are timed in
reference seconds (:mod:`mixbench.gauge`), which take out the shared
host's changes of speed; the wall-clock figures go in the record.
``--trace 1`` measures half the window untraced and half traced, and
prints the per-layer metrics plus the tracing overhead.  Every line
before the last is human-readable detail (one ``name value unit`` line
per metric, then a JSON ``record`` with seeds, host and method); the
last line is the result object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Timed set-ups per untraced run.
SETUPS = 11
#: Where the traced run writes its spans (ignored by git).
TRACE_DIR = os.path.join(ROOT, ".bench_build", "mixbench")

WORKLOAD_NAMES = ("browse", "export", "serve")
LINE = "{:34s} {:>16.6f} {}"

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("tuples_shipped_per_op", "rows"),
    ("sql_per_op", "stmts"),
    ("peak_rss_mb", "MiB"),
)

#: Span-timed layer entry points: metric prefix -> span names.
TIMED = (
    ("xquery.parse", ("xquery.parse",)),
    ("algebra.translate", ("algebra.translate",)),
    ("composer.decontextualize", ("composer.decontextualize",)),
    ("composer.compose", ("composer.compose",)),
    ("rewriter.rewrite", ("rewriter.rewrite",)),
    ("rewriter.push_sql", ("rewriter.push_sql",)),
    ("qdom", ("qdom.query", "qdom.query_from", "qdom.d", "qdom.r",
              "qdom.fl", "qdom.fv", "qdom.d_many", "qdom.walk",
              "qdom.to_tree")),
    ("cache", ("cache.plan", "cache.memo", "cache.sql")),
    ("engine.evaluate", ("engine.evaluate",)),
    ("engine.force", ("xmltree.force",)),
    ("relational.execute", ("relational.execute",)),
    ("relational.fetch", ("relational.fetch",)),
    ("relational.run", ("relational.run",)),
    ("sources.execute_sql", ("sources.execute_sql",)),
    ("sources.iter_children", ("sources.iter_children",)),
    ("sources.rtt", ("sources.rtt",)),
    ("server.handle", ("server.handle",)),
    ("unattributed", ("op",)),
)

#: Entry points whose call counts are reported.
COUNTED_CALLS = ("xquery.parse", "rewriter.rewrite")

PER_LAYER_UNITS = {"calls": "count", "self_s": "s", "busy_s": "s",
                   "wait_s": "s", "hit_frac": "1", "ops_per_s": "ops/s"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def held_out_seed(seed):
    """The seed a gain claimed on ``seed`` must also hold on."""
    return (seed * 7919 + 104729) % (2 ** 31)


def host():
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (not a git checkout)"
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "git_commit": commit}


def reset_peak_rss():
    """Restart the process's resident-memory high-water mark (Linux).

    Returns whether it could; elsewhere the peak covers the whole
    process life.
    """
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as f:
            f.write("5")
        return True
    except OSError:
        return False


def peak_rss_mb():
    """The resident-memory high-water mark, in MiB."""
    try:
        with open("/proc/self/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except (OSError, ValueError):
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setup(workload):
    """``(reference, wall)`` seconds one set-up of a fresh copy of
    ``workload`` takes.

    The host speed is sampled either side of the set-up, which is then
    scaled to reference seconds (:mod:`mixbench.gauge`).  Collection is
    parked while the set-up is timed: it builds long-lived data, and
    collections there only add noise.  The copy and its garbage are
    gone before this returns.
    """
    from mixbench import gauge

    copy = type(workload)(workload.seed)
    gc.collect()
    gc.disable()
    before = gauge.sample()
    began = time.perf_counter()
    try:
        copy.setup()
    finally:
        elapsed = time.perf_counter() - began
        after = gauge.sample()
        gc.enable()
    del copy
    gc.collect()
    return gauge.scale(elapsed, before, after), elapsed


def measure_untraced(workload, seconds):
    """Time :data:`SETUPS` set-ups, then measure a ``seconds`` window.

    Returns ``(phase, setups, peak_rss_mb, rss_reset)``, ``setups``
    holding the :func:`timed_setup` pairs.  The memory high-water mark
    restarts after the set-ups, so the peak covers the window's ops.
    """
    from mixbench.workloads import gc_policy

    setups = [timed_setup(workload) for _ in range(SETUPS)]
    rss_reset = reset_peak_rss()
    with gc_policy(workload.single_client):
        phase = workload.measure(seconds)
    return phase, setups, peak_rss_mb(), rss_reset


def end_to_end(phase, setups, rss_mb):
    from mixbench.metrics import tail

    per_op = phase.per_op_counters()
    statements = per_op.get("statements", per_op["sql_queries"])
    tail_value, tail_p, beyond = tail(phase.latencies)
    setup_times = [reference for reference, _ in setups]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": phase.ops / phase.seconds,
        "op_p50_ms": statistics.median(phase.latencies) * 1000.0,
        "op_tail_ms": tail_value * 1000.0,
        "tuples_shipped_per_op": per_op["tuples_shipped"],
        "sql_per_op": statements,
        "peak_rss_mb": rss_mb,
    }
    detail = {
        "op_tail_percentile": tail_p,
        "op_tail_beyond": beyond,
        "op_samples": len(phase.latencies),
        "failed_frac": phase.outcome.failed_frac,
        "gc_collect_s_per_op": phase.gc_seconds / phase.ops,
        "setup_times_s": setup_times,
        "wall": {
            "setup_s": statistics.median(wall for _, wall in setups),
            "ops_per_s": phase.ops / phase.raw_seconds,
            "op_p50_ms": statistics.median(phase.raw_latencies) * 1000.0,
            "op_tail_ms": tail(phase.raw_latencies)[0] * 1000.0,
        },
    }
    if phase.write_latencies:
        detail["write_p50_ms"] = (
            statistics.median(phase.write_latencies) * 1000.0)
        detail["write_samples"] = len(phase.write_latencies)
    return metrics, detail


def per_layer(phase, untraced, tracer):
    """Per-op layer metrics of a traced ``phase``."""
    from mixbench.metrics import self_times, split

    spans = [span for span in tracer.spans if span[2] is not None]
    times = self_times(spans)
    ops = times["op"][2]
    wall = sum(span[5] - span[4] for span in spans if span[3] == "op")
    c = phase.per_op_counters()
    out = {}
    for prefix, names in TIMED:
        total = [0.0, 0.0, 0]
        for name in names:
            entry = times.get(name)
            if entry:
                total = [a + b for a, b in zip(total, entry)]
        self_s, busy_s, wait_s = split(total)
        out[prefix + ".self_s"] = self_s / ops
        out[prefix + ".busy_s"] = busy_s / ops
        out[prefix + ".wait_s"] = wait_s / ops
        if prefix in COUNTED_CALLS:
            out[prefix + ".calls"] = total[2] / ops
    layer_sum = sum(out[p + ".self_s"] for p, _ in TIMED)
    # Every span of an op nests under its root, so the self times
    # (root included, as "unattributed") partition the op wall time.
    balance = wall / ops - layer_sum

    def frac(hits, misses):
        lookups = c[hits] + c[misses]
        return c[hits] / lookups if lookups else 0.0

    shipped = c["tuples_shipped"]
    out.update({
        "qdom.commands": c["qdom_commands"],
        "qdom.shipped_per_visit": (
            shipped / (phase.visits / phase.ops) if phase.visits else 0.0),
        "cache.plan.hit_frac": frac("plan_cache_hits", "plan_cache_misses"),
        "cache.memo.hit_frac": frac("nav_memo_hits", "nav_memo_misses"),
        "cache.sql.hit_frac": frac("sql_cache_hits", "sql_cache_misses"),
        "cache.invalidations": (c["plan_cache_invalidations"]
                                + c["nav_memo_invalidations"]
                                + c["sql_cache_invalidations"]),
        "cache.evictions": (c["plan_cache_evictions"]
                            + c["nav_memo_evictions"]
                            + c["sql_cache_evictions"]),
        "engine.operator_tuples": c["operator_tuples"],
        "engine.elements_built": c["elements_built"],
        "engine.blocks_shipped": c["blocks_shipped"],
        "xmltree.nodes_built": c["nodes_built"],
        "xmltree.force.wait_s": out["engine.force.wait_s"],
        "relational.rows_scanned": c["rows_scanned"],
        "relational.join_tuples": c["join_tuples"],
        "relational.scanned_per_shipped": (
            c["rows_scanned"] / shipped if shipped else 0.0),
        "sources.rtt_wait_s": out["sources.rtt.self_s"],
        "server.rejected": c["serve_rejected"],
        "obs.incr.calls": c["incr_calls"],
        "obs.spans.opened": c["obs_spans"],
        "op.wall_s": wall / ops,
        # From the untraced half: every collection there also walks
        # the traced half's span list.
        "gc.collect_s": untraced.gc_seconds / untraced.ops,
        "trace.ops_per_s": phase.ops / phase.seconds,
        "trace.untraced_ops_per_s": untraced.ops / untraced.seconds,
    })
    out["trace.overhead_frac"] = (
        out["trace.untraced_ops_per_s"] / out["trace.ops_per_s"] - 1.0)
    return out, {"trace_balance_s": balance, "traced_ops": ops,
                 "spans": len(tracer.spans)}


def unit_of(name):
    if name.endswith("ops_per_s"):
        return "ops/s"
    suffix = name.rsplit(".", 1)[-1]
    if suffix in PER_LAYER_UNITS:
        return PER_LAYER_UNITS[suffix]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac") or name.endswith("per_shipped") or \
            name.endswith("per_visit"):
        return "1"
    return "count"


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print("mixbench: cannot import the MIX package from {}: {}".format(
            os.path.join(ROOT, "src"), exc), file=sys.stderr)
        return 2
    from mixbench import gauge, trace as tracing
    from mixbench.metrics import Outcome
    from mixbench.workloads import SPEED_INTERVAL, WORKLOADS, gc_policy

    workload = WORKLOADS[args.workload](args.seed)
    # The first set-up also pays one-off imports; it is not measured.
    workload.setup()
    workload.prepare()
    workload.warmup()
    gc.collect()

    tracer = None
    if args.trace:
        with gc_policy(workload.single_client):
            untraced = workload.measure(args.seconds / 2)
        tracer = tracing.Tracer()
        proxy = workload.proxy()
        extra = ((type(proxy), "round_trip", "sources.rtt"),) if proxy \
            else ()
        restore = tracing.install(tracer, extra_methods=extra)
        try:
            with gc_policy(workload.single_client):
                phase = workload.measure(args.seconds / 2, tracer)
        finally:
            restore()
        outcome = Outcome().merge(untraced.outcome).merge(phase.outcome)
    else:
        phase, setups, rss_mb, rss_reset = measure_untraced(
            workload, args.seconds)
        outcome = phase.outcome

    workload.verify(outcome)
    selfcheck = workload.selfcheck()
    repeats = (not workload.single_client
               or (bool(phase.episodes) and phase.episodes_repeat()))

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": held_out_seed(args.seed),
        "host": host(),
        "method": {
            "gc": ("parked: set-up objects frozen, automatic collection "
                   "off, one collection before each op, counted in the "
                   "window but not in op latency"
                   if workload.single_client else
                   "on, with set-up objects frozen (gc.freeze)"),
            "warmup": "one episode (browse), one op (export), 0.5 s "
                      "of both clients (serve), not measured",
            "run_seconds": args.seconds,
            "setup": ("not timed (traced run)" if args.trace else
                      "median of {} fresh set-ups in reference "
                      "seconds, before the window".format(SETUPS)),
            "clock": ("reference seconds: single client, summed op "
                      "and collection time, each scaled by host-speed "
                      "gauge samples taken either side of it; serve, "
                      "the window in pieces of {} s, the clients "
                      "paused for a gauge sample between pieces (wall "
                      "figures under 'wall')".format(SPEED_INTERVAL)),
            "gauge_reference_s": gauge.REFERENCE_S,
            "traced": bool(args.trace),
        },
        "oracle_selfcheck_counted": selfcheck,
        "counters_repeat_per_episode": (
            repeats if workload.single_client else "n/a (two clients)"),
        "attempted": outcome.attempted,
        "errors": outcome.errors,
        "refused": outcome.refused,
        "wrong": outcome.wrong,
    }
    if args.trace:
        metrics, detail = per_layer(phase, untraced, tracer)
        record.update(detail)
        balanced = abs(detail["trace_balance_s"]) <= 1e-6 * max(
            metrics["op.wall_s"], 1e-9)
        record["trace_balanced"] = balanced
        path = os.path.join(TRACE_DIR, "spans-{}-{}.jsonl".format(
            args.workload, args.seed))
        tracer.dump(path, {"workload": args.workload, "seed": args.seed,
                           "fields": ["span", "parent", "op", "name",
                                      "start", "end", "cpu_start",
                                      "cpu_end"]})
        record["spans_file"] = os.path.relpath(path, ROOT)
    else:
        metrics, detail = end_to_end(phase, setups, rss_mb)
        record.update(detail)
        record["method"]["peak_rss"] = (
            "high-water mark of the measured window" if rss_reset else
            "high-water mark of the whole process")
        balanced = True
    if workload.single_client:
        record["exact_counters_per_op"] = {
            k: v for k, v in phase.per_op_counters().items()
            if k in ("tuples_shipped", "sql_queries", "qdom_commands",
                     "nodes_built", "incr_calls")
        }

    correct = (outcome.failed == 0 and selfcheck and repeats and balanced)
    units = {name: dict(END_TO_END).get(name) or unit_of(name)
             for name in metrics}
    for name, value in metrics.items():
        print(LINE.format(name, value, units[name]))
    for name, unit in (("failed_frac", "1"), ("write_p50_ms", "ms")):
        if name in detail:
            print(LINE.format(name, detail[name], unit))
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def run_child(workload, seed, seconds, trace):
    """Run one workload in a child process.

    Returns ``(result, record, lines)``: the result object, the
    ``record`` and every line printed before the result.  Raises
    ``RuntimeError`` when the child fails or prints nothing.
    """
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError("{} run failed ({}): {}".format(
            workload, done.returncode, done.stderr[-2000:]))
    record = next(json.loads(line)["record"] for line in lines
                  if line.startswith('{"record"'))
    return json.loads(lines[-1]), record, lines[:-1]


def run_all(args):
    """Run every workload in its own process, one after the other, and
    print a combined result with metrics named ``<workload>.<metric>``."""
    combined = {"correct": True, "attempted": 0, "failed": 0,
                "metrics": {}}
    for name in WORKLOAD_NAMES:
        try:
            result, _, lines = run_child(name, args.seed, args.seconds,
                                         args.trace)
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            return 1
        print("== {} ==".format(name))
        print("\n".join(lines))
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"]["{}.{}".format(name, metric)] = value
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())

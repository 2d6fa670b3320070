"""Repeat the benchmark and report each metric's spread.

Usage (from the repository root)::

    python3 mixbench/repeat.py --workload browse --seeds 1-10
    python3 mixbench/repeat.py --workload export --seeds 7,7,7

Runs ``mixbench/run.py`` once per seed, one run at a time, and prints
per metric the median and the interquartile distance over the median
(``statistics.quantiles(values, n=4)``), next to the bound that
``BENCHMARK.json`` fixes.  When a seed repeats, the exact counters of
its runs (``record.exact_counters_per_op``) must be identical; the
script exits 1 if they are not, or if any run fails or is incorrect.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from mixbench.metrics import quartile_spread  # noqa: E402
from mixbench.run import run_child  # noqa: E402


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            low, high = part.split("-")
            seeds.extend(range(int(low), int(high) + 1))
        else:
            seeds.append(int(part))
    return seeds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values = {}
    exact = {}
    ok = True
    for seed in parse_seeds(args.seeds):
        result, record, _ = run_child(args.workload, seed, seconds,
                                      args.trace)
        ok = ok and result["correct"] and result["failed"] == 0
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        counters = record.get("exact_counters_per_op")
        if exact.setdefault(seed, counters) != counters:
            print("seed {}: exact counters differ: {} vs {}".format(
                seed, exact[seed], counters))
            ok = False
        print("seed {:>4} correct={} attempted={} failed={} {}".format(
            seed, result["correct"], result["attempted"],
            result["failed"], " ".join(
                "{}={:.4g}".format(name, metric["value"])
                for name, metric in result["metrics"].items()
                if name in bounds)), flush=True)
    for name, series in values.items():
        spread = (quartile_spread(series) if len(series) > 1
                  else float("nan"))
        bound = bounds.get(name)
        flag = ""
        if bound is not None and spread > bound:
            flag = "  OVER BOUND"
            ok = False
        elif bound is not None and spread > bound / 3:
            flag = "  over a third of the bound"
        print("{:34s} median={:<14.6g} spread={:.4f} bound={}{}".format(
            name, statistics.median(series), spread, bound, flag))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

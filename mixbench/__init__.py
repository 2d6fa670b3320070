"""The MIX benchmark: ``browse``, ``export`` and ``serve`` workloads.

Run one workload with ``python3 mixbench/run.py --workload browse``;
see ``mixbench/README.md`` for what each workload measures.
"""

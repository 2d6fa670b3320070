"""Tests of the benchmark's own helpers.

Run with ``python3 -m pytest mixbench/tests -q`` from the repository
root.
"""

from __future__ import annotations

import threading
import time

import pytest

from mixbench import gauge, metrics
from mixbench.metrics import Outcome, self_times, split, tail
from mixbench.trace import Tracer


# -- the op_tail_ms percentile rule ------------------------------------------------


@pytest.mark.parametrize("n,p,beyond", [
    (40, 0.75, 10),
    (99, 0.75, 24),      # p90 would leave only 9 beyond it
    (100, 0.9, 10),      # exactly ten beyond p90
    (999, 0.9, 99),      # p99 would leave 9 beyond
    (1000, 0.99, 10),
    (9999, 0.99, 99),
    (10000, 0.999, 10),
])
def test_tail_picks_highest_percentile_with_ten_beyond(n, p, beyond):
    value, chosen, counted = tail(range(1, n + 1))
    assert (chosen, counted) == (p, beyond)
    assert value == metrics.rank(p, n)   # samples are 1..n
    assert n - value == beyond


def test_tail_falls_back_to_max_below_forty_samples():
    # 39 samples: p75 would leave only 9 beyond it.
    assert tail([5.0, 1.0, 3.0] * 13) == (5.0, 1.0, 0)


def test_tail_ignores_input_order():
    values = list(range(1000))
    assert tail(values) == tail(list(reversed(values)))


# -- reference seconds ------------------------------------------------------------


def test_scale_divides_by_the_mean_of_the_samples_either_side():
    ref = gauge.REFERENCE_S
    assert gauge.scale(1.0, ref, ref) == pytest.approx(1.0)
    assert gauge.scale(1.0, 2 * ref, 2 * ref) == pytest.approx(0.5)
    assert gauge.scale(3.0, ref, 2 * ref) == pytest.approx(2.0)


def test_phase_scales_each_op_by_the_samples_around_it(monkeypatch):
    from mixbench.workloads import Phase

    ref = gauge.REFERENCE_S
    samples = iter([ref, 2 * ref, 2 * ref, 4 * ref])
    monkeypatch.setattr(gauge, "sample", lambda: next(samples))
    phase = Phase()
    phase.begin_op()
    phase.end_op(0.3, True)      # host slows mid-op: scaled by 1.5
    phase.begin_op()
    phase.end_op(0.4, True)      # at half speed throughout
    phase.begin_op()
    phase.end_op(0.6, False)     # failed: no latency, still in window
    phase.close()
    assert phase.latencies == pytest.approx([0.2, 0.2])
    assert phase.raw_latencies == [0.3, 0.4]
    assert phase.ops == 2
    scaled_ops = 0.2 + 0.2 + 0.6 / 3
    assert phase.seconds - phase.gc_seconds == pytest.approx(scaled_ops)
    assert phase.raw_seconds >= 1.3


# -- self, busy and wait time ------------------------------------------------------


def span(sid, parent, name, start, end, cpu0, cpu1, op=1):
    return (sid, parent, op, name, start, end, cpu0, cpu1)


def test_self_time_subtracts_children_at_every_level():
    spans = [
        span(1, 0, "op", 0.0, 10.0, 0.0, 6.0),
        span(2, 1, "a", 1.0, 7.0, 1.0, 5.0),
        span(3, 2, "b", 2.0, 4.0, 2.0, 3.0),
        span(4, 2, "b", 5.0, 6.0, 3.5, 4.0),
    ]
    times = self_times(spans)
    assert split(times["op"]) == (4.0, 2.0, 2.0)
    assert split(times["a"]) == (3.0, 2.5, 0.5)
    assert split(times["b"]) == (3.0, 1.5, 1.5)
    assert times["b"][2] == 2
    # The self times partition the root's wall time.
    assert sum(t[0] for t in times.values()) == 10.0


def test_spans_of_two_threads_stay_apart():
    # Two ops overlapping in time on two threads: each parent only
    # loses its own children, whatever the interleaving.
    spans = [
        span(1, 0, "op", 0.0, 4.0, 0.0, 1.0, op=1),
        span(2, 0, "op", 1.0, 5.0, 10.0, 13.0, op=2),
        span(3, 1, "x", 0.5, 3.5, 0.2, 0.9, op=1),
        span(4, 2, "x", 1.5, 2.0, 10.5, 11.0, op=2),
    ]
    times = self_times(spans)
    assert split(times["x"]) == pytest.approx((3.5, 1.2, 2.3))
    assert split(times["op"]) == pytest.approx((4.5, 2.8, 1.7))


def test_tracer_splits_busy_from_waited_time_per_thread():
    tracer = Tracer()

    def work(op_id):
        token = tracer.begin_op(op_id)
        inner = tracer.open("sleep")
        time.sleep(0.05)
        tracer.close(inner)
        inner = tracer.open("spin")
        until = time.thread_time() + 0.02
        while time.thread_time() < until:
            pass
        tracer.close(inner)
        tracer.end_op(token)

    threads = [threading.Thread(target=work, args=(i,)) for i in (1, 2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()
    assert {s[2] for s in tracer.spans} == {1, 2}
    for op_id in (1, 2):
        own = [s for s in tracer.spans if s[2] == op_id]
        times = self_times(own)
        root = next(s for s in own if s[3] == "op")
        assert sum(t[0] for t in times.values()) == pytest.approx(
            root[5] - root[4], abs=1e-9)
        sleep_self, sleep_busy, sleep_wait = split(times["sleep"])
        assert sleep_wait >= 0.045 and sleep_busy < 0.02
        spin_self, spin_busy, _ = split(times["spin"])
        assert spin_busy >= 0.019 and spin_self >= spin_busy - 1e-3


# -- failed_frac -------------------------------------------------------------------


def test_refusals_count_as_failures():
    outcome = Outcome()
    for _ in range(8):
        outcome.attempt()
    outcome.refuse()
    outcome.error()
    outcome.mismatch()
    assert outcome.failed == 3
    assert outcome.failed_frac == 3 / 8


def test_serve_counts_a_busy_reply_as_failed():
    from mixbench.workloads import Serve

    serve = Serve(seed=1)
    outcome = Outcome()
    outcome.attempt()
    assert not serve.check(
        {"ok": False, "error": {"code": "MIX-E-BUSY"}}, outcome)
    assert serve.check({"ok": True, "result": {}}, outcome)
    assert outcome.failed_frac == 1.0


def test_serve_counts_a_corrupted_served_answer_as_wrong():
    from mixbench.workloads import Serve

    serve = Serve(seed=1)
    assert not serve.selfcheck()     # no served answer checked yet
    outcome = Outcome()
    serve.compare("<a>1</a>", "<a>1</a>", outcome)
    assert outcome.wrong == 0
    serve.compare("<a>2</a>", "<a>1</a>", outcome)
    assert outcome.wrong == 1
    serve.checked_sample = ("<a>1</a>", "<a>1</a>")
    assert serve.selfcheck()


def test_observe_counts_a_wrong_answer_and_verify_blames_matches():
    from mixbench.workloads import Workload

    class Fixed(Workload):
        def oracle(self):
            return {"a": 1, "b": 3}

    workload = Fixed(seed=1)
    workload.reference = {"a": 1, "b": 2}
    outcome = Outcome()
    for answer in (1, 1, 5):
        outcome.attempt()
        workload.observe("a", answer, outcome)
    assert outcome.wrong == 1
    workload.verify(outcome)     # "b" never ran but is wrong: one more
    assert outcome.wrong == 2


# -- the tracer's patches ----------------------------------------------------------


def test_install_patches_names_imported_by_name_and_restores_them():
    import repro.qdom.mediator as mediator_module
    from mixbench import trace

    originals = {name: getattr(mediator_module, name) for name in (
        "parse_xquery", "push_to_sources", "decontextualize",
        "compose_at_root")}
    tracer = Tracer()
    restore = trace.install(tracer)
    try:
        for name, original in originals.items():
            assert getattr(mediator_module, name) is not original
        from repro import Mediator
        from repro.workloads import build_customers_orders

        built = build_customers_orders(n_customers=3,
                                       orders_per_customer=2)
        mediator = Mediator(stats=built.stats).add_source(built.wrapper)
        token = tracer.begin_op(1)
        mediator.query("FOR $C IN document(root1)/customer RETURN $C"
                       ).walk(None)
        tracer.end_op(token)
    finally:
        restore()
    for name, original in originals.items():
        assert getattr(mediator_module, name) is original
    names = {s[3] for s in tracer.spans}
    assert {"xquery.parse", "algebra.translate", "rewriter.rewrite",
            "rewriter.push_sql", "relational.execute", "qdom.walk",
            "engine.evaluate"} <= names
    assert tracer.counts()["nodes_built"] > 0


# -- the round-trip proxy ------------------------------------------------------------


def test_rtt_proxy_keeps_rtt_forwards_the_rest_and_pays_per_block(
        monkeypatch):
    from repro import Database

    from mixbench import proxy as proxy_module

    database = Database("t")
    database.run("CREATE TABLE t (k INT, PRIMARY KEY (k))")
    for k in range(130):
        database.run("INSERT INTO t VALUES ({})".format(k))
    remote = proxy_module.RttDatabase(database, 0.0)
    remote.rtt = 0.001
    remote.optimizer = False
    assert remote.rtt == 0.001 and not hasattr(database, "rtt")
    assert database.optimizer is False

    trips = []
    monkeypatch.setattr(remote.__class__, "round_trip",
                        lambda self: trips.append(1))
    rows = [row[0] for row in remote.execute("SELECT k FROM t")]
    assert rows == list(range(130))
    # One trip for the statement, then 64 + 64 + 2 rows in three blocks.
    assert len(trips) == 4
    assert remote.statements == 1

"""Concurrent forcing of lazy answers: isolation and nested-forcing safety.

Each lazy answer single-flights its own tails (one lock per engine
answer, one per ``MediatorSource`` mirror node), so:

* a session forcing an answer over a slow source never stalls a session
  forcing an unrelated answer;
* threads racing over one shared answer — its root tail and its nested
  ``CustRec`` tails — across a two-tier mediator stack neither corrupt
  it, nor resume a generator twice, nor deadlock.
"""

from __future__ import annotations

import sys
import threading
import time

from repro import Instrument, Mediator, RelationalWrapper
from repro.server import LoopbackClient, MediatorService
from repro.sources import MediatorSource
from repro.xmltree import serialize

from tests.conftest import Q1, make_paper_db, make_scaled_wrapper

SLOW_SECONDS = 1.0

CUSTOMERS = "FOR $C IN document({})/customer RETURN $C"


class SlowWrapper(RelationalWrapper):
    """A wrapper whose statements sleep ``delay`` seconds once armed."""

    def __init__(self, database, server_name, delay):
        super().__init__(database, server_name=server_name)
        self.delay = delay
        self.armed = threading.Event()
        self.sleeping = threading.Event()

    def execute_sql(self, sql):
        if self.armed.is_set():
            self.sleeping.set()
            time.sleep(self.delay)
        return super().execute_sql(sql)


def test_slow_answer_does_not_stall_an_unrelated_session():
    stats = Instrument()
    slow = SlowWrapper(make_paper_db(stats=stats), "slow", SLOW_SECONDS)
    slow.register_document("slowcust", "customer")
    fast = RelationalWrapper(make_paper_db(stats=stats), server_name="fast")
    fast.register_document("fastcust", "customer")
    mediator = (
        Mediator(stats=stats, cache=True).add_source(slow).add_source(fast)
    )
    service = MediatorService(mediator)
    outcome = {}

    def session_a():
        with LoopbackClient(service) as client:
            session = client.call("open")["session"]
            root = client.call(
                "query", session=session, query=CUSTOMERS.format("slowcust")
            )
            slow.armed.set()  # only forcing, not compiling, sleeps
            outcome["a"] = client.call(
                "d", session=session, node=root["node"]
            )

    thread_a = threading.Thread(target=session_a, daemon=True)
    thread_a.start()
    assert slow.sleeping.wait(10), "session A never reached its source"
    with LoopbackClient(service) as client:
        session = client.call("open")["session"]
        started = time.perf_counter()
        root = client.call(
            "query", session=session, query=CUSTOMERS.format("fastcust")
        )
        xml = client.call("tree", session=session, node=root["node"])["xml"]
        elapsed = time.perf_counter() - started
    thread_a.join(10 * SLOW_SECONDS)
    assert not thread_a.is_alive()
    assert outcome["a"]["label"] == "customer"
    assert "DEFCorp." in xml
    # Session B forced its own answer while A's force sat in a 1 s
    # source call: B must not have waited behind it.
    assert elapsed < 0.3, "unrelated force took {:.3f}s".format(elapsed)


# -- nested forcing over a two-tier stack -------------------------------------

UPPER = "FOR $R IN document(custview)/CustRec RETURN $R"
LOWER_CUSTOMERS = "FOR $C IN document(root1)/customer RETURN $C"
JOIN_TIMEOUT = 60.0
ROUNDS = 6


def _stack(lazy, block_size, stats=None):
    """``(lower, upper)`` mediators: the upper reads the lower's Q1 view
    through a :class:`MediatorSource`; both tiers are cached."""
    lower = Mediator(
        stats=stats, lazy=lazy, cache=True, block_size=block_size
    ).add_source(make_scaled_wrapper(12, 3, stats=stats))
    source = MediatorSource(lower, stats=stats).register_view("custview", Q1)
    upper = Mediator(
        stats=stats, lazy=lazy, cache=True, block_size=block_size
    ).add_source(source)
    return lower, upper


def _oracle():
    lower, upper = _stack(lazy=False, block_size=1)
    return {
        "upper": serialize(upper.query(UPPER).to_tree()),
        "q1": serialize(lower.query(Q1).to_tree()),
        "customers": serialize(lower.query(LOWER_CUSTOMERS).to_tree()),
    }


def _walk_root(root):
    """Force the root tail one ``r`` at a time."""
    node = root.d()
    while node is not None:
        node = node.r()


def _nested_first(root):
    """Force each ``CustRec`` tail as soon as the root yields it, while
    other threads are still pulling the root tail."""
    node = root.d()
    while node is not None:
        node.to_tree()
        node = node.r()


def _run_round(block_size, expected):
    stats = Instrument()
    lower, upper = _stack(lazy=True, block_size=block_size, stats=stats)
    # Shared the way the navigation memo shares answers: one root, many
    # threads.  The lower Q1 answer is shared for real — the lower memo
    # hands the same root to every lower.query(Q1) and to the
    # MediatorSource that the upper answer reads through.
    shared_upper = upper.query(UPPER)
    shared_q1 = lower.query(Q1)
    barrier = threading.Barrier(10)
    results = []
    errors = []

    def worker(name, key, make_root, action):
        try:
            barrier.wait(JOIN_TIMEOUT)
            root = make_root()
            if action is not None:
                action(root)
            results.append((name, key, serialize(root.to_tree())))
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append((name, repr(exc)))

    plan = [
        ("upper-root-1", "upper", lambda: shared_upper, _walk_root),
        ("upper-root-2", "upper", lambda: shared_upper, _walk_root),
        ("upper-nested-1", "upper", lambda: shared_upper, _nested_first),
        ("upper-nested-2", "upper", lambda: shared_upper, _nested_first),
        ("upper-fresh", "upper", lambda: upper.query(UPPER), _nested_first),
        ("q1-root", "q1", lambda: lower.query(Q1), _walk_root),
        ("q1-nested-1", "q1", lambda: shared_q1, _nested_first),
        ("q1-nested-2", "q1", lambda: lower.query(Q1), _nested_first),
        ("customers-1", "customers",
         lambda: lower.query(LOWER_CUSTOMERS), _walk_root),
        ("customers-2", "customers",
         lambda: lower.query(LOWER_CUSTOMERS), None),
    ]
    threads = [
        threading.Thread(target=worker, args=spec, daemon=True, name=spec[0])
        for spec in plan
    ]
    for thread in threads:
        thread.start()
    deadline = time.monotonic() + JOIN_TIMEOUT
    for thread in threads:
        thread.join(max(0.0, deadline - time.monotonic()))
    hung = [thread.name for thread in threads if thread.is_alive()]
    assert not hung, "threads never joined (deadlock?): {}".format(hung)
    assert not errors, errors
    assert len(results) == len(plan)
    for name, key, xml in results:
        assert xml == expected[key], "{} diverged from the oracle".format(name)


def test_nested_forcing_over_a_two_tier_stack_is_safe():
    expected = _oracle()
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for block_size in (1, 8):
            for _ in range(ROUNDS):
                _run_round(block_size, expected)
    finally:
        sys.setswitchinterval(previous)

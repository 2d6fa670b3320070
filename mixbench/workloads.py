"""The three workloads: ``browse``, ``export`` and ``serve``.

All three run over the seeded customers/orders instance (300 customers
x 6 orders, ``value_mode="ladder"``, block width 64).  The workload
seed makes every input — thresholds, hop counts, compose positions,
zipf picks, write keys, the wide table's values — and the program only
receives those inputs.

Each workload answers to the eager engine (``Mediator(lazy=False)``),
the repository's correctness oracle, outside the timed region: a
mismatching op counts as failed.

Why these three:

* ``browse`` — one client replays the BBQ session of the paper's
  sections 1-2.  In-place and composed queries bypass the plan cache,
  so every interaction pays the compile pipeline and selective pushed
  SQL while navigation and answer construction stay small.
* ``export`` — one client, caches off, walks two whole answers: compile
  is under 1% of an op; the time goes to block handlers, rQ element
  assembly, cursor fetches and the vtree walk — the cold path every
  cache miss pays.
* ``serve`` — two closed-loop clients through the wire protocol share
  one cached mediator over a database 2 ms away, with 5% writes: the
  only workload that runs sessions, admission, the caches under
  invalidation and two sessions at once.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import itertools
import random
import threading
import time

from mixbench import gauge
from mixbench.metrics import Outcome

N_CUSTOMERS = 300
ORDERS_PER = 6
WIDE_ROWS = 1500
WIDE_COLS = 10
#: Thresholds are drawn below this bound.  Ladder order values are the
#: multiples of 100 up to 600, so an answer only depends on which
#: 100-wide bin a threshold falls in; strata that tile the bins evenly
#: give every seed the same mix of selectivities.
THRESHOLD_BOUND = 600

#: Fig. 3 — the running-example view.
VIEW_QUERY = """
FOR $C IN source(root1)/customer
    $O IN document(root2)/order
WHERE $C/id/data() = $O/cid/data()
RETURN <CustRec> $C <OrderInfo> $O </OrderInfo> {$O} </CustRec> {$C}
"""

#: Fig. 8 — the in-place query issued from a CustRec.
INPLACE_QUERY = """
FOR $O IN document(root)/OrderInfo
WHERE $O/order/value/data() > {t}
RETURN $O
"""

#: Fig. 12 — the composition query issued from the view root.
COMPOSE_QUERY = """
FOR $R IN document(root)/CustRec
    $S IN $R/OrderInfo
WHERE $S/order/value/data() > {t}
RETURN $R
"""

SCAN_QUERY = "FOR $R IN document(wide)/rec RETURN $R"

#: ``serve`` query templates (x 100 thresholds = 300 query texts).
SERVE_TEMPLATES = (
    """
    FOR $C IN source(root1)/customer
        $O IN document(root2)/order
    WHERE $C/id/data() = $O/cid/data() AND $O/value/data() > {t}
    RETURN <CustRec> $C <OrderInfo> $O </OrderInfo> {{$O}} </CustRec> {{$C}}
    """,
    """
    FOR $O IN document(root2)/order
    WHERE $O/value/data() > {t}
    RETURN <Big> $O </Big>
    """,
    """
    FOR $C IN source(root1)/customer
        $O IN document(root2)/order
    WHERE $C/id/data() = $O/cid/data() AND $O/value/data() < {t}
    RETURN <CustRec> $C <OrderInfo> $O </OrderInfo> {{$O}} </CustRec> {{$C}}
    """,
)
SERVE_THRESHOLDS = 100
ZIPF_S = 1.1
WRITE_SHARE = 0.05
RTT_SECONDS = 0.002
SERVE_CLIENTS = 2
SERVE_MAX_HOPS = 5
SERVE_WALK = 50
#: A client closes its session and opens a new one this often, so the
#: handle table (and the answers it pins) stays bounded.
SESSION_INTERACTIONS = 50
#: ``serve`` pauses both clients this often to sample the host speed.
SPEED_INTERVAL = 0.5
#: Seconds a ``serve`` thread waits for the others between pieces
#: before the run is given up.
GATE_TIMEOUT = 60.0
#: Interactions per client whose mix is fixed (see :func:`serve_block`).
SERVE_BLOCK = 100
VERIFY_HOT = 12
VERIFY_SAMPLE = 4

#: A single-client window ends after its length in reference seconds
#: (see :mod:`mixbench.gauge`), or after this many times that length in
#: wall seconds, whichever comes first.
WALL_CAP = 2.0

BROWSE_EPISODE = 20
BROWSE_MAX_HOPS = 20
BROWSE_COMPOSE_SHARE = 0.3
BROWSE_WALK = 30


def stratified(rng, n, low, high):
    """``n`` shuffled ints in ``[low, high)``, one per equal stratum.

    Every seed draws from the same strata, so seeds change which value
    lands where but not the mix — per-run figures stay comparable
    across seeds.
    """
    width = (high - low) / n
    values = [low + int((k + rng.random()) * width) for k in range(n)]
    rng.shuffle(values)
    return values


@contextlib.contextmanager
def gc_policy(parked):
    """The timed window's GC policy.

    Everything alive before the window (data, wrappers, mediator) is
    frozen out of collection.  ``parked`` (single-client workloads)
    also turns automatic collection off: each op then starts with an
    explicit collection (:meth:`Phase.begin_op`), so a full collection
    never lands inside one op and not the next; its time still counts
    in the window.  ``serve`` keeps collection on, as a deployed server
    does.
    """
    gc.collect()
    gc.freeze()
    if parked:
        gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.unfreeze()


def build_data(seed):
    """The customers/orders instance (returns ``BuiltWorkload``)."""
    from repro.workloads import build_customers_orders

    return build_customers_orders(
        n_customers=N_CUSTOMERS, orders_per_customer=ORDERS_PER,
        value_mode="ladder", seed=seed,
    )


def plain_wrapper(database):
    """A fresh wrapper over ``database`` with no SQL cache attached."""
    from repro import RelationalWrapper

    return (RelationalWrapper(database)
            .register_document("root1", "customer")
            .register_document("root2", "orders", element_label="order"))


def eager_mediator(*wrappers):
    """The oracle: an eager, uncached mediator over fresh wrappers."""
    from repro import Instrument, Mediator

    mediator = Mediator(stats=Instrument(), lazy=False)
    for wrapper in wrappers:
        mediator.add_source(wrapper)
    return mediator


def serialized(qdom_node):
    from repro.xmltree import serialize

    return serialize(qdom_node.to_tree())


class Phase:
    """What one measured window produced.

    Single-client workloads time each op in reference seconds
    (:mod:`mixbench.gauge`): :meth:`begin_op` samples the host speed
    before every op and :meth:`close` once after the last, and each op
    is scaled by the samples either side of it.  ``latencies`` and
    ``seconds`` are then reference seconds, ``raw_latencies`` and
    ``raw_seconds`` wall seconds.  ``serve`` fills the same fields
    piece by piece (see :meth:`Serve.measure`).
    """

    def __init__(self):
        self.latencies = []
        self.raw_latencies = []
        self.write_latencies = []
        self.outcome = Outcome()
        self.seconds = 0.0
        self.raw_seconds = 0.0
        self.visits = 0
        #: Counter deltas per complete episode (single-client workloads).
        self.episodes = []
        self.episode_ops = 0
        #: Counter deltas over the whole window.
        self.window = {}
        #: Seconds of collection between ops (single-client workloads).
        self.gc_seconds = 0.0
        self._speed = None
        self._pending = None

    @property
    def ops(self):
        return len(self.latencies) + len(self.write_latencies)

    def done(self, seconds):
        """Whether a single-client window of ``seconds`` is over.

        The window is measured in reference seconds, so a run does the
        same number of ops however fast the host runs (and the tail
        percentile the sample count picks stays put); a stall cannot
        stretch it past :data:`WALL_CAP` times ``seconds`` of wall time.
        """
        return (self.seconds >= seconds
                or self.raw_seconds >= WALL_CAP * seconds)

    def begin_op(self):
        """Collect garbage, then sample the host speed, before an op.

        The collection is not part of any op's latency, but it is
        charged to the window (``seconds``, hence ``ops_per_s``): the
        cyclic garbage the program leaves is the program's cost.  The
        sample also settles the op before.
        """
        began = time.perf_counter()
        gc.collect()
        collected = time.perf_counter() - began
        speed = gauge.sample()
        self._settle(speed)
        self._speed = speed
        scaled = gauge.scale(collected, speed, speed)
        self.gc_seconds += scaled
        self.seconds += scaled
        self.raw_seconds += collected

    def end_op(self, elapsed, ok):
        """Record an op of ``elapsed`` wall seconds; a failed op
        (``ok`` false) counts in the window but has no latency."""
        self.raw_seconds += elapsed
        self._pending = elapsed, ok

    def close(self):
        """Settle the last op with one more speed sample."""
        self._settle(gauge.sample())

    def _settle(self, speed):
        if self._pending is None:
            return
        elapsed, ok = self._pending
        self._pending = None
        scaled = gauge.scale(elapsed, self._speed, speed)
        self.seconds += scaled
        if ok:
            self.latencies.append(scaled)
            self.raw_latencies.append(elapsed)

    def per_op_counters(self):
        """Counter deltas per op: over complete episodes when the
        workload has them (so they repeat exactly), else the window."""
        if self.episodes:
            total = {}
            for delta in self.episodes:
                for key, value in delta.items():
                    total[key] = total.get(key, 0) + value
            return {k: v / self.episode_ops for k, v in total.items()}
        ops = max(self.ops, 1)
        return {k: v / ops for k, v in self.window.items()}

    def episodes_repeat(self):
        """Whether every complete episode moved every counter equally."""
        return all(delta == self.episodes[0] for delta in self.episodes)


COUNTERS = (
    "tuples_shipped", "sql_queries", "qdom_commands", "rows_scanned",
    "join_tuples", "operator_tuples", "elements_built", "blocks_shipped",
    "plan_cache_hits", "plan_cache_misses", "nav_memo_hits",
    "nav_memo_misses", "sql_cache_hits", "sql_cache_misses",
    "plan_cache_invalidations", "nav_memo_invalidations",
    "sql_cache_invalidations", "plan_cache_evictions",
    "nav_memo_evictions", "sql_cache_evictions", "serve_rejected",
)


def snapshot(stats, tracer, proxy=None):
    values = {name: stats.get(name) for name in COUNTERS}
    if tracer is not None:
        values.update(tracer.counts())
    if proxy is not None:
        values["statements"] = proxy.statements
    return values


def delta(after, before):
    return {k: after[k] - before.get(k, 0) for k in after}


class _OpSpan:
    """The root span of one op (no-op without a tracer)."""

    __slots__ = ("tracer", "op_id", "token")

    def __init__(self, tracer, op_id):
        self.tracer = tracer
        self.op_id = op_id

    def __enter__(self):
        if self.tracer is not None:
            self.token = self.tracer.begin_op(self.op_id)

    def __exit__(self, *exc):
        if self.tracer is not None:
            self.tracer.end_op(self.token)


class Workload:
    """Base: ``setup`` builds, ``prepare`` makes the inputs, ``measure``
    runs a window, ``verify`` consults the oracle afterwards.

    Single-client workloads replay identical ops, so the warm-up's
    answers become the *reference*: each measured op is compared with
    it on the spot (a cheap equality), and :meth:`verify` compares the
    reference with the eager engine once, after the timed region.  A
    wrong reference fails every op that matched it.
    """

    name = None
    single_client = True

    def __init__(self, seed):
        self.seed = seed
        self.rng = random.Random(seed)
        self.reference = None
        self.matched = {}

    def warmup(self):
        self.measure(0.0)

    def prepare(self):
        """Generate the inputs (after setup, before the warm-up)."""

    def observe(self, key, answer, outcome):
        """Compare one op's answer with the reference answer at ``key``."""
        expected = self.reference[key]
        if answer != expected:
            outcome.mismatch()
        else:
            self.matched[key] = self.matched.get(key, 0) + 1

    def verify(self, outcome):
        """Oracle checks left for after the timed region."""
        for key, expected in self.oracle().items():
            if self.reference[key] != expected:
                for _ in range(max(1, self.matched.get(key, 0))):
                    outcome.mismatch()

    def selfcheck(self):
        """Feed the oracle one corrupted answer; it must count it."""
        outcome = Outcome()
        outcome.attempt()
        key, answer = self.corrupted()
        self.observe(key, answer, outcome)
        return outcome.failed == 1

    def proxy(self):
        return None


# -- browse ---------------------------------------------------------------------


class BrowseStep:
    __slots__ = ("hops", "inplace_t", "compose_t")

    def __init__(self, hops, inplace_t, compose_t):
        self.hops = hops
        self.inplace_t = inplace_t
        self.compose_t = compose_t


def browse_episode(rng, size=BROWSE_EPISODE):
    """One replayable BBQ session of ``size`` interactions."""
    hops = stratified(rng, size, 0, BROWSE_MAX_HOPS + 1)
    inplace = stratified(rng, size, 0, THRESHOLD_BOUND)
    composes = round(size * BROWSE_COMPOSE_SHARE)
    compose_t = stratified(rng, composes, 0, THRESHOLD_BOUND)
    positions = sorted(rng.sample(range(size), composes))
    compose_at = dict(zip(positions, compose_t))
    return [BrowseStep(hops[i], inplace[i], compose_at.get(i))
            for i in range(size)]


def browse_interaction(root, step):
    """Steps 1-4 of a BBQ interaction from the view ``root``.

    Returns ``(transcript, visits, inplace_answer)``.
    """
    node = root.d()
    visits = 1
    for _ in range(step.hops):
        node = node.r()
        visits += 1
    landed = (node.fl(), node.fv())
    answer = node.q(INPLACE_QUERY.format(t=step.inplace_t))
    inplace_steps, _ = answer.walk(None)
    visits += len(inplace_steps)
    compose_steps = None
    if step.compose_t is not None:
        composed = root.q(COMPOSE_QUERY.format(t=step.compose_t))
        compose_steps, _ = composed.walk(BROWSE_WALK)
        visits += len(compose_steps)
    return (step.hops, landed, inplace_steps, compose_steps), visits, answer


class Browse(Workload):
    name = "browse"

    def setup(self):
        self.data = None
        self.data = build_data(self.seed)
        # Set-up time covers one mediator; each episode builds its own.
        self.mediator()

    def mediator(self):
        """A fresh cached mediator: each episode starts cold, so every
        episode repeats the same work exactly."""
        return self.data.mediator(cache=True)

    def prepare(self):
        self.episode = browse_episode(self.rng)

    def oracle(self):
        """Transcripts and serialized in-place answers, eagerly."""
        mediator = eager_mediator(plain_wrapper(self.data.database))
        root = mediator.query(VIEW_QUERY)
        expected = {}
        for index, step in enumerate(self.episode):
            transcript, _, answer = browse_interaction(root, step)
            expected[index] = transcript
            expected["xml", index] = serialized(answer)
        return expected

    def corrupted(self):
        hops, landed, inplace, compose = self.reference[0]
        return 0, (hops, landed, inplace + [[0, "corrupt"]], compose)

    def measure(self, seconds, tracer=None):
        phase = Phase()
        start = snapshot(self.data.stats, tracer)
        self._episodes(phase, seconds, tracer)
        phase.close()
        phase.window = delta(snapshot(self.data.stats, tracer), start)
        return phase

    def _episodes(self, phase, seconds, tracer):
        stats = self.data.stats
        op_id = 0
        while True:
            mediator = self.mediator()
            before = snapshot(stats, tracer)
            reference = {} if self.reference is None else None
            for index, step in enumerate(self.episode):
                op_id += 1
                phase.begin_op()
                phase.outcome.attempt()
                began = time.perf_counter()
                try:
                    with _OpSpan(tracer, op_id):
                        root = mediator.query(VIEW_QUERY)
                        transcript, visits, answer = browse_interaction(
                            root, step)
                except Exception:  # noqa: BLE001 — counted, run goes on
                    phase.end_op(time.perf_counter() - began, False)
                    phase.outcome.error()
                    continue
                phase.end_op(time.perf_counter() - began, True)
                phase.visits += visits
                if reference is not None:
                    reference[index] = transcript
                    reference["xml", index] = serialized(answer)
                else:
                    self.observe(index, transcript, phase.outcome)
            phase.episodes.append(delta(snapshot(stats, tracer), before))
            phase.episode_ops += len(self.episode)
            if reference is not None:
                self.reference = reference
            # Windows end on episode boundaries, so every op counted
            # belongs to a complete episode.
            if phase.done(seconds):
                return


# -- export -----------------------------------------------------------------------


def build_wide(rng, stats):
    """The E-BLOCK wide table, seeded values, exported as ``wide``."""
    from repro import Database

    database = Database("wide", stats=stats)
    database.run("CREATE TABLE wide (id INT, {}, PRIMARY KEY (id))".format(
        ", ".join("f{} INT".format(i) for i in range(WIDE_COLS))))
    for row in range(WIDE_ROWS):
        database.run("INSERT INTO wide VALUES ({}, {})".format(
            row, ", ".join(str(rng.randrange(10 ** 6))
                           for _ in range(WIDE_COLS))))
    return database


def wide_wrapper(database):
    from repro import RelationalWrapper

    return RelationalWrapper(database, server_name="w").register_document(
        "wide", "wide", element_label="rec")


class Export(Workload):
    name = "export"

    def setup(self):
        from repro import Mediator

        self.data = self.wide = self._mediator = None
        self.data = build_data(self.seed)
        self.wide = build_wide(random.Random("{}/wide".format(self.seed)),
                               self.data.stats)
        self._mediator = (Mediator(stats=self.data.stats)
                          .add_source(self.data.wrapper)
                          .add_source(wide_wrapper(self.wide)))

    def run_op(self):
        mediator = self._mediator
        scan, _ = mediator.query(SCAN_QUERY).walk(None)
        view, _ = mediator.query(VIEW_QUERY).walk(None)
        return scan, view

    def oracle(self):
        mediator = eager_mediator(plain_wrapper(self.data.database),
                                  wide_wrapper(self.wide))
        return {
            "walks": (mediator.query(SCAN_QUERY).walk(None)[0],
                      mediator.query(VIEW_QUERY).walk(None)[0]),
            "xml": (serialized(mediator.query(SCAN_QUERY)),
                    serialized(mediator.query(VIEW_QUERY))),
        }

    def corrupted(self):
        scan, view = self.reference["walks"]
        return "walks", (scan[:-1], view)

    def measure(self, seconds, tracer=None):
        phase = Phase()
        stats = self.data.stats
        start = snapshot(stats, tracer)
        op_id = 0
        while not op_id or not phase.done(seconds):
            op_id += 1
            phase.begin_op()
            before = snapshot(stats, tracer)
            phase.outcome.attempt()
            began = time.perf_counter()
            try:
                with _OpSpan(tracer, op_id):
                    walks = self.run_op()
            except Exception:  # noqa: BLE001 — counted, run goes on
                phase.end_op(time.perf_counter() - began, False)
                phase.outcome.error()
                continue
            phase.end_op(time.perf_counter() - began, True)
            phase.visits += len(walks[0]) + len(walks[1])
            phase.episodes.append(delta(snapshot(stats, tracer), before))
            phase.episode_ops += 1
            if self.reference is None:
                self.reference = {
                    "walks": walks,
                    "xml": (serialized(self._mediator.query(SCAN_QUERY)),
                            serialized(self._mediator.query(VIEW_QUERY))),
                }
            else:
                self.observe("walks", walks, phase.outcome)
        phase.close()
        phase.window = delta(snapshot(stats, tracer), start)
        return phase


# -- serve ------------------------------------------------------------------------


def serve_texts():
    """The 300 query texts, hottest first.

    Rank order is fixed (seed-independent) so that seeds change the
    picks, not which query is hot.
    """
    texts = [template.format(t=6 * k + 3)
             for template in SERVE_TEMPLATES
             for k in range(SERVE_THRESHOLDS)]
    random.Random(2002).shuffle(texts)
    return texts


class ServeStep:
    __slots__ = ("write", "text", "hops", "inplace_t", "sql")

    def __init__(self, write=False, text=None, hops=0, inplace_t=None,
                 sql=None):
        self.write = write
        self.text = text
        self.hops = hops
        self.inplace_t = inplace_t
        self.sql = sql


def zipf_sample(rng, n, k):
    """``k`` zipf-distributed ranks in ``[0, n)`` by systematic sampling.

    The ``k`` points ``(i + u) / k`` of one random offset ``u`` are
    mapped through the zipf CDF and shuffled: every rank is picked its
    expected number of times (to within one), so a seed changes the
    order and the tail picks, not the mix.
    """
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(n)]
    total = sum(weights)
    cdf = list(itertools.accumulate(w / total for w in weights))
    offset = rng.random()
    picks = [min(bisect.bisect_left(cdf, (i + offset) / k), n - 1)
             for i in range(k)]
    rng.shuffle(picks)
    return picks


def serve_block(rng, client, texts, first_key):
    """One block of :data:`SERVE_BLOCK` interactions of one client.

    The block's mix is fixed — exactly ``WRITE_SHARE`` writes, zipf
    read picks, hop counts and in-place flags in equal strata — and the
    seed decides their order and values.
    """
    writes = round(SERVE_BLOCK * WRITE_SHARE)
    reads = SERVE_BLOCK - writes
    picks = zipf_sample(rng, len(texts), reads)
    hops = stratified(rng, reads, 0, SERVE_MAX_HOPS + 1)
    inplace = [k % 2 == 0 for k in range(reads)]
    rng.shuffle(inplace)
    write_at = set(rng.sample(range(SERVE_BLOCK), writes))
    block = []
    read = 0
    for k in range(SERVE_BLOCK):
        if k in write_at:
            block.append(ServeStep(write=True, sql=(
                "INSERT INTO orders VALUES ({}, 'C{:06d}', {})".format(
                    10 ** 7 + client * 10 ** 6 + first_key + k,
                    rng.randrange(N_CUSTOMERS),
                    rng.randrange(1, THRESHOLD_BOUND)))))
            continue
        block.append(ServeStep(
            text=texts[picks[read]], hops=hops[read],
            inplace_t=(rng.randrange(THRESHOLD_BOUND) if inplace[read]
                       else None)))
        read += 1
    return block


def serve_script(rng, client, texts, length):
    """One client's interaction script, block by block."""
    script = []
    while len(script) < length:
        script.extend(serve_block(rng, client, texts, len(script)))
    return script


class _Refused(Exception):
    pass


class Serve(Workload):
    name = "serve"
    single_client = False
    SCRIPT_LENGTH = 5000
    #: One ``(served_xml, eager_xml)`` pair kept by :meth:`verify` for
    #: the self-check.
    checked_sample = None

    def setup(self):
        from repro import Mediator, RelationalWrapper
        from repro.server.service import MediatorService

        from mixbench.proxy import RttDatabase

        self.data = build_data(self.seed)
        self.remote = RttDatabase(self.data.database, RTT_SECONDS)
        wrapper = (RelationalWrapper(self.remote)
                   .register_document("root1", "customer")
                   .register_document("root2", "orders",
                                      element_label="order"))
        self.mediator = Mediator(stats=self.data.stats, cache=True,
                                 cache_size=128).add_source(wrapper)
        self.service = MediatorService(self.mediator, database=self.remote)

    def proxy(self):
        return self.remote

    def prepare(self):
        texts = serve_texts()
        self.scripts = [
            serve_script(random.Random("{}/{}".format(self.seed, client)),
                         client, texts, self.SCRIPT_LENGTH)
            for client in range(SERVE_CLIENTS)
        ]
        self.cursors = [0] * SERVE_CLIENTS
        self.served = set()

    def warmup(self):
        self.measure(0.5)

    def check(self, reply, outcome):
        """A reply must be ``ok``; typed errors count as refusals."""
        if not reply.get("ok"):
            outcome.refuse()
            return False
        return True

    def compare(self, served_xml, eager_xml, outcome):
        """A served answer must serialize as the eager engine's."""
        if served_xml != eager_xml:
            outcome.mismatch()

    def selfcheck(self):
        """A refused reply and a corrupted served answer must each
        count as a failed op."""
        if self.checked_sample is None:
            return False
        served_xml, eager_xml = self.checked_sample
        refusal, corrupted = Outcome(), Outcome()
        refusal.attempt()
        self.check({"ok": False, "error": {"code": "MIX-E-BUSY"}}, refusal)
        corrupted.attempt()
        self.compare(served_xml.replace(">", "><corrupt/>", 1), eager_xml,
                     corrupted)
        return refusal.refused == 1 and corrupted.wrong == 1

    def _call(self, client, op, outcome, **params):
        reply = client.request(op, **params)
        if not self.check(reply, outcome):
            raise _Refused(reply)
        return reply["result"]

    def _interact(self, client, session, step, outcome):
        if step.write:
            self._call(client, "sql", outcome, statements=[step.sql])
            return 0
        root = self._call(client, "query", outcome, session=session,
                          query=step.text)
        node = self._call(client, "d", outcome, session=session,
                          node=root["node"])
        visits = 1
        hops = step.hops
        while hops and node.get("node") is not None:
            following = self._call(client, "r", outcome, session=session,
                                   node=node["node"])
            if following.get("node") is None:
                break
            node = following
            visits += 1
            hops -= 1
        if (step.inplace_t is not None and node.get("node") is not None
                and node.get("label") == "CustRec"):
            answer = self._call(
                client, "q", outcome, session=session, node=node["node"],
                query=INPLACE_QUERY.format(t=step.inplace_t))
            walked = self._call(client, "walk", outcome, session=session,
                                node=answer["node"], budget=SERVE_WALK)
            visits += len(walked["steps"])
        return visits

    def _client_loop(self, index, plan, gate, phase, spans, lock, tracer):
        """One client's closed loop over the window's pieces.

        Before each piece the client waits at ``gate`` until the
        measuring thread has set ``plan["deadline"]``; at the deadline
        it finishes its op and waits at ``gate`` again.  Each op's
        ``(piece, began, ended)`` goes to ``spans["read"]`` or
        ``spans["write"]``.
        """
        from repro.server.loopback import LoopbackClient

        script = self.scripts[index]
        outcome = Outcome()
        reads, writes = [], []
        visits = 0
        served = set()
        client = LoopbackClient(self.service)
        session = None
        done = 0
        try:
            for piece in range(plan["pieces"]):
                gate.wait()
                deadline = plan["deadline"]
                while time.perf_counter() < deadline:
                    if session is None or done % SESSION_INTERACTIONS == 0:
                        if session is not None:
                            client.request("close", session=session)
                        session = client.call("open")["session"]
                    step = script[self.cursors[index] % len(script)]
                    self.cursors[index] += 1
                    done += 1
                    outcome.attempt()
                    began = time.perf_counter()
                    try:
                        with _OpSpan(tracer, index * 10 ** 9 + done):
                            visits += self._interact(client, session, step,
                                                     outcome)
                    except _Refused:
                        continue
                    except Exception:  # noqa: BLE001 — counted, run goes on
                        outcome.error()
                        continue
                    ended = time.perf_counter()
                    if step.write:
                        writes.append((piece, began, ended))
                    else:
                        reads.append((piece, began, ended))
                        served.add(step.text)
                gate.wait()
        except BaseException:
            gate.abort()
            raise
        finally:
            client.close()
            with lock:
                phase.outcome.merge(outcome)
                spans["read"] += reads
                spans["write"] += writes
                phase.visits += visits
                self.served |= served

    def measure(self, seconds, tracer=None):
        """A ``seconds`` wall window of both clients, in pieces of about
        :data:`SPEED_INTERVAL`.

        Between pieces both clients wait while this thread samples the
        host speed, so the sample sees no contention from them; each
        piece's ops and wall time are then scaled to reference seconds
        by the samples either side of it.  The round-trip sleeps are
        scaled with the rest: on a host slower than the reference they
        count for less than their wall time.
        """
        phase = Phase()
        spans = {"read": [], "write": []}
        lock = threading.Lock()
        pieces = max(1, round(seconds / SPEED_INTERVAL))
        plan = {"pieces": pieces, "deadline": None}
        gate = threading.Barrier(SERVE_CLIENTS + 1, timeout=GATE_TIMEOUT)
        before = snapshot(self.data.stats, tracer, self.remote)
        threads = [
            threading.Thread(target=self._client_loop,
                             args=(i, plan, gate, phase, spans, lock,
                                   tracer))
            for i in range(SERVE_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        speeds = [gauge.sample()]
        try:
            for _ in range(pieces):
                began = time.perf_counter()
                plan["deadline"] = began + seconds / pieces
                gate.wait()
                gate.wait()
                elapsed = time.perf_counter() - began
                speeds.append(gauge.sample())
                phase.raw_seconds += elapsed
                phase.seconds += gauge.scale(elapsed, speeds[-2], speeds[-1])
        finally:
            for thread in threads:
                thread.join()

        def scaled(span):
            piece, began, ended = span
            return gauge.scale(ended - began, speeds[piece],
                               speeds[piece + 1])

        phase.raw_latencies = [ended - began
                               for _, began, ended in spans["read"]]
        phase.latencies = [scaled(span) for span in spans["read"]]
        phase.write_latencies = [scaled(span) for span in spans["write"]]
        phase.window = delta(snapshot(self.data.stats, tracer, self.remote),
                             before)
        return phase

    def checked_texts(self):
        """The served texts the oracle re-checks: the hottest
        :data:`VERIFY_HOT` served texts, which carry most requests and
        the hot cache entries, plus :data:`VERIFY_SAMPLE` seeded picks
        from the rest.  Checking all of them would cost more than the
        run itself."""
        ranked = [text for text in serve_texts() if text in self.served]
        rest = ranked[VERIFY_HOT:]
        picks = random.Random("{}/verify".format(self.seed)).sample(
            rest, min(VERIFY_SAMPLE, len(rest)))
        return ranked[:VERIFY_HOT] + picks

    def verify(self, outcome):
        """Served query texts must, on the final database, serve the
        eager engine's answer."""
        from repro.server.loopback import LoopbackClient

        oracle = eager_mediator(plain_wrapper(self.data.database))
        rtt, self.remote.rtt = self.remote.rtt, 0.0
        try:
            with LoopbackClient(self.service) as client:
                session = client.call("open")["session"]
                for text in self.checked_texts():
                    root = client.request("query", session=session,
                                          query=text)
                    if not self.check(root, outcome):
                        continue
                    tree = client.request("tree", session=session,
                                          node=root["result"]["node"])
                    if not self.check(tree, outcome):
                        continue
                    served_xml = tree["result"]["xml"]
                    eager_xml = serialized(oracle.query(text))
                    self.compare(served_xml, eager_xml, outcome)
                    if self.checked_sample is None:
                        self.checked_sample = served_xml, eager_xml
                    client.request("close", session=session)
                    session = client.call("open")["session"]
        finally:
            self.remote.rtt = rtt


WORKLOADS = {cls.name: cls for cls in (Browse, Export, Serve)}

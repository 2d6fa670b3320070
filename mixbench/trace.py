"""Outside-in tracing of the MIX layers, built from the benchmark's files.

:func:`install` wraps the public entry points of each ``repro`` layer
so that every call records one span: name, start, end, parent span, op
id, and the calling thread's CPU time.  Nothing under ``src/`` changes;
:func:`install` returns an undo function that restores every original.

Module-level functions are patched wherever a ``repro`` module holds
them by name (``repro.qdom.mediator`` imports ``parse_xquery``,
``push_to_sources``, ``decontextualize`` and ``compose_at_root`` that
way), not only in their defining module.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time

#: Wrapped methods, as ``(module, class, attribute, span name)``.
METHOD_SPANS = (
    ("repro.algebra.translator", "Translator", "translate",
     "algebra.translate"),
    ("repro.rewriter.engine", "Rewriter", "rewrite", "rewriter.rewrite"),
    ("repro.qdom.mediator", "Mediator", "query", "qdom.query"),
    ("repro.qdom.mediator", "Mediator", "query_from", "qdom.query_from"),
    ("repro.qdom.api", "QdomNode", "d", "qdom.d"),
    ("repro.qdom.api", "QdomNode", "r", "qdom.r"),
    ("repro.qdom.api", "QdomNode", "fl", "qdom.fl"),
    ("repro.qdom.api", "QdomNode", "fv", "qdom.fv"),
    ("repro.qdom.api", "QdomNode", "d_many", "qdom.d_many"),
    ("repro.qdom.api", "QdomNode", "walk", "qdom.walk"),
    ("repro.qdom.api", "QdomNode", "to_tree", "qdom.to_tree"),
    ("repro.cache.manager", "CacheManager", "lookup_plan", "cache.plan"),
    ("repro.cache.manager", "CacheManager", "lookup_result",
     "cache.memo"),
    ("repro.cache.sqlcache", "SqlResultCache", "execute", "cache.sql"),
    ("repro.engine.lazy", "LazyEngine", "evaluate_tree",
     "engine.evaluate"),
    ("repro.engine.eager", "EagerEngine", "evaluate_tree",
     "engine.evaluate"),
    ("repro.relational.database", "Database", "execute",
     "relational.execute"),
    ("repro.relational.database", "Database", "run", "relational.run"),
    ("repro.sources.relational", "RelationalWrapper", "execute_sql",
     "sources.execute_sql"),
    ("repro.server.service", "MediatorService", "handle_line",
     "server.handle"),
)

#: Module-level functions, patched in every ``repro`` module that holds
#: them: ``(defining module, function, span name)``.
FUNCTION_SPANS = (
    ("repro.xquery.parser", "parse_xquery", "xquery.parse"),
    ("repro.composer.decontext", "decontextualize",
     "composer.decontextualize"),
    ("repro.composer.compose", "compose_at_root", "composer.compose"),
    ("repro.rewriter.sql_split", "push_to_sources", "rewriter.push_sql"),
)

#: Cursor fetches; nested fetches (``fetch_block`` calls ``fetchone``)
#: record only the outermost span.
FETCH_METHODS = ("fetchone", "fetchmany", "fetch_block")
FETCH_SPAN = "relational.fetch"
#: The lazy-tail forcing span.  Its self time is the lazy engine's
#: operator pipeline run on demand (reported as ``engine.force``); its
#: wait time includes waits on the process-wide forcing lock.
FORCE_SPAN = "xmltree.force"
ITER_SPAN = "sources.iter_children"
OP_SPAN = "op"
#: Counts recorded without a span.
COUNT_KEYS = ("nodes_built", "incr_calls", "obs_spans")


class Tracer:
    """Span recorder with one span stack per thread.

    Spans are kept in memory as tuples (see :mod:`mixbench.metrics`)
    and written out by :meth:`dump`.  Counts that have no span
    (``Node`` constructions, ``Instrument.incr`` calls, spans the
    program itself opens) are kept per thread and summed by
    :meth:`counts`, so two threads never lose an update.
    """

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._thread_counts = []

    def local_counts(self):
        counts = getattr(self._local, "counts", None)
        if counts is None:
            counts = self._local.counts = dict.fromkeys(COUNT_KEYS, 0)
            self._thread_counts.append(counts)
        return counts

    def counts(self):
        """Counts summed over every thread."""
        return {key: sum(c[key] for c in self._thread_counts)
                for key in COUNT_KEYS}

    def _stack(self):
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            local.op = None
        return stack

    def top_name(self):
        stack = self._stack()
        return stack[-1][1] if stack else None

    def open(self, name):
        stack = self._stack()
        token = (next(self._ids), name, stack[-1][0] if stack else 0,
                 time.perf_counter(), time.thread_time())
        stack.append(token)
        return token

    def close(self, token):
        end = time.perf_counter()
        cpu_end = time.thread_time()
        local = self._local
        local.stack.pop()
        self.spans.append((token[0], token[2], local.op, token[1],
                           token[3], end, token[4], cpu_end))

    def begin_op(self, op_id):
        """Open the root span of one op on this thread."""
        self._stack()
        self._local.op = op_id
        return self.open(OP_SPAN)

    def end_op(self, token):
        self.close(token)
        self._local.op = None

    def dump(self, path, meta):
        """Write ``meta`` and every span, one JSON array per line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(meta, sort_keys=True) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _spanned(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        token = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(token)
    return wrapper


def _spanned_generator(tracer, name, fn):
    """Wrap a generator function: one span per ``next()``."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)

        def traced():
            while True:
                token = tracer.open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.close(token)
                yield item
        return traced()
    return wrapper


def _outermost_fetch(tracer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.top_name() == FETCH_SPAN:
            return fn(*args, **kwargs)
        token = tracer.open(FETCH_SPAN)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(token)
    return wrapper


def _forcing(tracer, fn):
    # Only a node that still owes children does forcing work; the
    # fast path (fully materialized) records no span.
    @functools.wraps(fn)
    def wrapper(self, count):
        if self._tail is None and self._broken is None:
            return None
        token = tracer.open(FORCE_SPAN)
        try:
            return fn(self, count)
        finally:
            tracer.close(token)
    return wrapper


def _counting(tracer, key, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.local_counts()[key] += 1
        return fn(*args, **kwargs)
    return wrapper


def install(tracer, extra_methods=()):
    """Patch every layer entry point to record spans on ``tracer``.

    ``extra_methods`` adds ``(class, attribute, span name)`` triples for
    benchmark-side classes (the RTT proxy).  Returns a zero-argument
    function that restores the originals.
    """
    import repro  # noqa: F401  (loads every layer module)
    from repro.obs.instrument import Instrument
    from repro.relational.cursor import Cursor
    from repro.sources.relational import RelationalWrapper
    from repro.xmltree.tree import Node

    undo = []

    def patch(owner, attr, replacement):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    for module_name, class_name, attr, name in METHOD_SPANS:
        __import__(module_name)
        owner = getattr(sys.modules[module_name], class_name)
        patch(owner, attr, _spanned(tracer, name, getattr(owner, attr)))
    for owner, attr, name in extra_methods:
        patch(owner, attr, _spanned(tracer, name, getattr(owner, attr)))
    for module_name, func_name, name in FUNCTION_SPANS:
        __import__(module_name)
        original = getattr(sys.modules[module_name], func_name)
        wrapped = _spanned(tracer, name, original)
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("repro")
                    and module.__dict__.get(func_name) is original):
                patch(module, func_name, wrapped)
    for attr in FETCH_METHODS:
        patch(Cursor, attr, _outermost_fetch(tracer, getattr(Cursor, attr)))
    patch(RelationalWrapper, "iter_document_children", _spanned_generator(
        tracer, ITER_SPAN, RelationalWrapper.iter_document_children))
    patch(Node, "_force", _forcing(tracer, Node._force))
    patch(Node, "__init__", _counting(tracer, "nodes_built",
                                      Node.__init__))
    patch(Instrument, "incr", _counting(tracer, "incr_calls",
                                        Instrument.incr))
    for attr in ("command_span", "operator_span"):
        patch(Instrument, attr, _counting(tracer, "obs_spans",
                                          getattr(Instrument, attr)))

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
        undo.clear()

    return restore

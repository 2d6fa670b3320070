"""The labeled ordered tree: the paper's Section 2 data model.

``T = (vertexId: O, label: D) | (vertexId: O, label: D, value: [T])``

* ``Node.oid`` — the vertex id, a string conventionally starting with
  ``&`` (``&root1``, ``&XYZ123``, or surrogate ids ``&n17``).  Oids may be
  random surrogates or may carry semantic meaning: the relational wrapper
  assigns tuple keys as oids, which is what makes decontextualization
  (Section 5) possible.
* ``Node.label`` — an element name for inner nodes; for leaves the label
  *is* the value (the paper: "the labels of leaf nodes will also be called
  values").  Labels of leaves may be ``str``, ``int`` or ``float``.
* ``Node.children`` — the ordered list of subtrees.
"""

from __future__ import annotations

import itertools
import threading

from repro.errors import MixError


class LazyTail:
    """A lazy child iterator plus the lock that single-flights its forcing.

    Two threads resuming one generator would race (``ValueError:
    generator already executing``) or tear the child list, so a tail is
    only ever resumed under its lock.  The lock belongs to the
    *producer* the tail pulls from: every lazily-tailed node of one
    engine answer shares its answer's lock (their tails pull the same
    operator generators), while a bare iterator handed to :class:`Node`
    is wrapped with a lock of its own.  Materialized nodes carry no
    tail and therefore no lock.

    **Lock order.**  A tail only forces nodes *upstream* of it in data
    flow: its own answer (hence re-entrant locks), its sources, and the
    answers of lower-tier mediators it reads through
    :class:`~repro.sources.MediatorSource`.  Locks are thus acquired in
    data-flow order, so the wait-for graph has no cycle and nested
    forcing cannot deadlock.  A tail must never force a node downstream
    of it.
    """

    __slots__ = ("iterator", "lock")

    def __init__(self, iterator, lock=None):
        self.iterator = iter(iterator)
        self.lock = threading.RLock() if lock is None else lock


#: Types a leaf label (value) may have.  ``D`` in the paper is
#: "string-like"; we additionally admit numbers so that relational values
#: compare numerically, which the paper's examples rely on
#: (``$O/order/value < 500``).
VALUE_TYPES = (str, int, float)


class Node:
    """One vertex of a labeled ordered tree.

    Nodes are mutable only through :meth:`append`; most code builds them
    once via :func:`elem` / :func:`leaf` and treats them as frozen.

    **Lazy children.**  A node may be constructed with ``lazy_tail``, an
    iterator (or a :class:`LazyTail` sharing its producer's lock)
    producing further children on demand.  This is how the lazy
    engine exports virtual results: accessing ``children`` (or iterating)
    forces everything, but :meth:`child` — the navigation primitive —
    forces only the prefix up to the requested index, which is exactly
    the paper's navigation-driven evaluation contract.
    """

    __slots__ = ("oid", "label", "_children", "_tail", "_broken")

    def __init__(self, oid, label, children=(), lazy_tail=None):
        if not isinstance(label, VALUE_TYPES):
            raise MixError(
                "node label must be str/int/float, got {!r}".format(label)
            )
        self.oid = oid
        self.label = label
        self._children = list(children)
        if lazy_tail is not None and type(lazy_tail) is not LazyTail:
            lazy_tail = LazyTail(lazy_tail)
        self._tail = lazy_tail
        self._broken = None

    # -- structure ---------------------------------------------------------

    @property
    def children(self):
        """All children (forces any lazy tail)."""
        self._force(None)
        return self._children

    def _force(self, count):
        """Materialize children up to ``count`` (``None`` = all).

        A lazy tail that raises is *dead* (a generator never resumes
        after an exception), so the failure is remembered and re-raised
        on any later forcing — silently truncating the child list would
        present a partial answer as a complete one.

        Thread-safe: the materialized prefix is append-only (reads of
        already-forced children skip the lock), and tail resumption is
        serialized under the tail's :class:`LazyTail` lock.  A broken
        tail is never cleared, so ``_tail is None`` alone means done.
        """
        tail = self._tail
        if tail is None:
            return
        with tail.lock:
            while self._tail is not None and (
                count is None or len(self._children) < count
            ):
                if self._broken is not None:
                    raise self._broken
                try:
                    self._children.append(next(tail.iterator))
                except StopIteration:
                    self._tail = None
                except Exception as exc:
                    self._broken = exc
                    raise

    def prefetch_children(self, count, extra=0):
        """Force ``count`` children strictly, then up to ``extra`` more
        best-effort (block navigation's prefetch-k).

        The strict part behaves exactly like :meth:`child`: a broken
        tail inside the demanded prefix raises here.  The *extra* part
        must not — prefetching past the demanded position may run into a
        failure the client would only have met several commands later,
        and surfacing it early would change observable behavior.  The
        exception stays parked in ``_broken`` (the tail is dead anyway)
        and re-raises exactly when navigation first asks past the
        materialized prefix, the same position tuple mode raises at.
        """
        self._force(count)
        if extra <= 0 or self._tail is None:
            return
        try:
            self._force(count + extra)
        except Exception:
            pass  # parked in _broken; re-raised on genuine demand

    def copy_subtree(self):
        """A fully materialized deep copy of this subtree (forces it).

        Bulk-export primitive: slot-direct construction skips the label
        check ``__init__`` would redo on values that were validated when
        this tree was first built.
        """
        self._force(None)
        clone = Node.__new__(Node)
        clone.oid = self.oid
        clone.label = self.label
        clone._children = [c.copy_subtree() for c in self._children]
        clone._tail = None
        clone._broken = None
        return clone

    @property
    def is_broken(self):
        """Whether this node's lazy tail raised; its child list beyond
        the materialized prefix is unrecoverable."""
        return self._broken is not None

    @property
    def is_leaf(self):
        """True when the node has no children (its label is its value)."""
        if self._children:
            return False
        self._force(1)
        return not self._children

    @property
    def materialized_child_count(self):
        """How many children have been produced so far (no forcing)."""
        return len(self._children)

    def materialized_children(self):
        """The children produced so far, as a list copy (no forcing)."""
        return list(self._children)

    @property
    def fully_materialized(self):
        return self._tail is None

    def append(self, child):
        """Append ``child`` as the new last child and return it.

        Only valid on fully materialized nodes (builder code).
        """
        if self._tail is not None:
            raise MixError("cannot append to a node with a lazy tail")
        self._children.append(child)
        return child

    def child(self, index):
        """The ``index``-th child or ``None`` — forces only that prefix."""
        if index < 0:
            return None
        self._force(index + 1)
        if index < len(self._children):
            return self._children[index]
        return None

    def first_child(self):
        """The paper's ``d`` on a materialized node (``None`` on a leaf)."""
        return self.child(0)

    def children_labeled(self, label):
        """All children whose label equals ``label``."""
        return [c for c in self.children if c.label == label]

    def find(self, label):
        """First child labeled ``label`` or ``None``."""
        for c in self.children:
            if c.label == label:
                return c
        return None

    # -- value access --------------------------------------------------------

    @property
    def value(self):
        """The leaf value: the label when this node is a leaf, else ``None``.

        This is the paper's ``fv`` fetch: defined only on leaves.
        """
        return self.label if self.is_leaf else None

    def iter_subtree(self):
        """Pre-order iterator over this node and all descendants."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    # -- comparison / display -------------------------------------------------

    def __repr__(self):
        if self._tail is not None:
            return "Node({}:{}, {}+ children, lazy)".format(
                self.oid, self.label, len(self._children)
            )
        if self.is_leaf:
            return "Node({}={!r})".format(self.oid, self.label)
        return "Node({}:{}, {} children)".format(
            self.oid, self.label, len(self._children)
        )

    def pretty(self, indent=0):
        """A multi-line indented rendering, used in doctests and debugging."""
        pad = "  " * indent
        if self.is_leaf:
            return "{}{} {!r}".format(pad, self.oid, self.label)
        lines = ["{}{} {}".format(pad, self.oid, self.label)]
        for c in self.children:
            lines.append(c.pretty(indent + 1))
        return "\n".join(lines)


def deep_equals(a, b, compare_oids=False):
    """Structural equality of two trees.

    Oids are ignored by default because surrogate ids differ between an
    eager and a lazy evaluation of the same plan; skolem-carrying oids can
    be compared by passing ``compare_oids=True``.
    """
    if a is None or b is None:
        return a is b
    if compare_oids and a.oid != b.oid:
        return False
    if a.label != b.label or len(a.children) != len(b.children):
        return False
    return all(
        deep_equals(x, y, compare_oids) for x, y in zip(a.children, b.children)
    )


def tree_size(node):
    """Number of vertices in the tree rooted at ``node``."""
    return sum(1 for _ in node.iter_subtree())


def atomize(node):
    """The comparable value of a node, or ``None`` when not comparable.

    The paper defines conditions only on variables "bound to a leaf node
    whose value is x"; XQuery's ``data()`` additionally atomizes an
    element with a single leaf child (``<id>XYZ</id>`` atomizes to
    ``"XYZ"``).  We implement the ``data()`` semantics, which subsumes the
    paper's leaf-only rule.
    """
    if node is None:
        return None
    if node.is_leaf:
        return node.label
    if len(node.children) == 1 and node.children[0].is_leaf:
        return node.children[0].label
    return None


class OidGenerator:
    """Deterministic surrogate-oid factory (``&n1``, ``&n2``, ...).

    Each document/engine owns one generator so runs are reproducible; the
    paper allows ids to "be random surrogates or carry semantic meaning".
    """

    def __init__(self, prefix="n"):
        self._prefix = prefix
        self._counter = itertools.count(1)

    def fresh(self):
        """The next unused surrogate oid."""
        return "&{}{}".format(self._prefix, next(self._counter))


_DEFAULT_OIDS = OidGenerator()


def leaf(value, oid=None):
    """Build a leaf node whose label is ``value``."""
    return Node(oid or _DEFAULT_OIDS.fresh(), value)


def elem(label, *children, oid=None):
    """Build an element node.

    String/number children are wrapped into leaves for convenience, so the
    paper's Fig. 2 database can be written as::

        elem("customer",
             elem("id", "XYZ"),
             elem("name", "XYZInc."),
             elem("addr", "LosAngeles"),
             oid="&XYZ123")
    """
    wrapped = []
    for c in children:
        if isinstance(c, Node):
            wrapped.append(c)
        elif isinstance(c, VALUE_TYPES):
            wrapped.append(leaf(c))
        else:
            raise MixError("invalid child for elem(): {!r}".format(c))
    return Node(oid or _DEFAULT_OIDS.fresh(), label, wrapped)

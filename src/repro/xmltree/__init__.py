"""Labeled ordered tree model of XML (the paper's Section 2 data model).

The model deliberately matches the paper: a tree vertex has an *oid* (an
element of the id space ``O``, printed with a leading ``&``), a *label*
(an element of the constant space ``D``), and an ordered list of children.
Leaf labels double as values.  XML attributes are excluded from the model,
exactly as in the paper; the text parser lifts them to child elements.

Public API::

    from repro.xmltree import Node, elem, leaf, parse_xml, serialize, Path
"""

from repro.xmltree.tree import (
    LazyTail,
    Node,
    OidGenerator,
    atomize,
    deep_equals,
    elem,
    leaf,
    tree_size,
)
from repro.xmltree.paths import Path, Step, DATA_STEP, WILDCARD
from repro.xmltree.parser import parse_xml
from repro.xmltree.serializer import serialize

__all__ = [
    "LazyTail",
    "Node",
    "OidGenerator",
    "Path",
    "Step",
    "DATA_STEP",
    "WILDCARD",
    "atomize",
    "deep_equals",
    "elem",
    "leaf",
    "parse_xml",
    "serialize",
    "tree_size",
]

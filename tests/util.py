"""Terse construction helpers shared by the test modules."""

from lgraph import LabelId, LogicalGraph, RawGraph, VertexId, validate
from lgraph.mill import Atom, Lolli, Tensor


def G(vertices: str, edges: str = "") -> RawGraph:
    """Build a graph from compact text.

    ``G("a:p b:q c", "a>b b>c")`` labels vertex a with p, b with q, and c
    with c (a bare name labels the vertex with its own name).
    """
    labelling = {}
    for token in vertices.split():
        name, _, label = token.partition(":")
        labelling[VertexId(name)] = LabelId(label or name)
    pairs = []
    for token in edges.split():
        src, _, dst = token.partition(">")
        pairs.append((VertexId(src), VertexId(dst)))
    return RawGraph(labelling, pairs)


def LG(vertices: str, edges: str = "") -> LogicalGraph:
    return validate(G(vertices, edges))


def V(name: str) -> VertexId:
    return VertexId(name)


def L(name: str) -> LabelId:
    return LabelId(name)


def names(vs) -> list[str]:
    return [str(v) for v in vs]


# Chains built as Formula objects, for sizes where parse and Formula
# hashing still recurse too deeply.

def flat_tensor(labels):
    """((l0 * l1) * l2) * ..., as the parser associates a flat tensor."""
    f = Atom(labels[0])
    for label in labels[1:]:
        f = Tensor(f, Atom(label))
    return f


def right_tensor(labels):
    """l0 * (l1 * (... * ln))"""
    f = Atom(labels[-1])
    for label in reversed(labels[:-1]):
        f = Tensor(Atom(label), f)
    return f


def left_lolli(labels):
    """((l0 -o l1) -o l2) -o ..."""
    f = Atom(labels[0])
    for label in labels[1:]:
        f = Lolli(f, Atom(label))
    return f


def right_lolli(labels):
    """l0 -o (l1 -o (... -o ln))"""
    f = Atom(labels[-1])
    for label in reversed(labels[:-1]):
        f = Lolli(Atom(label), f)
    return f

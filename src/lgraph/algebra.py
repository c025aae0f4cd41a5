"""Creating and combining graphs: empty, singleton, addition, subtraction,
implication.

Addition is disjoint union implemented by renaming the first operand away
from the second and unioning; the result carries both embeddings so callers
can name the copies afterwards (subtraction of a renamed operand, the
implication edges).  Subtraction is deliberately sensitive to concrete
vertex names: it removes exactly the named vertices and every edge touching
them, which is what makes it linear-time and uniquely defined.  Implication
adds an edge from every conclusion of the first operand to every conclusion
of the second.

Addition of two valid graphs is valid (a disjoint union of well-formed
parts).  Implication is not closed over valid graphs -- pointing one vertex
at the separate conclusions of an addition has no formula reading -- so it
returns a raw graph and callers needing a LogicalGraph must validate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .core import (LabelId, LogicalGraph, NotASubgraphByName, RawGraph,
                   VertexId, _graph, _renamed_apart, _restrict, conclusions)


@dataclass(frozen=True, slots=True)
class SumResult:
    """A combined graph plus the two embeddings of its operands.

    inj1 and inj2 are injective, label-preserving, and their images
    partition the result's vertices.
    """

    graph: RawGraph
    inj1: dict[VertexId, VertexId]
    inj2: dict[VertexId, VertexId]


@cache
def empty() -> LogicalGraph:
    """The graph with no vertices; the unit of addition."""
    return _graph(LogicalGraph, {}, [])


@cache
def singleton(label: LabelId) -> LogicalGraph:
    """One vertex (named v0) carrying the label, no edges."""
    return _graph(LogicalGraph, {VertexId("v0"): label}, [])


def vertex_equivalent(g: RawGraph, h: RawGraph) -> bool:
    """Same labelling as a function (names and labels); edges ignored."""
    return g.labelling == h.labelling


def _union_parts(h: RawGraph, k: RawGraph):
    lab, edges, inj1 = _renamed_apart(h, frozenset(k.labelling))
    lab.update(k.labelling)
    edges.extend(k.edges)
    inj2 = {v: v for v in k.vertices()}
    return lab, edges, inj1, inj2


def add(h: RawGraph, k: RawGraph) -> SumResult:
    """Disjoint union: h renamed apart from k, unioned with k as-is."""
    lab, edges, inj1, inj2 = _union_parts(h, k)
    cls = LogicalGraph if (isinstance(h, LogicalGraph)
                           and isinstance(k, LogicalGraph)) else RawGraph
    return SumResult(_graph(cls, lab, edges), inj1, inj2)


def subtract(h: RawGraph, k: RawGraph) -> RawGraph:
    """Remove k's vertices (by name) from h, dropping edges that touch them.

    k must be contained in h name-wise with agreeing labels, i.e. the
    equation g + k = h must be solvable on vertices; labels left without
    instances disappear with their vertices.  The result is raw.
    """
    for v, label in k.labelling.items():
        have = h.labelling.get(v)
        if have is None:
            raise NotASubgraphByName(f"vertex {v} is not in the minuend")
        if have != label:
            raise NotASubgraphByName(
                f"vertex {v} is labelled {have} in the minuend "
                f"but {label} in the subtrahend")
    left = [v for v in h._sorted_vertices if v not in k.labelling]
    return _restrict(h, left, RawGraph)


def implies(h: RawGraph, k: RawGraph) -> SumResult:
    """The addition of h and k plus edges from h's conclusions to k's.

    Meaningful when both operands are valid; the combined graph is still
    not guaranteed well-formed, so the result stays raw.
    """
    lab, edges, inj1, inj2 = _union_parts(h, k)
    ends = conclusions(k)
    for v in conclusions(h):
        src = inj1[v]
        edges.extend((src, w) for w in ends)
    return SumResult(_graph(RawGraph, lab, edges), inj1, inj2)

"""Vertex alpha-equivalence: isomorphism search over vertex names.

Two graphs are vertex alpha-equivalent when some bijection of their vertex
names preserves labels and edges in both directions.  All four entry points
run one search.  A plan walks the first graph backward with ``traverse_dfs``,
each vertex once, and lists one step per start vertex and per edge into a
visited vertex; it does not depend on the choices made.  The search is an
iterative depth-first backtracking over the steps that grows one map in
place, undoes it on the way back, and yields maps lazily, in lexicographic
order of the choices, each taken in ascending vertex order.  A map is always
injective and label-preserving; ``alpha_equiv`` keeps only isomorphisms.
"""

from __future__ import annotations

from typing import Iterator

from .core import CyclicEdges, RawGraph, UnknownVertex, VertexId, _find_cycle
from .traversal import Action, traverse_dfs

# A candidate isomorphism: an injective, label-preserving vertex map.
VMap = dict[VertexId, VertexId]

# (u, x, new): u is a predecessor of x, or a start when x is None, and the
# pool is the predecessors of x's image, or the start pool.  A new u takes
# an unused vertex of the pool with u's label; an old u's image must be in it.
Step = tuple[VertexId, VertexId | None, bool]


def _plan(g1: RawGraph, starts, mapped: set[VertexId]) -> list[Step]:
    """The steps that map the backward closures of starts, each vertex once."""
    steps: list[Step] = []
    visited: set[VertexId] = set()

    def visit(x: VertexId, _) -> tuple[Action, None]:
        if x in visited:
            return Action.SKIP, None
        visited.add(x)
        for p in g1._preds[x]:
            steps.append((p, x, p not in mapped))
            mapped.add(p)
        return Action.CONTINUE, None

    for v in starts:
        if v not in mapped:
            steps.append((v, None, True))
            mapped.add(v)
        traverse_dfs(visit, g1, v, None)
    return steps


def _extensions(g1: RawGraph, g2: RawGraph, steps: list[Step], m: VMap,
                pool=()) -> Iterator[VMap]:
    """Every extension of m along steps, depth-first, with m grown in place.

    A yielded map is only valid until the generator is resumed.
    """
    used = set(m.values())
    lab1, lab2 = g1.labelling, g2.labelling
    preds2, edges2 = g2._preds, g2.edges

    def choices(u, x, new):
        """Make each choice of one step in turn, undoing it when resumed."""
        if not new:
            if (m[u] in pool) if x is None else ((m[u], m[x]) in edges2):
                yield
            return
        label = lab1[u]
        for c in (pool if x is None else preds2[m[x]]):
            if c not in used and lab2[c] == label:
                m[u] = c
                used.add(c)
                yield
                del m[u]
                used.discard(c)

    if not steps:
        yield m
        return
    stack = [choices(*steps[0])]
    while stack:
        if next(stack[-1], True):  # True: the deepest step has no choice left
            stack.pop()
        elif len(stack) == len(steps):
            yield m
        else:
            stack.append(choices(*steps[len(stack)]))


def vertex_match_perms(g1: RawGraph, asms1, g2: RawGraph, asms2,
                       m: VMap) -> list[VMap]:
    """All extensions of m matching the vertex set asms1 into asms2.

    Already-mapped members of asms1 must land inside asms2 or there is no
    extension.  The unmapped members are assigned injectively to unused
    members of asms2 with equal labels, one result per distinct assignment,
    in lexicographic order of the assignment.  An empty list means failure.
    """
    steps = [(v, None, v not in m) for v in sorted(set(asms1))]
    pool = sorted(set(asms2))
    return [dict(e) for e in _extensions(g1, g2, steps, dict(m), pool)]


def mk_graph_iso(g1: RawGraph, v1: VertexId, g2: RawGraph, v2: VertexId,
                 seed: VMap | None = None) -> list[VMap]:
    """All embeddings of v1's backward closure into g2 that send v1 to v2.

    Walks g1 backward from v1, each vertex once, matching the predecessors
    of each visited vertex x against the predecessors of x's image.
    ``seed`` optionally supplies assignments that every embedding extends.
    """
    if v1 not in g1:
        raise UnknownVertex(v1)
    if v2 not in g2:
        raise UnknownVertex(v2)
    if g1.labelling[v1] != g2.labelling[v2]:
        return []
    m = dict(seed) if seed else {}
    if m.get(v1, v2) != v2 or v2 in set(m.values()) - {m.get(v1)}:
        return []
    m[v1] = v2
    steps = _plan(g1, [v1], set(m))
    return [dict(e) for e in _extensions(g1, g2, steps, m)]


def _verified(m: VMap, g1: RawGraph, g2: RawGraph) -> bool:
    """Total bijection, label-preserving, edges preserved in both directions."""
    if len(m) != len(g1) or set(m.values()) != set(g2.labelling):
        return False
    if any(g1.labelling[v] != g2.labelling[w] for v, w in m.items()):
        return False
    return {(m[s], m[d]) for s, d in g1.edges} == g2.edges


def _isomorphisms(g1: RawGraph, g2: RawGraph) -> Iterator[VMap]:
    if len(g1) != len(g2) or len(g1.edges) != len(g2.edges):
        return
    if sorted(g1.labelling.values()) != sorted(g2.labelling.values()):
        return
    minimals1 = [v for v in g1._sorted_vertices if not g1._succs[v]]
    minimals2 = [v for v in g2._sorted_vertices if not g2._succs[v]]
    if len(minimals1) != len(minimals2):
        return
    cycle = _find_cycle(g1)
    if cycle is not None:
        raise CyclicEdges(cycle)
    steps = _plan(g1, minimals1, set())
    for m in _extensions(g1, g2, steps, {}, minimals2):
        if _verified(m, g1, g2):
            yield dict(m)


def alpha_equiv(g1: RawGraph, g2: RawGraph) -> VMap | None:
    """The first total label- and edge-preserving bijection, if any.

    Quick-rejects on vertex and edge counts, label multiset and number of
    minimal vertices; past those, a cyclic g1 raises CyclicEdges.  The search
    maps g1's minimal vertices in order, each followed by its backward
    closure, and stops at the first map that verifies as an isomorphism.
    """
    return next(_isomorphisms(g1, g2), None)


def alpha_equiv_all(g1: RawGraph, g2: RawGraph) -> list[VMap]:
    """Every total isomorphism between the graphs, deterministically ordered.

    The search of alpha_equiv run to the end, so the first map is the one
    alpha_equiv returns.
    """
    return list(_isomorphisms(g1, g2))

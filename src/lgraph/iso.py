"""Vertex alpha-equivalence: isomorphism search over vertex names.

Two graphs are vertex alpha-equivalent when some bijection of their vertex
names preserves labels and edges in both directions.  All four entry points
run one search; the two that take vertices and a map raise UnknownVertex
for one its graph lacks, so the search never meets one.  A plan walks the
first graph backward with ``traverse_dfs``, each vertex once, and lists one
step per start vertex and per edge into a visited vertex.  The search is
one loop over the steps, a basic backtrack (Knuth, TAOCP 7.2.2, Algorithm
B).  It grows one map in place, undoes it on the way back, and yields maps
lazily, in lexicographic order of the choices, each taken in ascending
vertex order.  A map is always injective and label-preserving.

A step is one of two kinds.  A check, for an edge from a mapped vertex,
passes when the edge's image is an edge.  A choice maps a new vertex to an
unused vertex of its pool, the start pool or the predecessors of the image
of the vertex it points to.  A pool of one vertex is forced: taken or
failed, with no bucket.  Every other pool is split into buckets by a key,
kept in ascending order and skipping a prefix of used vertices, so a fan-in
of k costs O(k).  The trailing run, the last choices with one pool and one
key, meets no check: it yields the permutations of its bucket's unused
vertices, not a pass of the loop per map.  The key is the label in
``mk_graph_iso`` and ``vertex_match_perms``, which list embeddings.
``alpha_equiv`` and ``alpha_equiv_all`` key by colour, the vertex's (label,
in-degree, out-degree): an isomorphism keeps colours, so this prunes only
branches that hold none, and every map it completes is an isomorphism.
Graphs whose colour counts differ are rejected before any search.
"""

from __future__ import annotations

from itertools import permutations
from typing import Iterable, Iterator

from .core import CyclicEdges, RawGraph, UnknownVertex, VertexId, _find_cycle
from .traversal import _CONTINUE, _SKIP, Action, traverse_dfs

# A candidate isomorphism: an injective, label-preserving vertex map.
VMap = dict[VertexId, VertexId]

# (u, x, new): u is a predecessor of x, or a start when x is None, and the
# pool is the predecessors of x's image, or the start pool.  A new u takes
# an unused vertex of the pool with u's key; an old u, never a start, must
# already map onto a predecessor of x's image.
Step = tuple[VertexId, VertexId | None, bool]


def _plan(g1: RawGraph, starts, mapped: set[VertexId]) -> list[Step]:
    """The steps that map the backward closures of starts, each vertex once."""
    steps: list[Step] = []
    visited: set[VertexId] = set()

    def visit(x: VertexId, _) -> tuple[Action, None]:
        if x in visited:
            return _SKIP, None
        visited.add(x)
        for p in g1._preds[x]:
            steps.append((p, x, p not in mapped))
            mapped.add(p)
        return _CONTINUE, None

    for v in starts:
        if v not in mapped:
            steps.append((v, None, True))
            mapped.add(v)
        traverse_dfs(visit, g1, v, None)
    return steps


def _extensions(g2: RawGraph, steps: list[Step], m: VMap, key1, key2,
                pool=()) -> Iterator[VMap]:
    """Every extension of m along steps, depth-first, with m grown in place.

    A new u may take only an unused candidate c with key2[c] == key1[u].
    One loop moves depth d up on a choice and down when d has no choice
    left.  Depth d keeps three entries: cells[d], the bucket cell it chose
    from (None for a check step, which passes at most once, and forced for
    a forced step); firsts[d], the cell's first when d was entered; and
    nexts[d], where d's next choice starts.  The trailing run, the longest
    suffix of new choices with one x and one key, yields on a bucket each
    permutation of the cell's unused candidates, in place.  A yielded map
    is only valid until the generator is resumed.
    """
    used = set(m.values())
    preds2, edges2 = g2._preds, g2.edges
    # Candidates by image vertex (None: the pool), then by key: a cell
    # [first, ascending candidates] whose candidates before first are all
    # used.  A depth's first choice moves first past the used prefix and
    # undoing it puts first back, so a fan-in of k same-key premises costs
    # O(k), not O(k^2).
    buckets: dict[VertexId | None, dict] = {}
    forced: list = []  # the cell of every forced step
    n = r = len(steps)
    if n and steps[-1][2]:  # the trailing run: steps[r:], vertices run
        u, x, _ = steps[-1]
        k, run, r = key1[u], [u], n - 1
        while r:  # one x is one visit of the plan, or the start pool
            u, y, new = steps[r - 1]
            if not new or y is not x or key1[u] != k:
                break
            run.append(u)
            r -= 1
        run.reverse()
    cells: list[list | None] = [None] * n
    firsts, nexts = [0] * n, [0] * n
    # up: enter depth d; else depth d has no choice left, so undo the
    # choice of depth d - 1 and take its next one.
    d, up = 0, True
    while True:
        if up:
            if d == n:
                yield m
                up = False
                continue
            u, x, new = steps[d]
            if not new:
                if (m[u], m[x]) in edges2:
                    d += 1
                else:
                    up = False
                continue
            w = None if x is None else m[x]
            cands = pool if w is None else preds2[w]
            if len(cands) == 1:  # forced: no bucket
                c = cands[0]
                up = key2[c] == key1[u] and c not in used
                if up:
                    m[u] = c
                    used.add(c)
                    cells[d] = forced
                    d += 1
                continue
            by_key = buckets.get(w)
            if by_key is None:
                by_key = buckets[w] = {}
                for c in cands:
                    by_key.setdefault(key2[c], [0, []])[1].append(c)
            cell = cells[d] = by_key.get(key1[u])
            if cell is None:
                up = False
                continue
            if d == r:  # the run: each permutation, yielded in place
                avail = [c for c in cell[1][cell[0]:] if c not in used]
                for images in permutations(avail, len(run)):
                    m.update(zip(run, images))
                    yield m
                for v in run:
                    m.pop(v, None)
                up = False
                continue
            i = firsts[d] = cell[0]
        else:
            d -= 1
            if d < 0:
                return
            cell = cells[d]
            if cell is None:
                continue
            u = steps[d][0]
            used.discard(m.pop(u))
            if cell is forced:
                continue
            cell[0] = firsts[d]
            i = nexts[d]
        candidates = cell[1]
        for i in range(i, len(candidates)):
            c = candidates[i]
            if c not in used:
                break
        else:
            up = False
            continue
        m[u] = c
        used.add(c)
        if up:  # d's first choice: candidates[first:i] are used
            cell[0] = i + 1
        nexts[d] = i + 1
        d += 1
        up = True


def _check_pairs(pairs, g1: RawGraph, g2: RawGraph) -> None:
    """UnknownVertex for the first u outside g1 or v outside g2, in order."""
    for u, v in pairs:
        for w, g in ((u, g1), (v, g2)):
            if w not in g:
                raise UnknownVertex(w)


def vertex_match_perms(g1: RawGraph, asms1, g2: RawGraph, asms2,
                       m: VMap) -> list[VMap]:
    """All extensions of m matching the vertex set asms1 into asms2.

    A member of asms1 outside g1, or of asms2 outside g2, raises
    UnknownVertex, mapped or not, and so does a key of m outside g1 or a
    value outside g2.  Already-mapped members of asms1 must
    land inside asms2 or there is no extension.  The unmapped members are
    assigned injectively to unused members of asms2 with equal labels, one
    result per distinct assignment, in lexicographic order of the
    assignment.  An empty list means failure.
    """
    members, pool = sorted(set(asms1)), sorted(set(asms2))
    for vs, g in ((members, g1), (pool, g2)):
        for v in vs:
            if v not in g:
                raise UnknownVertex(v)
    _check_pairs(m.items(), g1, g2)
    images = set(pool)
    if any(m[v] not in images for v in members if v in m):
        return []
    steps = [(v, None, True) for v in members if v not in m]
    return [dict(e) for e in _extensions(g2, steps, dict(m), g1.labelling,
                                         g2.labelling, pool)]


def mk_graph_iso(g1: RawGraph, v1: VertexId, g2: RawGraph, v2: VertexId,
                 seed: VMap | None = None) -> list[VMap]:
    """All embeddings of v1's backward closure into g2 that send v1 to v2.

    Walks g1 backward from v1, each vertex once, matching the predecessors
    of each visited vertex x against the predecessors of x's image.
    ``seed`` optionally supplies assignments that every embedding extends;
    a key outside g1 or a value outside g2 raises UnknownVertex.
    """
    m = dict(seed) if seed else {}
    _check_pairs([(v1, v2), *m.items()], g1, g2)
    if g1.labelling[v1] != g2.labelling[v2]:
        return []
    if m.get(v1, v2) != v2 or v2 in set(m.values()) - {m.get(v1)}:
        return []
    m[v1] = v2
    steps = _plan(g1, [v1], set(m))
    return [dict(e) for e in _extensions(g2, steps, m, g1.labelling,
                                         g2.labelling)]


def _colours(g: RawGraph, table: dict) -> tuple[dict[VertexId, int],
                                               list[VertexId]]:
    """Each vertex's (label, in-degree, out-degree), numbered through the
    table the two graphs of one search share, and the minimal vertices."""
    lab, preds, succs = g.labelling, g._preds, g._succs
    colours, minimals = {}, []
    for v in g._sorted_vertices:
        out = len(succs[v])
        if not out:
            minimals.append(v)
        colours[v] = table.setdefault((lab[v], len(preds[v]), out),
                                      len(table))
    return colours, minimals


def _isomorphisms(g1: RawGraph, g2: RawGraph) -> Iterable[VMap]:
    """The isomorphisms, each map valid until the search is resumed."""
    if len(g1) != len(g2) or len(g1.edges) != len(g2.edges):
        return ()
    # Plain-string order: the same verdict, no Python-level comparisons.
    if (sorted(g1.labelling.values(), key=str.__str__)
            != sorted(g2.labelling.values(), key=str.__str__)):
        return ()
    table: dict = {}
    colours1, minimals1 = _colours(g1, table)
    colours2, minimals2 = _colours(g2, table)
    if len(minimals1) != len(minimals2):
        return ()
    cycle = _find_cycle(g1)
    if cycle is not None:
        raise CyclicEdges(cycle)
    if sorted(colours1.values()) != sorted(colours2.values()):
        return ()
    # The plan steps every vertex and every edge of the acyclic g1, so a
    # full extension is injective, keeps colours and sends each edge to an
    # edge; with |V| and |E| equal on both sides it is an isomorphism.
    steps = _plan(g1, minimals1, set())
    return _extensions(g2, steps, {}, colours1, colours2, minimals2)


def alpha_equiv(g1: RawGraph, g2: RawGraph) -> VMap | None:
    """The first total label- and edge-preserving bijection, if any.

    Quick-rejects on vertex and edge counts, label multiset and number of
    minimal vertices; past those, a cyclic g1 raises CyclicEdges.  Then it
    rejects when the graphs differ in how many vertices have each colour,
    (label, in-degree, out-degree).  The search maps g1's minimal vertices
    in order, each followed by its backward closure, each vertex only onto
    one of its own colour, and stops at the first complete map, which is an
    isomorphism.
    """
    # An abandoned search leaves its map as it was yielded: no copy needed.
    return next(iter(_isomorphisms(g1, g2)), None)


def alpha_equiv_all(g1: RawGraph, g2: RawGraph) -> list[VMap]:
    """Every total isomorphism between the graphs, deterministically ordered.

    The search of alpha_equiv run to the end, so the first map is the one
    alpha_equiv returns.
    """
    return list(map(dict, _isomorphisms(g1, g2)))

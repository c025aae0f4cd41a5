"""Independent reference implementations used as test oracles.

Everything here is deliberately literal and slow: direct recursion, full
materialisation of subgraphs, exhaustive permutation search.  These are the
second route against which the production algorithms are checked; they must
not share code with the package beyond the data types.  The one exception is
``ref_to_graph``, whose definition is the fold of the package's graph algebra:
the translation must name vertices exactly as that fold does.
"""

from itertools import permutations

from lgraph import algebra
from lgraph.core import RawGraph
from lgraph.mill import Atom, Lolli, Tensor, Unit
from lgraph.traversal import Action


def plain(g: RawGraph):
    """A RawGraph as plain labelling dict and edge set."""
    return dict(g.labelling), set(g.edges)


def up_closure(g: RawGraph, seeds):
    """Breadth-first closure over predecessors, straight from the edge set."""
    _, edges = plain(g)
    closure = set(seeds)
    grew = True
    while grew:
        grew = False
        for s, d in edges:
            if d in closure and s not in closure:
                closure.add(s)
                grew = True
    return closure


class _Stopped(Exception):
    def __init__(self, value):
        self.value = value


def ref_traverse(f, g: RawGraph, v, a0):
    """Literal recursive depth-first fold with exception-based early exit."""
    _, edges = plain(g)

    def preds(x):
        return sorted(s for s, d in edges if d == x)

    def fold(x, acc):
        action, acc = f(x, acc)
        if action is Action.STOP:
            raise _Stopped(acc)
        if action is Action.SKIP:
            return acc
        for w in preds(x):
            acc = fold(w, acc)
        return acc

    try:
        return fold(v, a0)
    except _Stopped as stop:
        return stop.value


def ref_acyclic(labelling, edges) -> bool:
    colour = {v: 0 for v in labelling}

    def visit(v):
        if colour[v] == 1:
            return False
        if colour[v] == 2:
            return True
        colour[v] = 1
        for s, d in edges:
            if s == v and not visit(d):
                return False
        colour[v] = 2
        return True

    return all(visit(v) for v in labelling)


def ref_decompose(labelling, edges):
    """The recursive conclusion-clique decomposition, fully materialised.

    Implements the definition clause by clause: group the conclusions by
    their direct-predecessor sets, demand each predecessor points at
    exactly its clique, materialise each clique's predecessor closure,
    check the parts are pairwise disjoint and cover everything, then recur
    on each closure's induced subgraph.  Returns nested
    [(clique_tuple, children), ...]; raises ValueError when ill-formed.
    Assumes acyclicity was checked already.
    """
    if not labelling:
        return []
    verts = set(labelling)
    out = {v: {d for s, d in edges if s == v} for v in verts}
    preds = {v: {s for s, d in edges if d == v} for v in verts}
    concl = sorted(v for v in verts if not out[v])
    if not concl:
        raise ValueError("no conclusions in a nonempty graph")
    groups = {}
    for c in concl:
        groups.setdefault(frozenset(preds[c]), []).append(c)
    parts = []
    for key, clique in groups.items():
        for w in key:
            if out[w] != set(clique):
                raise ValueError(f"predecessor {w} points beyond its clique")
        closure = set(key)
        grew = True
        while grew:
            grew = False
            for s, d in edges:
                if d in closure and s not in closure:
                    closure.add(s)
                    grew = True
        parts.append((tuple(clique), closure))
    covered = set()
    for clique, closure in parts:
        part = set(clique) | closure
        if covered & part:
            raise ValueError(f"parts overlap at {covered & part}")
        covered |= part
    if covered != verts:
        raise ValueError("parts do not cover the vertex set")
    result = []
    for clique, closure in parts:
        sub_lab = {v: labelling[v] for v in closure}
        sub_edges = {(s, d) for s, d in edges if s in closure and d in closure}
        result.append((clique, ref_decompose(sub_lab, sub_edges)))
    return result


def ref_valid(g: RawGraph) -> bool:
    lab, edges = plain(g)
    if not ref_acyclic(lab, edges):
        return False
    try:
        ref_decompose(lab, edges)
        return True
    except ValueError:
        return False


def tree_shape(tree):
    """Order-insensitive normal form of a decomposition tree."""
    return frozenset((frozenset(clique), tree_shape(children))
                     for clique, children in tree)


def ref_all_isos(g1: RawGraph, g2: RawGraph):
    """Every label/edge-preserving bijection, by full permutation search."""
    vs1 = sorted(g1.labelling)
    vs2 = sorted(g2.labelling)
    if len(vs1) != len(vs2):
        return []
    found = []
    for image in permutations(vs2):
        m = dict(zip(vs1, image))
        if any(g1.labelling[v] != g2.labelling[w] for v, w in m.items()):
            continue
        if {(m[s], m[d]) for s, d in g1.edges} != g2.edges:
            continue
        found.append(m)
    return found


def ref_to_graph(f):
    """Literal recursive fold of add and implies over a formula."""
    if isinstance(f, Unit):
        return algebra.empty()
    if isinstance(f, Atom):
        return algebra.singleton(f.label)
    if isinstance(f, Tensor):
        return algebra.add(ref_to_graph(f.left), ref_to_graph(f.right)).graph
    if isinstance(f, Lolli):
        return algebra.implies(ref_to_graph(f.left),
                               ref_to_graph(f.right)).graph
    raise TypeError(f"not a formula: {f!r}")

"""Core graph structures and validation for logical graphs.

A logical graph is a finite labelled DAG whose edges read as implication:
multiple edges into a vertex are a conjunction of premises, multiple edges
out of a vertex a conjunction of conclusions.  Not every labelled DAG has
such a reading; ``validate`` checks the shape condition (acyclicity plus a
recursive conclusion-clique decomposition) and promotes a ``RawGraph`` to a
``LogicalGraph``.

Vertices and labels are distinct identifier types on purpose: a vertex is an
*occurrence* of the atom its label names, and the two must never be mixed up.

All values here are immutable after construction and all operations are
pure; returned collections iterate in ascending identifier order so that
every downstream computation (traversal, isomorphism search, printing) is
deterministic.
"""

from __future__ import annotations

import json
import re
from enum import Enum
from types import MappingProxyType
from typing import Iterable, Mapping


class Error(Exception):
    """Base class for all errors raised by this package."""


class UnknownVertex(Error):
    def __init__(self, vertex):
        super().__init__(f"unknown vertex: {vertex!r}")
        self.vertex = vertex


class CyclicEdges(Error):
    """The edge relation has a cycle; its transitive closure is not a strict order."""

    def __init__(self, cycle):
        names = " -> ".join(str(v) for v in cycle)
        super().__init__(f"edge cycle: {names} -> {cycle[0]}")
        self.cycle = tuple(cycle)


class NotWellFormed(Error):
    """The graph is acyclic but has no conjunction/implication reading."""

    def __init__(self, message, witness):
        super().__init__(message)
        self.witness = witness


class NotASubgraphByName(Error):
    """The subtrahend mentions a vertex the minuend lacks (or labels disagree)."""


class _Identifier(str):
    """A nonempty name; interning keeps hashing and comparison at str speed
    while equality stays strict about the identifier kind."""

    __slots__ = ()
    _interned: dict[str, "_Identifier"]

    def __new__(cls, name: str):
        cached = cls._interned.get(name)
        if cached is not None:
            return cached
        if not isinstance(name, str) or not name:
            raise ValueError(f"{cls.__name__} needs a nonempty string, got {name!r}")
        made = super().__new__(cls, name)
        cls._interned[name] = made
        return made

    @property
    def name(self) -> str:
        return str.__str__(self)

    def __eq__(self, other):
        return type(other) is type(self) and str.__eq__(self, other)

    def __ne__(self, other):
        return not (type(other) is type(self) and str.__eq__(self, other))

    __hash__ = str.__hash__

    def __repr__(self):
        return f"{type(self).__name__[0]}({str.__str__(self)!r})"


class VertexId(_Identifier):
    """A vertex name; ordered lexicographically."""

    __slots__ = ()
    _interned = {}


class LabelId(_Identifier):
    """An atom name; a separate type from VertexId by design."""

    __slots__ = ()
    _interned = {}


# A finite set of vertices with deterministic (ascending) iteration order.
VSet = tuple[VertexId, ...]


def vset(vertices: Iterable[VertexId]) -> VSet:
    """Deduplicate and sort vertices ascending."""
    return tuple(sorted(set(vertices)))


class RawGraph:
    """An unvalidated labelled digraph.

    ``labelling`` maps each vertex to its label, so every label has an
    instance.  ``edges`` is a set of ordered vertex pairs.  In the caller's
    order, the first vertex not a VertexId, or label not a LabelId, raises
    TypeError, and then the first unlabelled endpoint UnknownVertex.
    Instances are immutable and all built by ``_wire``, which precomputes
    adjacency so predecessor/successor queries are O(degree).
    """

    __slots__ = ("labelling", "edges", "_sorted_vertices", "_preds", "_succs",
                 "_peel_cache")

    def __init__(self, labelling: Mapping[VertexId, LabelId],
                 edges: Iterable[tuple[VertexId, VertexId]] = ()):
        lab = dict(labelling)
        for v, l in lab.items():
            for x, kind in ((v, VertexId), (l, LabelId)):
                if not isinstance(x, kind):
                    raise TypeError(f"{x!r} is not a {kind.__name__}")
        edges = list(edges)
        for src, dst in edges:
            if src not in lab or dst not in lab:
                raise UnknownVertex(src if src not in lab else dst)
        self._wire(lab, edges)

    def _wire(self, lab: dict, edges: list) -> None:
        """Fill the slots: lab is owned and labels every edge endpoint.

        edges is wired in its own order when it repeats no edge, since on a
        large graph vertex order is much faster than the set's hash order.
        Small graphs are common, so the fixed cost is kept low: no sorts
        under two edges, and the slots are set through their descriptors.
        """
        eset = frozenset(edges)
        # Sorting by the plain string keeps the order and skips the
        # Python-level comparison that VertexId's __eq__ brings with it,
        # which is most of the cost of sorting many vertices.
        verts = sorted(lab, key=str.__str__)
        preds: dict[VertexId, list[VertexId]] = {v: [] for v in verts}
        succs: dict[VertexId, list[VertexId]] = {v: [] for v in verts}
        for src, dst in (edges if len(edges) == len(eset) else eset):
            preds[dst].append(src)
            succs[src].append(dst)
        if len(eset) > 1:
            for lst in preds.values():
                if len(lst) > 1:
                    lst.sort(key=str.__str__)
            for lst in succs.values():
                if len(lst) > 1:
                    lst.sort(key=str.__str__)
        set_lab, set_edges, set_verts, set_preds, set_succs, set_peel = _SLOTS
        set_lab(self, MappingProxyType(lab))
        set_edges(self, eset)
        set_verts(self, tuple(verts))
        set_preds(self, preds)
        set_succs(self, succs)
        set_peel(self, None)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def _sorted_edges(self) -> tuple[tuple[VertexId, VertexId], ...]:
        """All edges ascending: the sorted successor lists in vertex order."""
        succs = self._succs
        return tuple((v, w) for v in self._sorted_vertices for w in succs[v])

    def __contains__(self, v: VertexId) -> bool:
        return v in self.labelling

    def __len__(self) -> int:
        return len(self.labelling)

    def __eq__(self, other):
        if not isinstance(other, RawGraph):
            return NotImplemented
        return self.labelling == other.labelling and self.edges == other.edges

    def __hash__(self):
        return hash((frozenset(self.labelling.items()), self.edges))

    def __repr__(self):
        kind = type(self).__name__
        if len(self) <= 8:
            labs = ", ".join(f"{v}:{l}" for v, l in
                             sorted(self.labelling.items()))
            edges = ", ".join(f"{s}>{d}" for s, d in self._sorted_edges)
            return f"{kind}({{{labs}}}, [{edges}])"
        return f"{kind}(<{len(self)} vertices, {len(self.edges)} edges>)"

    def vertices(self) -> VSet:
        return self._sorted_vertices

    def label_of(self, v: VertexId) -> LabelId:
        try:
            return self.labelling[v]
        except KeyError:
            raise UnknownVertex(v) from None


# RawGraph's slot setters in ``__slots__`` order; they skip ``__setattr__``.
_SLOTS = tuple(getattr(RawGraph, slot).__set__ for slot in RawGraph.__slots__)


class LogicalGraph(RawGraph):
    """A RawGraph that passed ``validate``.

    Built by ``validate``, by the constructor, which runs its checks and
    raises what it raises, or by the operations documented to preserve
    validity: ``empty``, ``singleton``, ``add`` of valid operands,
    ``assumption_graph``/``full_assumption_graph``, ``rename_apart``.
    Equality is structural and compatible with RawGraph.
    """

    __slots__ = ()

    def __init__(self, labelling, edges=()):
        super().__init__(labelling, edges)
        validate(self)


def _graph(cls: type, lab: dict, edges: list) -> RawGraph:
    """Internal constructor for callers that own lab and built the edge
    list from lab's own keys; skips the defensive copy and endpoint checks."""
    g = cls.__new__(cls)
    g._wire(lab, edges)
    return g


def predecessors(g: RawGraph, v: VertexId) -> VSet:
    """Vertices with an edge going to v, ascending."""
    if v not in g:
        raise UnknownVertex(v)
    return tuple(g._preds[v])


def successors(g: RawGraph, v: VertexId) -> VSet:
    """Vertices v has an edge to, ascending."""
    if v not in g:
        raise UnknownVertex(v)
    return tuple(g._succs[v])


def conclusions(g: RawGraph) -> VSet:
    """The minimal vertices: those with no outgoing edge."""
    succs = g._succs
    return tuple(v for v in g._sorted_vertices if not succs[v])


def _find_cycle(g: RawGraph) -> list[VertexId] | None:
    """Return some edge cycle, or None if the graph is acyclic."""
    if g._peel_cache is not None:  # only an acyclic graph has a peel tree
        return None
    out_deg = {v: len(g._succs[v]) for v in g._sorted_vertices}
    ready = [v for v, d in out_deg.items() if d == 0]
    seen = len(ready)
    while ready:
        v = ready.pop()
        for w in g._preds[v]:
            out_deg[w] -= 1
            if out_deg[w] == 0:
                ready.append(w)
                seen += 1
    if seen == len(g):
        return None
    # Every remaining vertex has a remaining out-edge; walk until a repeat.
    remaining = {v for v, d in out_deg.items() if d > 0}
    v = min(remaining)
    trail, pos = [], {}
    while v not in pos:
        pos[v] = len(trail)
        trail.append(v)
        v = next(w for w in g._succs[v] if w in remaining)
    return trail[pos[v]:]


# The decomposition tree of a graph, as produced by _peel: a list of
# (clique, children) pairs where clique is an ascending tuple of the
# conclusions sharing one direct-predecessor set and children is the
# tree of that shared predecessor set's own subgraph.
PeelTree = list[tuple[VSet, "PeelTree"]]


def _overreach(w: VertexId, t: VertexId, clique) -> NotWellFormed:
    """The error for a predecessor w of clique that also implies t."""
    return NotWellFormed(f"vertex {w} implies {t} but also the conclusion "
                         f"set {{{', '.join(clique)}}}", witness=(w, t))


def _peel(g: RawGraph) -> PeelTree:
    """Decompose an acyclic graph into nested conclusion cliques.

    Equivalent to the recursive definition -- group the conclusions by
    their direct-predecessor sets, peel each clique and check that every
    successor of every predecessor in its key is peeled, then recurse on
    each clique's predecessor closure -- but runs in one linear pass:
    vertices are peeled off bottom-up, as removing a clique makes its
    predecessor set the conclusion set of the nested subgraph, so no nested
    subgraph is materialised.  Any overlap between sibling parts surfaces
    as a failed check on some descendant level, so the disjointness test
    on materialised closures is never needed.

    Conclusions group by their predecessor lists, ascending from ``_wire``,
    so a key is already its nested level's conclusion list; a level with
    one conclusion, as every level of a chain is, skips the grouping.

    Raises NotWellFormed, with leftover vertices (detected by the cover
    check at the end) standing in for cycles; ``validate`` tells the two
    apart.
    """
    preds, succs = g._preds, g._succs
    peeled: set[VertexId] = set()
    root: PeelTree = []
    top = [v for v in g._sorted_vertices if not succs[v]]
    stack: list[tuple[VSet | list[VertexId], PeelTree]] = [(top, root)]
    while stack:
        concl, node = stack.pop()
        # One-clique levels, as in a chain, loop here without the stack.
        while len(concl) == 1:
            c = concl[0]
            key = preds[c]
            peeled.add(c)
            for w in key:
                for t in succs[w]:
                    if t not in peeled:
                        raise _overreach(w, t, concl)
            child = []
            node.append(((c,), child))
            concl, node = key, child
        if not concl:
            continue
        groups: dict[VSet, list[VertexId]] = {}
        for c in concl:  # ascending, so each clique collects ascending
            groups.setdefault(tuple(preds[c]), []).append(c)
        # No check here passes only for t in an earlier clique A: then w is
        # in A's key and implies this clique, unpeeled then, so A failed.
        for key, clique in groups.items():
            peeled.update(clique)
            for w in key:
                for t in succs[w]:
                    if t not in peeled:
                        raise _overreach(w, t, clique)
            child: PeelTree = []
            node.append((tuple(clique), child))
            if key:
                stack.append((key, child))
    if len(peeled) != len(g):
        leftover = min(set(g._sorted_vertices) - peeled)
        raise NotWellFormed(f"vertex {leftover} was never decomposed",
                            witness=(leftover,))
    return root


def validate(g: RawGraph) -> LogicalGraph:
    """Check acyclicity and well-formedness; return the promoted graph.

    Raises CyclicEdges with a witness cycle, or NotWellFormed with an
    offending vertex pair, when the graph has no formula reading.  The pair
    (w, t) is the first the peel meets, so it does not depend on hash order:
    within a level, cliques by least conclusion and w and t ascending; the
    nested levels depth first, the last clique's level first.
    """
    try:
        peel_tree(g)
    except NotWellFormed:
        # A cycle also breaks the peel; report it as what it is.
        cycle = _find_cycle(g)
        if cycle is not None:
            raise CyclicEdges(cycle) from None
        raise
    # Promote by sharing the immutable internals, the peel tree included.
    promoted = LogicalGraph.__new__(LogicalGraph)
    for slot in RawGraph.__slots__:
        object.__setattr__(promoted, slot, getattr(g, slot))
    return promoted


def peel_tree(g: LogicalGraph) -> PeelTree:
    """The conclusion-clique tree of a validated graph (construction order).

    Shared and cached; treat the returned structure as read-only.
    """
    tree = g._peel_cache
    if tree is None:
        tree = _peel(g)
        object.__setattr__(g, "_peel_cache", tree)
    return tree


def _up_closure(g: RawGraph, seeds: Iterable[VertexId]) -> set[VertexId]:
    """seeds plus every vertex with a directed path into seeds."""
    preds = g._preds
    closure = set(seeds)
    frontier = list(closure)
    while frontier:
        v = frontier.pop()
        for w in preds[v]:
            if w not in closure:
                closure.add(w)
                frontier.append(w)
    return closure


def _restrict(g: RawGraph, members: Iterable[VertexId], cls: type) -> RawGraph:
    # The subgraph induced on members, which subtract also builds.  Members
    # in vertex order, as subtract lists them, sort in one run; sorted, they
    # hand _wire one run to sort and an edge list in vertex order.
    lab = g.labelling
    preds = g._preds
    sub = {v: lab[v] for v in sorted(members, key=str.__str__)}
    return _graph(cls, sub,
                  [(w, v) for v in sub for w in preds[v] if w in sub])


def assumption_graph(g: RawGraph, v: VertexId) -> RawGraph:
    """The subgraph proving v: v plus everything with a path into v.

    v is the unique conclusion of the result.  Validity is preserved, so a
    LogicalGraph input yields a LogicalGraph without re-validation.
    """
    if v not in g:
        raise UnknownVertex(v)
    return _restrict(g, _up_closure(g, (v,)), type(g))


def full_assumption_graph(g: RawGraph, v: VertexId) -> RawGraph:
    """The union of the assumption graphs of v's direct predecessors."""
    if v not in g:
        raise UnknownVertex(v)
    return _restrict(g, _up_closure(g, g._preds[v]), type(g))


def induced_subgraph(g: RawGraph, w: Iterable[VertexId]) -> RawGraph:
    """The vertices of w plus the edges of g between them; result is raw.

    Raises UnknownVertex for the first vertex of w, in w's order, not in g.
    """
    w = list(w)
    for v in w:
        if v not in g:
            raise UnknownVertex(v)
    return _restrict(g, w, RawGraph)


class SubgraphRelation(Enum):
    NOT_SUBGRAPH = "not-subgraph"
    VERTEX_SUBGRAPH = "vertex-subgraph"
    STRICT_VERTEX_SUBGRAPH = "strict-vertex-subgraph"


def subgraph_relation(g: RawGraph, h: RawGraph) -> SubgraphRelation:
    """How g sits inside h, comparing concrete vertex names.

    g is a vertex subgraph of h when h has every g vertex with the same
    label and every g edge; strict when additionally h has no extra edges
    between g's vertices.
    """
    for v, l in g.labelling.items():
        if h.labelling.get(v) != l:
            return SubgraphRelation.NOT_SUBGRAPH
    if not g.edges <= h.edges:
        return SubgraphRelation.NOT_SUBGRAPH
    for (src, dst) in h.edges - g.edges:
        if src in g.labelling and dst in g.labelling:
            return SubgraphRelation.VERTEX_SUBGRAPH
    return SubgraphRelation.STRICT_VERTEX_SUBGRAPH


_TRAILING_DIGITS = re.compile(r"^(.*?)(\d*)$")


def _fresh_names(bases: Iterable[str], taken: set[str]) -> list[str]:
    """For each base in turn, the first name not in taken made by bumping
    or appending a numeric suffix, each result added to taken.

    Gives exactly the names of that literal loop, but scans each taken
    suffix once: per-stem skip links, path-compressed, jump over runs of
    taken suffixes, so a name costs amortised near-constant time.
    """
    skips: dict[str, dict[int, int]] = {}  # suffixes p..skip[p]-1 are taken
    names = []
    for base in bases:
        stem, digits = _TRAILING_DIGITS.match(base).groups()
        n = start = int(digits) + 1 if digits else 0
        skip = skips.get(stem)
        if skip is None:
            skip = skips[stem] = {}
        while True:
            jump = skip.get(n)
            if jump is not None:
                n = jump
            elif f"{stem}{n}" in taken:
                n += 1
            else:
                break
        # Every suffix on the walk from start is taken, and so is n now:
        # link the whole walk past n.
        end = n + 1
        while start != n:
            step = skip.get(start, start + 1)
            skip[start] = end
            start = step
        skip[n] = end
        name = f"{stem}{n}"
        taken.add(name)
        names.append(name)
    return names


def _renamed_apart(g: RawGraph, avoid: frozenset[VertexId]
                   ) -> tuple[dict[VertexId, LabelId],
                              list[tuple[VertexId, VertexId]],
                              dict[VertexId, VertexId]]:
    """Labelling, edges, and total map of g renamed away from avoid."""
    verts = g._sorted_vertices
    mapping = dict(zip(verts, verts))
    if avoid.isdisjoint(g.labelling):
        return dict(g.labelling), list(g.edges), mapping
    taken = set(map(str.__str__, avoid))
    taken.update(map(str.__str__, verts))
    clash = [v for v in verts if v in avoid]
    mapping.update(zip(clash, map(VertexId, _fresh_names(clash, taken))))
    lab = {mapping[v]: l for v, l in g.labelling.items()}
    edges = [(mapping[s], mapping[d]) for s, d in g.edges]
    return lab, edges, mapping


def rename_apart(g: RawGraph, avoid: Iterable[VertexId]
                 ) -> tuple[RawGraph, dict[VertexId, VertexId]]:
    """Rename g's vertices that collide with avoid to fresh names.

    Returns the renamed graph and the total renaming map (identity entries
    included).  Fresh names are deterministic: smallest numeric suffix on
    the colliding name not already taken.  Structure is preserved, so the
    result keeps the input's validation status.  Every name in avoid is a
    VertexId: TypeError names the first that is not, in avoid's order.
    """
    avoid = list(avoid)
    if bad := [x for x in avoid if not isinstance(x, VertexId)]:
        raise TypeError(f"rename_apart: {bad[0]!r} is not a VertexId")
    lab, edges, mapping = _renamed_apart(g, frozenset(avoid))
    return _graph(type(g), lab, edges), mapping


def rename_graph(g: RawGraph, mapping: Mapping[VertexId, VertexId]) -> RawGraph:
    """Apply a vertex renaming (identity where unmapped); must not merge.
    TypeError names the mapping's first key or value not a VertexId."""
    if bad := [x for pair in mapping.items() for x in pair
               if not isinstance(x, VertexId)]:
        raise TypeError(f"rename_graph: {bad[0]!r} is not a VertexId")
    lab = {mapping.get(v, v): l for v, l in g.labelling.items()}
    if len(lab) != len(g.labelling):
        raise ValueError("renaming is not injective on the graph's vertices")
    edges = [(mapping.get(s, s), mapping.get(d, d)) for s, d in g.edges]
    return _graph(type(g), lab, edges)


def to_json(g: RawGraph) -> str:
    """Canonical file form: sorted vertex keys, lexicographically sorted edges."""
    lab = g.labelling
    return json.dumps({"edges": g._sorted_edges,
                       "vertices": {v: lab[v] for v in g._sorted_vertices}},
                      separators=(",", ":"), ensure_ascii=False)


def _bad_edge(edges: list, named: dict[str, VertexId]) -> Error:
    """The error of the first edge, in file order, that does not resolve."""
    for e in edges:
        if (not isinstance(e, list) or len(e) != 2
                or not all(isinstance(x, str) and x for x in e)):
            return Error(f"invalid graph file: bad edge {e!r}")
        if missing := [x for x in e if x not in named]:
            return UnknownVertex(VertexId(missing[0]))


def from_json(text: str) -> RawGraph:
    """Parse the graph file format; key and edge order are not significant.

    Endpoints resolve in one pass through the file's own name table, so the
    graph skips ``RawGraph``'s re-check; ``_bad_edge`` reports bad edges.
    """
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deep
        raise Error(f"invalid graph file: {exc}") from None
    if not isinstance(obj, dict):
        raise Error("invalid graph file: top level must be an object")
    unknown = set(obj) - {"vertices", "edges", "formula"}
    if unknown:
        raise Error(f"invalid graph file: unknown keys {sorted(unknown)}")
    vertices = obj.get("vertices", {})
    edges = obj.get("edges", [])
    # Object keys from json.loads are always strings; the labels may not be.
    if not isinstance(vertices, dict) or not all(
            isinstance(v, str) for v in vertices.values()):
        raise Error("invalid graph file: \"vertices\" must map names to labels")
    # Unless text holds a \u escape or non-ASCII, every name is ASCII.
    if not isinstance(text, str) or "\\u" in text or not text.isascii():
        for name in (*vertices, *vertices.values()):
            try:
                name.encode()
            except UnicodeEncodeError:  # a lone surrogate, from a \u escape
                raise Error(f"invalid graph file: name {name!r} cannot be "
                            "encoded as UTF-8") from None
    vertex, label = VertexId._interned.get, LabelId._interned.get
    try:
        lab = {vertex(k) or VertexId(k): label(v) or LabelId(v)
               for k, v in vertices.items()}
    except ValueError as exc:
        raise Error(f"invalid graph file: {exc}") from None
    if not isinstance(edges, list):
        raise Error("invalid graph file: \"edges\" must be a list")
    named = dict(zip(vertices, lab))  # edge endpoints resolve through this
    try:
        # A 2-character string or a 2-key dict would unpack as an edge.
        pairs = [(named[s], named[d]) for e in edges
                 for s, d in (e if type(e) is list else (),)]
    except (KeyError, TypeError, ValueError):
        raise _bad_edge(edges, named) from None
    return _graph(RawGraph, lab, pairs)

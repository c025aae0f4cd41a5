"""Independent reference implementations used as test oracles.

Everything here is deliberately literal and slow: direct recursion, full
materialisation of subgraphs, exhaustive permutation search.  These are the
second route against which the production algorithms are checked; they must
not share code with the package beyond the data types.  There are two
exceptions.  ``ref_to_graph``'s definition is the fold of the package's graph
algebra: the translation must name vertices exactly as that fold does.
``ref_vertex_match_perms``, ``ref_mk_graph_iso`` and ``ref_alpha_equiv_all``
are the package's earlier list-based isomorphism search, kept as it was on
``traverse_dfs``: it builds every permutation and every partial map eagerly
and loops forever on a cyclic graph, but its output order is the one the
package's lazy search must reproduce map for map.  ``ref_parse``,
``ref_print_formula`` and ``ref_canonicalize`` are the package's earlier
recursive parser, printer and canonical walk, kept as they were: they run
out of stack on deep formulas, but their outputs, errors included, are the
ones the package's stack walks must reproduce exactly.  ``ref_parse``
reads the tokens of the package's earlier tokenizer, ``_tokenize``, kept
as it was, so lexical errors are checked against a second route too.
``ref_from_json`` and ``ref_peel`` are the package's earlier graph-file
reader and peel, kept as they were: the reader checks and resolves one edge
at a time and builds through ``RawGraph(...)``, and the peel groups by
frozensets, so its ``NotWellFormed`` witness depends on hash order.  Their
graphs, trees, errors and messages on accepted inputs are the ones the
package's fast paths must reproduce exactly.  ``ref_to_json`` and
``ref_stack_to_graph`` are the package's earlier file writer, which sorts
keys in ``json``, and its earlier one-stack translation, which pushes every
operand with a class marker, kept as they were but for the translation's
caches, inlined.  The translation runs at any depth in linear time, so it
is the reference where the fold above is too deep or too slow; the two
name vertices alike, but only it puts the labelling in name order.
``fresh_name`` is the literal loop, one suffix at a time, whose names the
package's batched ``_fresh_names`` must give.
"""

import json
import re
from itertools import permutations, product

from lgraph import algebra
from lgraph.core import (CyclicEdges, Error, LabelId, LogicalGraph,
                         NotWellFormed, PeelTree, RawGraph, UnknownVertex,
                         VertexId, _find_cycle)
from lgraph.mill import (Atom, Decomposition, DecompositionPart, Formula,
                         Lolli, ParseError, Tensor, Unit)
from lgraph.traversal import Action, traverse_dfs


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


def ref_from_json(text: str) -> RawGraph:
    """Parse the graph file format; key and edge order are not significant."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise Error(f"invalid graph file: {exc}") from None
    if not isinstance(obj, dict):
        raise Error("invalid graph file: top level must be an object")
    unknown = set(obj) - {"vertices", "edges", "formula"}
    if unknown:
        raise Error(f"invalid graph file: unknown keys {sorted(unknown)}")
    vertices = obj.get("vertices", {})
    edges = obj.get("edges", [])
    if not isinstance(vertices, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in vertices.items()):
        raise Error("invalid graph file: \"vertices\" must map names to labels")
    lab = {}
    named: dict[str, VertexId] = {}  # edge endpoints resolve through this
    try:
        for k, v in vertices.items():
            named[k] = vertex = VertexId(k)
            lab[vertex] = LabelId(v)
    except ValueError as exc:
        raise Error(f"invalid graph file: {exc}") from None
    if not isinstance(edges, list):
        raise Error("invalid graph file: \"edges\" must be a list")
    pairs = []
    for e in edges:
        if (not isinstance(e, list) or len(e) != 2
                or not all(isinstance(x, str) and x for x in e)):
            raise Error(f"invalid graph file: bad edge {e!r}")
        src, dst = named.get(e[0]), named.get(e[1])
        if src is None or dst is None:
            raise UnknownVertex(VertexId(e[0] if src is None else e[1]))
        pairs.append((src, dst))
    return RawGraph(lab, pairs)


def ref_peel(g: RawGraph) -> PeelTree:
    """The linear peel into nested conclusion cliques, grouping by frozensets.

    Raises NotWellFormed, with leftover vertices (detected by the cover
    check at the end) standing in for cycles.
    """
    preds, succs = g._preds, g._succs
    peeled: set[VertexId] = set()
    root: PeelTree = []
    top = [v for v in g._sorted_vertices if not succs[v]]
    stack: list[tuple[list[VertexId], PeelTree]] = [(top, root)]
    while stack:
        concl, node = stack.pop()
        if not concl:
            continue
        groups: dict[frozenset[VertexId], list[VertexId]] = {}
        for c in concl:  # ascending, so each clique collects ascending
            groups.setdefault(frozenset(preds[c]), []).append(c)
        # Check every clique of this level before peeling any of them:
        # a predecessor must point at its whole clique and nothing else.
        for key, clique in groups.items():
            cset = set(clique)
            for w in key:
                for t in succs[w]:
                    if t not in cset and t not in peeled:
                        raise NotWellFormed(
                            f"vertex {w} implies {t} but also the "
                            f"conclusion set {{{', '.join(clique)}}}",
                            witness=(w, t))
        for clique in groups.values():
            peeled.update(clique)
        for key, clique in groups.items():
            child: PeelTree = []
            node.append((tuple(clique), child))
            if key:
                stack.append((sorted(key), child))
    if len(peeled) != len(g):
        leftover = min(set(g._sorted_vertices) - peeled)
        raise NotWellFormed(f"vertex {leftover} was never decomposed",
                            witness=(leftover,))
    return root


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


_TRAILING_DIGITS = re.compile(r"^(.*?)(\d*)$")


def fresh_name(base: str, taken: set[str]) -> str:
    """The first name not in taken: bump/append a numeric suffix on base."""
    stem, digits = _TRAILING_DIGITS.match(base).groups()
    n = int(digits) + 1 if digits else 0
    while f"{stem}{n}" in taken:
        n += 1
    return f"{stem}{n}"


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


def ref_stack_to_graph(f):
    """One post-order pass over an explicit stack, as the package had it."""
    if type(f) is Unit:
        return algebra.empty()
    if type(f) is Atom:
        return algebra.singleton(f.label)

    def in_string_order(items):
        m = len(items)
        return items if m <= 10 else [items[i] for i in
                                      sorted(range(m), key=str)]

    labels: list[LabelId] = []
    edges: list[tuple[int, int]] = []
    has_lolli = False
    results: list[tuple[list[int], list[int]]] = []
    todo: list = [f]
    while todo:
        x = todo.pop()
        kind = type(x)
        if kind is Atom:
            v = len(labels)
            labels.append(x.label)
            results.append(([v], [v]))
        elif kind is Unit:
            results.append(([], []))
        elif kind is Tensor or kind is Lolli:
            todo += (kind, x.right, x.left)
        elif x is Tensor or x is Lolli:
            k_slots, k_ends = results.pop()
            h_slots, h_ends = results.pop()
            a, b = len(h_slots), len(k_slots)
            if a <= b:
                slots = k_slots
                slots.extend(in_string_order(h_slots))
            else:
                slots = h_slots
                low = slots[:b]
                slots[:b] = k_slots
                slots.extend(in_string_order(low))
            if x is Lolli:
                has_lolli = True
                edges.extend(product(h_ends, k_ends))
                ends = k_ends if k_ends else h_ends
            elif len(h_ends) < len(k_ends):
                ends = k_ends
                ends.extend(h_ends)
            else:
                ends = h_ends
                ends.extend(k_ends)
            results.append((slots, ends))
        else:
            raise TypeError(f"not a formula: {x!r}")
    (slots, _), = results
    names = [VertexId(f"v{i}") for i in range(len(slots))]
    name_of: list = [None] * len(slots)
    for i, v in enumerate(slots):
        name_of[v] = names[i]
    # In name order, so that sorting the vertices is one linear pass.
    lab = {names[i]: labels[slots[i]]
           for i in sorted(range(len(slots)), key=str)}
    cls = RawGraph if has_lolli else LogicalGraph
    return cls(lab, [(name_of[s], name_of[d]) for s, d in edges])


def ref_to_json(g: RawGraph) -> str:
    """Canonical file form: sorted vertex keys, lexicographically sorted edges."""
    name = str.__str__  # the plain name, without the property call
    obj = {
        "vertices": {name(v): name(l) for v, l in g.labelling.items()},
        "edges": [[name(s), name(d)] for s, d in g._sorted_edges],
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


_TOKEN = re.compile(r"\s*(?:([A-Za-z][A-Za-z0-9_]*)|(\d+)|(-o)|([*()]))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            at = len(text) - len(rest)
            raise ParseError(at, "an atom, '1', '*', '-o', or parenthesis",
                             rest[0])
        ident, digits, lolli, punct = m.groups()
        if ident is not None:
            tokens.append(("atom", ident, m.start(1)))
        elif digits is not None:
            if digits != "1":
                raise ParseError(m.start(2), "'1' (the only numeric literal)",
                                 digits)
            tokens.append(("unit", digits, m.start(2)))
        elif lolli is not None:
            tokens.append(("-o", lolli, m.start(3)))
        else:
            tokens.append((punct, punct, m.start(4)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    # lolli : tensor ('-o' lolli)?     right-associative
    # tensor: primary ('*' primary)*   left-associative, binds tighter
    # primary: '1' | atom | '(' lolli ')'

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse(self) -> Formula:
        f = self.lolli()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ParseError(pos, "end of input", value)
        return f

    def lolli(self) -> Formula:
        left = self.tensor()
        if self.peek()[0] == "-o":
            self.take()
            return Lolli(left, self.lolli())
        return left

    def tensor(self) -> Formula:
        f = self.primary()
        while self.peek()[0] == "*":
            self.take()
            f = Tensor(f, self.primary())
        return f

    def primary(self) -> Formula:
        kind, value, pos = self.take()
        if kind == "atom":
            return Atom(LabelId(value))
        if kind == "unit":
            return Unit()
        if kind == "(":
            f = self.lolli()
            kind, value, pos = self.take()
            if kind != ")":
                raise ParseError(pos, "')'", value)
            return f
        raise ParseError(pos, "an atom, '1', or '('", value)


def ref_parse(text: str) -> Formula:
    """Recursive descent: '*' binds tighter than right-associative '-o'."""
    return _Parser(text).parse()


def ref_print_formula(f: Formula) -> str:
    """Recursive rendering with minimal parentheses."""
    return _render(f, 0)


def _render(f: Formula, context: int) -> str:
    match f:
        case Unit():
            return "1"
        case Atom(label):
            return label.name
        case Tensor(left, right):
            s = f"{_render(left, 2)} * {_render(right, 3)}"
            return f"({s})" if context > 2 else s
        case Lolli(left, right):
            s = f"{_render(left, 2)} -o {_render(right, 1)}"
            return f"({s})" if context > 1 else s
    raise TypeError(f"not a formula: {f!r}")


def _tensor_all(formulas: list[Formula]) -> Formula:
    if not formulas:
        return Unit()
    result = formulas[-1]
    for f in reversed(formulas[:-1]):
        result = Tensor(f, result)
    return result


# Precedences matching _render: parenthesise a piece exactly when its
# precedence is below the context it is placed in.
_ATOMIC, _TENSOR, _LOLLI = 9, 2, 1


def _tensor_text(parts: list[tuple[str, int]]) -> tuple[str, int]:
    """Right-nested tensor text from (text, precedence) pieces."""
    if not parts:
        return "1", _ATOMIC
    text, prec = parts[-1]
    for left_text, left_prec in reversed(parts[:-1]):
        right = f"({text})" if prec < 3 else text
        left = f"({left_text})" if left_prec < 2 else left_text
        text, prec = f"{left} * {right}", _TENSOR
    return text, prec


def ref_canonicalize(g: LogicalGraph, tree: PeelTree
                     ) -> tuple[Decomposition, Formula, str, int]:
    """Sort a peel tree canonically, rendering each node's formula once.

    Clique members tensor in ascending label order; sibling parts sort by
    the text of their rendered formulas.  Text is composed bottom-up and
    matches print_formula of the returned formula exactly.
    """
    rendered: list[tuple[str, int, DecompositionPart, Formula]] = []
    for clique, children in tree:
        sub, sub_formula, sub_text, sub_prec = ref_canonicalize(g, children)
        labels = sorted(g.labelling[v] for v in clique)
        tensor = _tensor_all([Atom(l) for l in labels])
        tensor_text, tensor_prec = _tensor_text([(l.name, _ATOMIC) for l in labels])
        if not sub.parts:
            formula, text, prec = tensor, tensor_text, tensor_prec
        else:
            formula = Lolli(sub_formula, tensor)
            left = f"({sub_text})" if sub_prec < 2 else sub_text
            text, prec = f"{left} -o {tensor_text}", _LOLLI
        rendered.append((text, prec, DecompositionPart(clique, sub), formula))
    rendered.sort(key=lambda item: item[0])
    node_formula = _tensor_all([f for _, _, _, f in rendered])
    node_text, node_prec = _tensor_text([(t, p) for t, p, _, _ in rendered])
    return (Decomposition(tuple(p for _, _, p, _ in rendered)), node_formula,
            node_text, node_prec)


# A candidate isomorphism: an injective, label-preserving vertex map.
VMap = dict[VertexId, VertexId]


def ref_vertex_match_perms(g1: RawGraph, asms1, g2: RawGraph, asms2,
                       m: VMap) -> list[VMap]:
    """All extensions of m matching the vertex set asms1 into asms2.

    Already-mapped members of asms1 must land inside asms2 or there is no
    extension.  The unmapped members are assigned injectively to unused
    members of asms2 with equal labels, one result per distinct assignment,
    in lexicographic order of the assignment.  An empty list means failure.
    """
    asms2 = set(asms2)
    unmapped: list[VertexId] = []
    for v in sorted(set(asms1)):
        w = m.get(v)
        if w is None:
            unmapped.append(v)
        elif w not in asms2:
            return []
    if not unmapped:
        return [dict(m)]
    used = set(m.values())
    free = [w for w in sorted(asms2) if w not in used]
    if len(free) < len(unmapped):
        return []
    results: list[VMap] = []

    def assign(i: int, current: VMap, taken: set[VertexId]):
        if i == len(unmapped):
            results.append(dict(current))
            return
        v = unmapped[i]
        label = g1.labelling[v]
        for w in free:
            if w not in taken and g2.labelling[w] == label:
                current[v] = w
                taken.add(w)
                assign(i + 1, current, taken)
                del current[v]
                taken.remove(w)

    assign(0, dict(m), set())
    return results


def ref_mk_graph_iso(g1: RawGraph, v1: VertexId, g2: RawGraph, v2: VertexId,
                 seed: VMap | None = None) -> list[VMap]:
    """All embeddings of v1's backward closure into g2 that send v1 to v2.

    Traverses g1 backward from v1; at each vertex x every candidate map is
    extended by matching x's predecessors against the predecessors of x's
    image.  An exhausted candidate list stops the traversal early.  ``seed``
    optionally supplies assignments that every candidate must extend.
    """
    if v1 not in g1:
        raise UnknownVertex(v1)
    if v2 not in g2:
        raise UnknownVertex(v2)
    if g1.labelling[v1] != g2.labelling[v2]:
        return []
    initial = dict(seed) if seed else {}
    if initial.get(v1, v2) != v2 or v2 in set(initial.values()) - {initial.get(v1)}:
        return []
    initial[v1] = v2
    preds1, preds2 = g1._preds, g2._preds

    def iso_trav(x: VertexId, vmaps: list[VMap]) -> tuple[Action, list[VMap]]:
        if not vmaps:
            return Action.STOP, []
        asms1 = preds1[x]
        if not asms1:
            return Action.CONTINUE, vmaps
        out: list[VMap] = []
        for m in vmaps:
            out.extend(ref_vertex_match_perms(g1, asms1, g2, preds2[m[x]], m))
        return Action.CONTINUE, out

    return traverse_dfs(iso_trav, g1, v1, [initial])


def _ref_verified(m: VMap, g1: RawGraph, g2: RawGraph) -> bool:
    """Total bijection, label-preserving, edges preserved in both directions."""
    if len(m) != len(g1) or set(m.values()) != set(g2.labelling):
        return False
    if any(g1.labelling[v] != g2.labelling[w] for v, w in m.items()):
        return False
    return {(m[s], m[d]) for s, d in g1.edges} == g2.edges


def _ref_search(g1: RawGraph, g2: RawGraph, find_all: bool) -> list[VMap]:
    if len(g1) != len(g2) or len(g1.edges) != len(g2.edges):
        return []
    if sorted(g1.labelling.values()) != sorted(g2.labelling.values()):
        return []
    minimals1 = [v for v in g1._sorted_vertices if not g1._succs[v]]
    minimals2 = [v for v in g2._sorted_vertices if not g2._succs[v]]
    if len(minimals1) != len(minimals2):
        return []
    if not minimals1 and g1._sorted_vertices:
        raise CyclicEdges(_find_cycle(g1))
    results: list[VMap] = []

    def extend(m: VMap, i: int) -> bool:
        if i == len(minimals1):
            if len(m) != len(g1):
                # Minimal vertices cover every vertex of a DAG; falling
                # short means the leftover part is cyclic.
                raise CyclicEdges(_find_cycle(g1))
            if _ref_verified(m, g1, g2):
                results.append(m)
                return not find_all
            return False
        v1 = minimals1[i]
        used = set(m.values())
        for v2 in minimals2:
            if v2 in used or g2.labelling[v2] != g1.labelling[v1]:
                continue
            for cand in ref_mk_graph_iso(g1, v1, g2, v2, seed=m):
                if extend(cand, i + 1):
                    return True
        return False

    extend({}, 0)
    return results


def ref_alpha_equiv(g1: RawGraph, g2: RawGraph) -> VMap | None:
    """The first map of the list-based search, or None."""
    found = _ref_search(g1, g2, find_all=False)
    return found[0] if found else None


def ref_alpha_equiv_all(g1: RawGraph, g2: RawGraph) -> list[VMap]:
    """Every map of the list-based search, in its order."""
    return _ref_search(g1, g2, find_all=True)

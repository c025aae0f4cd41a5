"""Formulas, their concrete syntax, and translation to and from graphs.

A formula is the unit 1, an atom, a tensor A * B, or a linear implication
A -o B.  Translation to a graph is structural: tensor becomes graph
addition, implication becomes graph implication, the unit becomes the empty
graph, atoms become singletons.  Translation back decomposes a validated
graph into conclusion cliques: conclusions sharing one direct-predecessor
set form the tensor on the right of one implication whose left side is the
decomposition of that shared predecessor set's own subgraph.

Because clique members and sibling parts are emitted in a sorted order
independent of vertex names, the graph-to-formula direction yields one
canonical formula per alpha-equivalence class; ``normalize`` composes the
two directions to canonicalise formulas, collapsing the
commutativity/associativity/currying symmetries.  Formulas whose graphs
fail validation (implication is not closed over well-formed graphs) have no
canonical form; ``normalize`` raises NotInFragment for them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Sequence, Union

from . import algebra
from .core import (Error, LabelId, LogicalGraph, PeelTree, RawGraph,
                   VertexId, VSet, _graph, peel_tree, validate)


@dataclass(frozen=True, slots=True)
class Unit:
    def __repr__(self):
        return "Unit()"


@dataclass(frozen=True, slots=True)
class Atom:
    label: LabelId

    def __repr__(self):
        return f"Atom({self.label.name!r})"


@dataclass(frozen=True, slots=True)
class Tensor:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, slots=True)
class Lolli:
    left: "Formula"
    right: "Formula"


Formula = Union[Unit, Atom, Tensor, Lolli]


class ParseError(Error):
    """Formula text rejected; carries the offset and what was expected."""

    def __init__(self, position: int, expected: str, found: str = ""):
        detail = f", found {found!r}" if found else ""
        super().__init__(f"at {position}: expected {expected}{detail}")
        self.position = position
        self.expected = expected


class NotInFragment(Error):
    """The formula's graph is not well-formed, so it has no canonical form."""

    def __init__(self, graph: RawGraph, cause: Error):
        super().__init__(f"formula translates outside the graph fragment: {cause}")
        self.graph = graph
        self.cause = cause


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


def parse(text: str) -> Formula:
    """Parse the concrete syntax: '*' binds tighter than right-associative '-o'."""
    return _Parser(text).parse()


def print_formula(f: Formula) -> str:
    """Render with minimal parentheses; parse(print_formula(f)) == f."""
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


def _string_order(m: int) -> Sequence[int]:
    """0..m-1 ordered as the names v0..v{m-1} sort: v10 before v2.

    Only small orders are cached, so that the cache stays small.
    """
    return _small_string_order(m) if m <= 1024 else sorted(range(m), key=str)


@lru_cache(maxsize=128)
def _small_string_order(m: int) -> tuple[int, ...]:
    return tuple(sorted(range(m), key=str))


def _in_string_order(items: list[int]) -> list[int]:
    """items[i] reordered as the names v{i} sort; the same up to v9."""
    m = len(items)
    return items if m <= 10 else [items[i] for i in _string_order(m)]


# VertexId(f"v{i}") for every i used so far.  VertexId interns its names
# for the life of the process anyway; this only saves the lookups.
_NAMES: list[VertexId] = []


def _vertex_names(n: int) -> list[VertexId]:
    for i in range(len(_NAMES), n):
        _NAMES.append(VertexId(f"v{i}"))
    return _NAMES


# Markers for the combining step of a connective on the work stack.
_ADD, _IMPLIES = object(), object()


def to_graph(f: Formula) -> RawGraph:
    """Translate structurally; always acyclic, but may fail validation.

    The result is the fold of ``algebra.add`` over tensors and
    ``algebra.implies`` over implications, with ``empty()`` for 1 and
    ``singleton(a)`` for an atom, so it is a LogicalGraph exactly when f
    has no implication.  Its vertices are named v0..v{n-1} by the rule that
    fold follows: ``add(h, k)``, with a = |h|, b = |k|, m = min(a, b) and
    M = max(a, b), keeps k's names and h's names v_m..v_{a-1}, and sends
    h's v_i, i < m, to v_{M+r}, where r is the rank of "v{i}" among
    "v0".."v{m-1}" in string order (so v10 ranks before v2).

    One post-order pass over an explicit stack computes that naming
    directly.  Each subresult is its slot list (slot i holds the vertex
    named v_i) and its conclusion list; a merge reuses the larger slot list
    and moves only min(a, b) entries, and edges are recorded once between
    vertex numbers.  The graph is built once, at the end.
    """
    if type(f) is Unit:
        return algebra.empty()
    if type(f) is Atom:
        return algebra.singleton(f.label)
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
            todo.append(_ADD if kind is Tensor else _IMPLIES)
            todo.append(x.right)
            todo.append(x.left)
        elif x is _ADD or x is _IMPLIES:
            k_slots, k_ends = results.pop()
            h_slots, h_ends = results.pop()
            a, b = len(h_slots), len(k_slots)
            if a <= b:
                slots = k_slots
                slots.extend(_in_string_order(h_slots))
            else:
                slots = h_slots
                low = slots[:b]
                slots[:b] = k_slots
                slots.extend(_in_string_order(low))
            if x is _IMPLIES:
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
    names = _vertex_names(len(slots))
    name_of: list = [None] * len(slots)
    for i, v in enumerate(slots):
        name_of[v] = names[i]
    # In name order, so that sorting the vertices is one linear pass.
    lab = {names[i]: labels[slots[i]] for i in _string_order(len(slots))}
    cls = RawGraph if has_lolli else LogicalGraph
    return _graph(cls, lab, [(name_of[s], name_of[d]) for s, d in edges])


@dataclass(frozen=True, slots=True)
class DecompositionPart:
    """One conclusion clique with the decomposition of its assumptions."""

    clique: VSet
    assumptions: "Decomposition"


@dataclass(frozen=True, slots=True)
class Decomposition:
    """The recursive conclusion-clique structure; no parts means empty."""

    parts: tuple[DecompositionPart, ...]


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


def _canonicalize(g: LogicalGraph, tree: PeelTree
                  ) -> tuple[Decomposition, Formula, str, int]:
    """Sort a peel tree canonically, rendering each node's formula once.

    Clique members tensor in ascending label order; sibling parts sort by
    the text of their rendered formulas.  Text is composed bottom-up and
    matches print_formula of the returned formula exactly.
    """
    rendered: list[tuple[str, int, DecompositionPart, Formula]] = []
    for clique, children in tree:
        sub, sub_formula, sub_text, sub_prec = _canonicalize(g, children)
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


def decompose(g: LogicalGraph) -> Decomposition:
    """The conclusion-clique decomposition of a validated graph.

    Parts at every level are ordered canonically (by their rendered
    formulas), matching the order ``to_formula`` emits.
    """
    return _canonicalize(g, peel_tree(g))[0]


def to_formula(g: LogicalGraph) -> Formula:
    """The canonical formula of a validated graph.

    Each clique becomes the tensor of its labels, implied by the formula of
    its assumptions (no implication wrapper when there are none); sibling
    parts tensor together.  Output depends only on the alpha-equivalence
    class of the graph.
    """
    return _canonicalize(g, peel_tree(g))[1]


def normalize(f: Formula) -> Formula:
    """The canonical representative of f's symmetry class.

    Translates to a graph, validates, and reads the formula back; raises
    NotInFragment (carrying the offending graph) when the translation is
    not well-formed.  Idempotent on its domain.
    """
    g = to_graph(f)
    try:
        valid = validate(g)
    except Error as exc:
        raise NotInFragment(g, exc) from None
    return to_formula(valid)


def canonical_key(g: LogicalGraph) -> str:
    """The printed canonical formula; equal exactly on alpha-equivalent graphs."""
    return _canonicalize(g, peel_tree(g))[2]

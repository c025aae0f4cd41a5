"""Formulas, their concrete syntax, and translation to and from graphs.

A formula is the unit 1, an atom, a tensor A * B, or a linear implication
A -o B.  Translation to a graph is structural: tensor becomes graph
addition, implication becomes graph implication, the unit becomes the empty
graph, atoms become singletons.  Translation back decomposes a validated
graph into conclusion cliques: conclusions sharing one direct-predecessor
set form the tensor on the right of one implication whose left side is the
decomposition of that shared predecessor set's own subgraph.

Clique members and sibling parts are emitted in a sorted order independent
of vertex names, so the printed canonical formula, the canonical key, is
the one canonical form per alpha-equivalence class: ``to_formula`` parses
it, and ``normalize`` reads it off a formula's graph, collapsing the
commutativity/associativity/currying symmetries.  Formulas whose graphs
fail validation have no canonical form; ``normalize`` raises NotInFragment.
Parsing, printing, translation and the canonical walk run on explicit
stacks, so any depth works; one table, ``_SYNTAX``, sets the parentheses.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from operator import itemgetter
from typing import Sequence, Union

from . import algebra
from .core import (Error, LabelId, LogicalGraph, RawGraph,
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


# The concrete syntax, for each connective: its infix text, its own
# precedence, and the precedence its left and its right operand need to go
# without parentheses.  Atoms and 1 have precedence _ATOM.  So '*' binds
# tighter than '-o', '*' associates to the left and '-o' to the right.
_SYNTAX = {Tensor: (" * ", 2, 2, 3), Lolli: (" -o ", 1, 2, 1)}
_ATOM = 3
_INFIX = {text.strip(): kind for kind, (text, *_) in _SYNTAX.items()}


def _join(kind, left: tuple[str, int], right: tuple[str, int]
          ) -> tuple[str, int]:
    """The text and precedence of kind(left, right) from its operands'."""
    infix, prec, need_left, need_right = _SYNTAX[kind]
    left_text = left[0] if left[1] >= need_left else f"({left[0]})"
    right_text = right[0] if right[1] >= need_right else f"({right[0]})"
    return f"{left_text}{infix}{right_text}", prec


def parse(text: str) -> Formula:
    """Parse the concrete syntax: '*' binds tighter than right-associative '-o'.

    Operator precedence over two explicit stacks, operands and pending
    '(' and connectives, so any nesting depth parses.  A connective first
    applies the pending ones whose result it takes as its left operand
    without parentheses: both '*' and '-o' apply the pending '*'.  A ')' and
    the end of input apply all of them back to the open parenthesis.
    """
    operands: list = []
    pending: list = []  # None for '(', else the connective's class
    want_operand = True
    for kind, value, pos in _tokenize(text):
        if want_operand:
            if kind == "(":
                pending.append(None)
                continue
            if kind != "atom" and kind != "unit":
                raise ParseError(pos, "an atom, '1', or '('", value)
            operands.append(Atom(LabelId(value)) if kind == "atom" else Unit())
            want_operand = False
            continue
        op = _INFIX.get(kind)
        need = 0 if op is None else _SYNTAX[op][2]
        while pending and pending[-1] is not None and \
                _SYNTAX[pending[-1]][1] >= need:
            right = operands.pop()
            operands.append(pending.pop()(operands.pop(), right))
        if op is not None:
            pending.append(op)
            want_operand = True
        elif kind == ")" and pending:
            pending.pop()
        elif kind == "end" and not pending:
            return operands[0]
        else:
            raise ParseError(pos, "')'" if pending else "end of input", value)


def print_formula(f: Formula) -> str:
    """Render with minimal parentheses; parse(print_formula(f)) == f.

    A post-order walk over an explicit stack that folds ``_join``, so any
    nesting depth prints.
    """
    done: list[tuple[str, int]] = []
    todo: list = [f]
    while todo:
        x = todo.pop()
        kind = type(x)
        if kind is Atom:
            done.append((x.label.name, _ATOM))
        elif kind is Unit:
            done.append(("1", _ATOM))
        elif kind is Tensor or kind is Lolli:
            todo += (kind, x.right, x.left)
        elif x is Tensor or x is Lolli:
            right = done.pop()
            done.append(_join(x, done.pop(), right))
        else:
            raise TypeError(f"not a formula: {x!r}")
    return done[0][0]


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
            todo += (kind, x.right, x.left)
        elif x is Tensor or x is Lolli:
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


def _tensor_text(pieces: list[tuple[str, int]]) -> tuple[str, int]:
    """The right-nested tensor of a nonempty list of (text, precedence)."""
    tensor = pieces[-1]
    for piece in reversed(pieces[:-1]):
        tensor = _join(Tensor, piece, tensor)
    return tensor


def _canonicalize(g: LogicalGraph) -> tuple[Decomposition, str]:
    """Sort g's peel tree canonically and compose the canonical key.

    Clique members tensor in ascending label order, implied by their
    assumptions' text when there are any; sibling parts sort by their text
    and tensor together.  A post-order walk over an explicit stack: a list
    opens a level, a clique closes the part it heads and an int n closes the
    level of the last n parts, so any depth is walked.
    """
    labelling = g.labelling
    done: list = []  # (text, precedence, part or level's decomposition)
    no_parts = ("1", _ATOM, Decomposition(()))
    todo: list = [peel_tree(g)]
    while todo:
        x = todo.pop()
        if x == []:  # a level without parts: 1, one shared entry
            done.append(no_parts)
        elif type(x) is list:
            todo.append(len(x))
            for clique, children in reversed(x):
                todo += (clique, children)
        elif type(x) is tuple:
            sub_text, sub_prec, sub = done.pop()
            labels = sorted(labelling[v] for v in x)
            text, prec = _tensor_text([(l.name, _ATOM) for l in labels])
            if sub.parts:
                text, prec = _join(Lolli, (sub_text, sub_prec), (text, prec))
            done.append((text, prec, DecompositionPart(x, sub)))
        else:
            cut = len(done) - x
            parts = sorted(done[cut:], key=itemgetter(0))
            del done[cut:]
            text, prec = _tensor_text([(t, p) for t, p, _ in parts])
            done.append((text, prec,
                         Decomposition(tuple(p for _, _, p in parts))))
    text, _, decomposition = done.pop()
    return decomposition, text


def decompose(g: LogicalGraph) -> Decomposition:
    """The conclusion-clique decomposition of a validated graph.

    Parts at every level are ordered canonically (by their rendered
    formulas), matching the order ``to_formula`` emits.
    """
    return _canonicalize(g)[0]


def canonical_key(g: LogicalGraph) -> str:
    """The printed canonical formula; equal exactly on alpha-equivalent graphs."""
    return _canonicalize(g)[1]


def to_formula(g: LogicalGraph) -> Formula:
    """The canonical formula of a validated graph: its canonical key, parsed.

    Output depends only on the alpha-equivalence class of the graph.  Keys
    of up to 256 characters are parsed once and the formula shared: formulas
    are immutable, and ``lg enumerate --classes`` meets most keys often.
    """
    key = canonical_key(g)
    return _parse_short_key(key) if len(key) <= 256 else parse(key)


_parse_short_key = lru_cache(maxsize=256)(parse)


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

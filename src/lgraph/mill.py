"""Formulas, their concrete syntax, and translation to and from graphs.

A formula is the unit 1, an atom, a tensor A * B, or a linear implication
A -o B.  Translation to a graph is structural: tensor becomes graph
addition, implication becomes graph implication, the unit becomes the empty
graph, atoms become singletons.  Translation back decomposes a validated
graph into conclusion cliques: conclusions sharing one direct-predecessor
set form the tensor on the right of one implication whose left side is the
decomposition of that shared predecessor set's own subgraph.

Clique members and sibling parts are emitted in a sorted order independent
of vertex names, so the printed canonical formula, the canonical key, is the
one canonical form per alpha-equivalence class: ``to_formula`` parses it,
and ``normalize`` reads it off the translation's peel tree, composed from
the formula, collapsing the commutativity/associativity/currying
symmetries.  Outside the fragment, ``normalize`` raises NotInFragment.
While ``lg enumerate --classes`` runs, and only then, a memo of classes
lets ``normalize`` compose a compound's class from its operands' label
trees, without walking the compound, and hand back one formula per class.
Translation and the composed peel tree fold one right-first pre-order of
the formula's compounds, which checks each node's operands, left first, as
it reaches the node; the printer checks as it prints, left to right.  Those
walks, the parser and the canonical walk run on explicit stacks.  The
parser reads the tokens of one regex scan, and text is built from pieces
joined once; ``_SYNTAX`` sets parentheses.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Sequence, Union

from . import algebra
from .core import (Error, LabelId, LogicalGraph, NotWellFormed, PeelTree,
                   RawGraph, VertexId, VSet, _graph, peel_tree)


@dataclass(frozen=True, slots=True)
class Unit:
    """The unit formula 1."""


@dataclass(frozen=True, slots=True)
class Atom:
    label: LabelId

    def __repr__(self):
        return f"Atom({self.label.name!r})"


def _filled_through_slots(cls: type) -> type:
    """Give a frozen two-field class an ``__init__`` that fills its slots
    through their descriptors, which is cheaper than the dataclass's two
    ``object.__setattr__`` calls; assignment still raises."""
    set_left, set_right = cls.left.__set__, cls.right.__set__

    def __init__(self, left: Formula, right: Formula):
        set_left(self, left)
        set_right(self, right)

    cls.__init__ = __init__
    return cls


@_filled_through_slots
@dataclass(frozen=True, slots=True, init=False)
class Tensor:
    left: "Formula"
    right: "Formula"


@_filled_through_slots
@dataclass(frozen=True, slots=True, init=False)
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


# The one rule for atom names: the parser's, to_formula's and lg enumerate's.
_ATOM_NAME = r"[A-Za-z][A-Za-z0-9_]*"
_is_atom_name = re.compile(_ATOM_NAME).fullmatch
_NOT_AN_ATOM_NAME = "is not an atom name (a letter, then letters, digits or _)"
# One token per match: an atom, a numeral, a connective, a parenthesis, or
# any other character alone, which is a bad token.
_TOKEN = re.compile(rf"\s*({_ATOM_NAME}|\d+|-o|[*()]|\S)")
_IS_ATOM = re.compile(r"[A-Za-z]").match


def _parse_error(text: str, i: int, expected: str) -> ParseError:
    """The error at token i of text, or at the end past the last token,
    unless text holds a bad token: that error wins wherever it is."""
    spans = [(m[1], m.start(1)) for m in _TOKEN.finditer(text)]
    for tok, pos in spans:
        if not _IS_ATOM(tok) and tok not in ("1", "*", "-o", "(", ")"):
            return ParseError(pos, "'1' (the only numeric literal)"
                              if tok.isdecimal() else
                              "an atom, '1', '*', '-o', or parenthesis", tok)
    found, pos = spans[i] if i < len(spans) else ("", len(text))
    return ParseError(pos, expected, found)


# The concrete syntax, for each connective: its infix text, its own
# precedence, and the precedence its left and its right operand need to go
# without parentheses.  Atoms and 1 have precedence _ATOM.  So '*' binds
# tighter than '-o', '*' associates to the left and '-o' to the right.
_SYNTAX = {Tensor: (" * ", 2, 2, 3), Lolli: (" -o ", 1, 2, 1)}
_ATOM = 3
_PREC = {kind: prec for kind, (_, prec, *_) in _SYNTAX.items()}
_INFIX = {text.strip(): kind for kind, (text, *_) in _SYNTAX.items()}


def parse(text: str) -> Formula:
    """Parse the concrete syntax: '*' binds tighter than right-associative '-o'.

    One regex scan gives the token texts.  Operator precedence over two
    explicit stacks, operands and pending '(' and connectives, reads them,
    so any nesting depth parses.  A connective first applies the pending
    ones whose result it takes as its left operand without parentheses:
    both '*' and '-o' apply the pending '*'.  A ')' and the end of input
    apply all of them back to the open parenthesis.  One Atom is made per
    distinct label.  Offsets are found only for an error, and a bad token
    anywhere wins over a syntax error before it.
    """
    tokens = _TOKEN.findall(text)
    tokens.append("")  # the end of input
    atoms = {"1": Unit()}
    operands: list = []
    pending: list = []  # None for '(', else the connective's class
    want_operand = True
    for i, tok in enumerate(tokens):
        if want_operand:
            f = atoms.get(tok)
            if f is None:
                if tok == "(":
                    pending.append(None)
                    continue
                if not _IS_ATOM(tok):
                    expected = "an atom, '1', or '('"
                    break
                f = atoms[tok] = Atom(LabelId(tok))
            operands.append(f)
            want_operand = False
            continue
        op = _INFIX.get(tok)
        need = 0 if op is None else _SYNTAX[op][2]
        while pending and pending[-1] is not None and \
                _PREC[pending[-1]] >= need:
            right = operands.pop()
            operands[-1] = pending.pop()(operands[-1], right)
        if op is not None:
            pending.append(op)
            want_operand = True
        elif tok == ")" and pending:
            pending.pop()
        elif tok == "" and not pending:
            return operands[0]
        else:
            expected = "')'" if pending else "end of input"
            break
    raise _parse_error(text, i, expected)


class _Piece(str):
    """Text pushed among formulas by ``print_formula``; a type of its own,
    so that a str in place of a formula is still a TypeError."""


# The text between the operands of each connective, by whether its left
# and its right operand take parentheses.
_BETWEEN = {(kind, left, right): _Piece(")" * left + infix + "(" * right)
            for kind, (infix, *_) in _SYNTAX.items()
            for left in (False, True) for right in (False, True)}
_CLOSE = _Piece(")")


def print_formula(f: Formula) -> str:
    """Render with minimal parentheses; parse(print_formula(f)) == f.

    A top-down walk over an explicit stack, so any nesting depth prints.
    An operand's parentheses depend only on its own type and its parent's
    ``_SYNTAX`` entry, so text is emitted in order and joined once.
    """
    out: list[str] = []
    todo: list = [f]
    while todo:
        x = todo.pop()
        kind = type(x)
        if kind is Atom:
            out.append(x.label)
        elif kind is _Piece:
            out.append(x)
        elif kind is Tensor or kind is Lolli:
            _, _, need_left, need_right = _SYNTAX[kind]
            left, right = x.left, x.right
            wrap_left = _PREC.get(type(left), _ATOM) < need_left
            wrap_right = _PREC.get(type(right), _ATOM) < need_right
            if wrap_right:
                todo.append(_CLOSE)
            todo += (right, _BETWEEN[kind, wrap_left, wrap_right], left)
            if wrap_left:
                out.append("(")
        elif kind is Unit:
            out.append("1")
        else:
            raise TypeError(f"not a formula: {x!r}")
    return "".join(out)


def _string_order(m: int) -> Sequence[int]:
    """0..m-1 ordered as the names v0..v{m-1} sort: v10 before v2.

    Only small orders are cached, so that the cache stays small.
    """
    return _small_string_order(m) if m <= 1024 else sorted(range(m), key=str)


@lru_cache(maxsize=128)
def _small_string_order(m: int) -> tuple[int, ...]:
    return tuple(sorted(range(m), key=str))


# VertexId(f"v{i}") for every i used so far.  VertexId interns its names
# for the life of the process anyway; this only saves the lookups.
_NAMES: list[VertexId] = []


def _vertex_names(n: int) -> list[VertexId]:
    for i in range(len(_NAMES), n):
        _NAMES.append(VertexId(f"v{i}"))
    return _NAMES


def _compounds(f: Formula) -> list:
    """The tensors and implications of f in right-first pre-order, on an
    explicit stack; anything else where a formula belongs is a TypeError,
    a node's left operand checked before its right one."""
    kind = type(f)
    if kind is not Tensor and kind is not Lolli:
        if kind is Atom or kind is Unit:
            return []
        raise TypeError(f"not a formula: {f!r}")
    nodes: list = []
    todo: list = [f]
    while todo:
        x = todo.pop()
        nodes.append(x)
        left, right = x.left, x.right
        kind = type(left)
        if kind is Tensor or kind is Lolli:
            todo.append(left)
        elif kind is not Atom and kind is not Unit:
            raise TypeError(f"not a formula: {left!r}")
        kind = type(right)  # taken first
        if kind is Tensor or kind is Lolli:
            todo.append(right)
        elif kind is not Atom and kind is not Unit:
            raise TypeError(f"not a formula: {right!r}")
    return nodes


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

    A fold over ``_compounds(f)`` backwards, children first, computes that
    naming directly, reading atom and unit operands in place.  Each
    subresult is its slot list (slot i holds the vertex named v_i) and its
    conclusion list; a merge reuses the larger slot list and moves only
    min(a, b) entries, and edges are recorded once between vertex numbers.
    The graph is built once, at the end.
    """
    nodes = _compounds(f)
    if not nodes:
        return (algebra.empty() if type(f) is Unit
                else algebra.singleton(f.label))
    labels: list[LabelId] = []
    edges: list[tuple[int, int]] = []
    has_lolli = False
    results: list[tuple[list[int], list[int]]] = []
    for x in reversed(nodes):
        right = x.right
        kind = type(right)
        if kind is Atom:
            v = len(labels)
            labels.append(right.label)
            k_slots, k_ends = [v], [v]
        elif kind is Unit:
            k_slots, k_ends = [], []
        else:
            k_slots, k_ends = results.pop()
        left = x.left
        kind = type(left)
        if kind is Atom:
            v = len(labels)
            labels.append(left.label)
            h_slots, h_ends = [v], [v]
        elif kind is Unit:
            h_slots, h_ends = [], []
        else:
            h_slots, h_ends = results.pop()
        a, b = len(h_slots), len(k_slots)
        # Up to v9, string order is numeric order.
        if a <= b:
            slots = k_slots
            slots.extend(h_slots if a <= 10 else
                         [h_slots[i] for i in _string_order(a)])
        else:
            slots = h_slots
            low = slots[:b]
            slots[:b] = k_slots
            slots.extend(low if b <= 10 else
                         [low[i] for i in _string_order(b)])
        if type(x) is Lolli:
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
    (slots, _), = results
    n = len(slots)
    names = _vertex_names(n)
    # In name order, so that sorting the vertices is one linear pass.
    lab = {names[i]: labels[slots[i]]
           for i in (range(n) if n <= 10 else _string_order(n))}
    if edges:  # p -o 1 has none and is still raw
        name_of: list = [None] * n
        for i, v in enumerate(slots):
            name_of[v] = names[i]
        edges = [(name_of[s], name_of[d]) for s, d in edges]
    return _graph(RawGraph if has_lolli else LogicalGraph, lab, edges)


@dataclass(frozen=True, slots=True)
class DecompositionPart:
    """One conclusion clique with the decomposition of its assumptions."""

    clique: VSet
    assumptions: "Decomposition"


@dataclass(frozen=True, slots=True)
class Decomposition:
    """The recursive conclusion-clique structure; no parts means empty."""

    parts: tuple[DecompositionPart, ...]


def _flat(piece) -> str:
    """The text of a piece: a str, or a tuple of pieces in order."""
    out: list[str] = []
    todo = [piece]
    while todo:
        x = todo.pop()
        if type(x) is tuple:
            todo += reversed(x)
        else:
            out.append(x)
    return "".join(out)


def _right_tensor(operands: list[str]) -> str:
    """o1 * (o2 * (... * ok)), as ``_SYNTAX`` brackets it, from k >= 2
    operand texts that carry their own parentheses already."""
    return (" * (".join(operands[:-1]) + " * " + operands[-1]
            + ")" * (len(operands) - 2))


_NO_PARTS = ("1", _ATOM)


def _canonicalize(tree: PeelTree, label, nodes: list | None = None) -> str:
    """Sort a peel tree canonically and compose the canonical key.

    ``label`` reads a clique member's label: a graph's labelling, or
    ``str.__str__`` where cliques hold labels.  Clique members tensor in
    ascending label order, implied by their assumptions' text when there are
    any; sibling parts sort by their text and tensor together.  A post-order
    walk over an explicit stack: a list opens a level, a part closes after
    its children and an int n closes the level of the last n parts.  Texts
    are pieces, flattened where a level of two or more parts sorts them and
    at the end.  Given a list, the walk leaves the ``Decomposition`` in it.
    """
    _, tensor, tensor_left, tensor_right = _SYNTAX[Tensor]
    _, lolli, lolli_left, _ = _SYNTAX[Lolli]
    done: list = []  # (piece, precedence) per closed part or level
    todo: list = [tree]
    while todo:
        x = todo.pop()
        if type(x) is list:
            todo.append(len(x))
            for part in reversed(x):
                todo += (part, part[1])  # closed after its children
        elif type(x) is tuple:
            sub = done.pop()
            clique = x[0]
            if len(clique) == 1:
                text, prec = str.__str__(label(clique[0])), _ATOM
            else:
                text, prec = _right_tensor(sorted(map(label, clique),
                                                  key=str.__str__)), tensor
            if sub is not _NO_PARTS:
                text, prec = ((sub[0], " -o ", text) if sub[1] >= lolli_left
                              else ("(", sub[0], ") -o ", text)), lolli
            done.append((text, prec))
            if nodes is not None:
                nodes.append(DecompositionPart(x[0], nodes.pop()))
        elif x == 0:  # a level without parts: 1
            done.append(_NO_PARTS)
            if nodes is not None:
                nodes.append(Decomposition(()))
        elif x == 1:  # one part, no order to find
            if nodes is not None:
                nodes.append(Decomposition((nodes.pop(),)))
        else:
            level = sorted([(_flat(piece), prec, i) for i, (piece, prec)
                            in enumerate(done[-x:])])
            done[-x:] = [(_right_tensor(
                [t if p >= tensor_left else f"({t})" for t, p, _ in level[:-1]]
                + [t if p >= tensor_right else f"({t})"
                   for t, p, _ in level[-1:]]), tensor)]
            if nodes is not None:
                cut = len(nodes) - x
                nodes[cut:] = [Decomposition(tuple(nodes[cut + i]
                                                   for _, _, i in level))]
    return _flat(done[0][0])


def decompose(g: LogicalGraph) -> Decomposition:
    """The conclusion-clique decomposition of a validated graph.

    Parts at every level are ordered canonically (by their rendered
    formulas), matching the order ``to_formula`` emits; the order comes
    from the walk that composes the canonical key.
    """
    nodes: list = []
    _canonicalize(peel_tree(g), g.labelling.__getitem__, nodes)
    return nodes[0]


def canonical_key(g: LogicalGraph) -> str:
    """The printed canonical formula; equal exactly on alpha-equivalent graphs.

    Composed from pieces: one join per clique, one per level of two or
    more parts, whose sort needs their text, and one for the whole key.
    No ``Decomposition`` is built.  Precondition, unchecked here: every
    label is an atom name, ``[A-Za-z][A-Za-z0-9_]*``; a graph with another
    label has no formula, and its key can coincide with another graph's.
    """
    return _canonicalize(peel_tree(g), g.labelling.__getitem__)


def _formula_key(g: LogicalGraph) -> str:
    """``canonical_key(g)``; Error at g's least label not an atom name."""
    bad = min((x for x in set(g.labelling.values())
               if not _is_atom_name(x)), default=None)
    if bad is not None:
        raise Error(f"label {bad.name!r} {_NOT_AN_ATOM_NAME}")
    return canonical_key(g)


def to_formula(g: LogicalGraph) -> Formula:
    """The canonical formula of a validated graph: its canonical key, parsed.

    Output depends only on the graph's alpha-equivalence class.  A label
    outside ``[A-Za-z][A-Za-z0-9_]*`` has no formula: Error names the least.
    """
    return parse(_formula_key(g))


def _union(a: list, b: list) -> list:
    """The level of A * B: the parts of A's and B's, with their premise-less
    cliques, each last in its level, merged.  The smaller list moves."""
    if len(a) < len(b):
        a, b = b, a
    if b and not b[-1][1] and not a[-1][1]:
        free = a.pop()
        if len(free[0]) > len(b[-1][0]):
            free, b[-1] = b[-1], free
        b[-1][0].extend(free[0])
    elif a and not a[-1][1]:
        b.append(a.pop())
    a += b
    return a


def _imply(a: list, b: list) -> list | None:
    """A -o B: A joins the assumptions of B if B is one clique, else None."""
    if a and b:
        if len(b) > 1:
            return None
        b[0] = (b[0][0], _union(b[0][1], a))
    return b or a


def _level(x, levels: list) -> list:
    """The level of an atom or 1 read in place, else the next on levels."""
    kind = type(x)
    if kind is Atom:
        return [([x.label], [])]
    return [] if kind is Unit else levels.pop()


def _formula_tree(f: Formula) -> PeelTree | None:
    """The peel tree of ``to_graph(f)`` read off f, with label lists for
    cliques; None outside the fragment.  The fold of ``_union`` over tensors
    and ``_imply`` over implications, over ``_compounds(f)`` backwards, with
    atom and unit operands read in place as ``to_graph`` reads them."""
    levels: list = []
    for x in reversed(_compounds(f)):
        right = _level(x.right, levels)  # its level was pushed last
        level = (_union if type(x) is Tensor else _imply)(
            _level(x.left, levels), right)
        if level is None:
            return None
        levels.append(level)
    return _level(f, levels)


def _key_text(f: Formula) -> str:
    """f's canonical key, read off the peel tree composed from f; outside
    the fragment f is translated and NotInFragment carries the graph.  The
    key is already ``print_formula`` of its own parse."""
    tree = _formula_tree(f)
    if tree is None:
        g = to_graph(f)
        try:
            return canonical_key(g)
        except NotWellFormed as exc:
            raise NotInFragment(g, exc) from None
    return _canonicalize(tree, str.__str__)


def _copy(tree: PeelTree) -> PeelTree:
    """A fresh copy of a label tree, on an explicit stack: ``_union`` and
    ``_imply`` mutate their operands."""
    out: list = []
    todo = [(tree, out)]
    while todo:
        level, into = todo.pop()
        for clique, sub in level:
            copied: list = []
            into.append((clique[:], copied))
            if sub:
                todo.append((sub, copied))
    return out


# While ``_sharing_classes`` is open: a dict from id(f) to the class entry
# (key, normal form, label tree) of each formula f normalised inside the
# fragment, from (connective, left key, right key), a tensor's keys in
# sorted order, to the entry of the first formula so composed, and from
# each key to its class's one entry; and a list that keeps each such f
# alive, so that no id is reused while the scope is open.  No entry's tree
# is mutated: it is copied before it is composed.
_classes: tuple[dict, list] | None = None


@contextmanager
def _sharing_classes():
    """A scope in which ``normalize`` composes a compound's class from its
    operands' classes, when both were normalised in it before, and returns
    one normal form object per class."""
    global _classes
    outer = _classes
    _classes = ({}, [])
    try:
        yield
    finally:
        _classes = outer


def normalize(f: Formula) -> Formula:
    """The canonical representative of f's symmetry class.

    ``to_formula(validate(to_graph(f)))`` without the promoted copy, read
    off the translation's peel tree as composed from f.  Outside the
    fragment f is translated, and the peel's NotWellFormed is the cause of
    NotInFragment, which carries the graph.  Idempotent on its domain.

    Alpha-equivalence is a congruence for '*' and '-o', so inside
    ``_sharing_classes``, which only ``lg enumerate --classes`` opens, a
    tensor or implication of two operands normalised there before takes its
    class from theirs.  The same connective on the same operand keys, in
    either order for '*', gives the class recorded for them, with no work.
    A new pair composes copies of the operands' label trees with ``_union``
    or ``_imply`` and renders the result, without walking f; ``_imply``
    giving None puts f outside the fragment.  A key met before gives its
    class's normal form without a parse.
    """
    scope = _classes
    if scope is None:
        return parse(_key_text(f))
    classes, kept = scope
    known = triple = tree = None
    kind = type(f)
    if kind is Tensor or kind is Lolli:
        left, right = classes.get(id(f.left)), classes.get(id(f.right))
        if left is not None and right is not None:
            if kind is Tensor and right[0] < left[0]:
                left, right = right, left
            triple = (kind, left[0], right[0])
            known = classes.get(triple)
            if known is None:
                tree = (_union if kind is Tensor else _imply)(
                    _copy(left[2]), _copy(right[2]))
    if known is None:
        # Outside the fragment, _key_text raises NotInFragment.
        key = _key_text(f) if tree is None else _canonicalize(tree,
                                                              str.__str__)
        known = classes.get(key)
        if known is None:
            normal = parse(key)
            if tree is None:  # a leaf, or operands not normalised here
                tree = (_formula_tree(normal) if kind is Tensor or
                        kind is Lolli else _level(normal, []))
            known = classes[key] = (key, normal, tree)
        if triple is not None:
            classes[triple] = known
    classes[id(f)] = known
    kept.append(f)
    return known[1]

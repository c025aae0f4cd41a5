"""Brute-force references and corpus generators for checking the kernel.

Everything here is deliberately naive and kept apart from the production
code paths: ``naive_iso`` decides isomorphism by enumerating candidate
bijections outright, ``enumerate_formulas`` builds an exhaustive formula
corpus, and ``rewrite_variants`` generates the symmetric variants of a
formula that the graph form is meant to collapse.  Bounded enumeration
only: the generators refuse oversized requests instead of running away.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import accumulate, permutations, product
from operator import attrgetter

from .core import Error, LabelId, RawGraph, VertexId
from .iso import VMap
from .mill import Atom, Formula, Lolli, Tensor, Unit

_BY_NAME = attrgetter("name")


class BoundsTooLarge(Error):
    """The requested enumeration would exceed the configured size cap."""


def naive_iso(g1: RawGraph, g2: RawGraph) -> list[VMap]:
    """All total label-preserving bijections preserving edges both ways.

    Exhaustive per-label permutation product; intended for small graphs
    (at most 8 or so vertices).  Deterministic output order.
    """
    if len(g1) != len(g2) or len(g1.edges) != len(g2.edges):
        return []
    by_label1: dict[LabelId, list[VertexId]] = defaultdict(list)
    by_label2: dict[LabelId, list[VertexId]] = defaultdict(list)
    for v in g1.vertices():
        by_label1[g1.labelling[v]].append(v)
    for v in g2.vertices():
        by_label2[g2.labelling[v]].append(v)
    if {l: len(vs) for l, vs in by_label1.items()} != \
            {l: len(vs) for l, vs in by_label2.items()}:
        return []
    labels = sorted(by_label1, key=_BY_NAME)
    results: list[VMap] = []
    choices = [list(permutations(by_label2[l])) for l in labels]
    for combo in product(*choices):
        m: VMap = {}
        for label, images in zip(labels, combo):
            for v, w in zip(by_label1[label], images):
                m[v] = w
        if {(m[s], m[d]) for s, d in g1.edges} == g2.edges:
            results.append(m)
    return results


def _per_level(n_atoms: int, max_connectives: int):
    """How many formulas have exactly c connectives, for c = 0 and then
    each c up to max_connectives: 2^c connectives, Catalan(c) shapes and
    (n_atoms + 1)^(c + 1) leaves, so each level is the last one times
    4(n_atoms + 1)(2c - 1), divided exactly by c + 1."""
    leaves = level = n_atoms + 1
    yield level
    for c in range(1, max_connectives + 1):
        level = level * (4 * leaves * (2 * c - 1)) // (c + 1)
        yield level


def count_formulas(n_atoms: int, max_connectives: int) -> int:
    """How many formulas enumerate_formulas would yield."""
    return sum(_per_level(n_atoms, max_connectives))


def enumerate_formulas(atoms: list[LabelId], max_connectives: int,
                       max_count: int = 2_000_000) -> list[Formula]:
    """Every formula over Unit and the atoms with at most the given number
    of Tensor/Lolli nodes; exhaustive, duplicate-free, deterministic order.

    Refuses (BoundsTooLarge) when the predicted size exceeds max_count,
    counting level by level and stopping at the first level past it.
    """
    atoms = list(dict.fromkeys(atoms))
    if any(total > max_count for total in
           accumulate(_per_level(len(atoms), max_connectives))):
        raise BoundsTooLarge(
            f"more than {max_count} formulas for {len(atoms)} atoms and "
            f"{max_connectives} connectives")
    by_count: list[list[Formula]] = [[Unit()] + [Atom(a) for a in atoms]]
    for c in range(1, max_connectives + 1):
        level: list[Formula] = []
        for i in range(c):
            for left in by_count[i]:
                for right in by_count[c - 1 - i]:
                    level.append(Tensor(left, right))
                    level.append(Lolli(left, right))
        by_count.append(level)
    return [f for level in by_count for f in level]


def _has_atoms(f: Formula) -> bool:
    match f:
        case Atom(_):
            return True
        case Tensor(left, right) | Lolli(left, right):
            return _has_atoms(left) or _has_atoms(right)
    return False


def _single_steps(f: Formula):
    """Single-step rewrites of f at any subterm.

    Rules: tensor commutativity and associativity (both directions),
    currying/uncurrying, and unit collapses.  Unit laws apply only in the
    collapsing direction (the expansion closure would be unbounded), and
    currying is withheld when the consequent's graph is empty: the graph
    form identifies A -o 1 with A, so currying onto a unit consequent is a
    derivability-only equivalence the graphs do not honour.
    """
    match f:
        case Tensor(left, right):
            yield Tensor(right, left)
            if isinstance(left, Tensor):
                yield Tensor(left.left, Tensor(left.right, right))
            if isinstance(right, Tensor):
                yield Tensor(Tensor(left, right.left), right.right)
            if isinstance(left, Unit):
                yield right
            if isinstance(right, Unit):
                yield left
            for l2 in _single_steps(left):
                yield Tensor(l2, right)
            for r2 in _single_steps(right):
                yield Tensor(left, r2)
        case Lolli(left, right):
            if isinstance(left, Tensor) and _has_atoms(right):
                yield Lolli(left.left, Lolli(left.right, right))
            if isinstance(right, Lolli) and _has_atoms(right.right):
                yield Lolli(Tensor(left, right.left), right.right)
            if isinstance(left, Unit):
                yield right
            for l2 in _single_steps(left):
                yield Lolli(l2, right)
            for r2 in _single_steps(right):
                yield Lolli(left, r2)


def rewrite_variants(f: Formula, depth: int) -> set[Formula]:
    """The closure of f under at most ``depth`` rounds of single rewrites."""
    seen = {f}
    frontier = [f]
    for _ in range(depth):
        new = []
        for g in frontier:
            for h in _single_steps(g):
                if h not in seen:
                    seen.add(h)
                    new.append(h)
        if not new:
            break
        frontier = new
    return seen

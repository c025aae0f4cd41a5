"""Expected outputs computed apart from lgraph.

Nothing here imports the package under test.  Formulas are the
benchmark's own tuples -- ``("1",)``, ``("a", name)``, ``("*", l, r)`` and
``("-o", l, r)`` -- and graphs are plain ``{name: label}`` dicts with lists
of ``(src, dst)`` name pairs, so every expectation below comes from a
separate derivation of what the program should print, count or return.
"""

from __future__ import annotations

from collections import Counter
from math import comb

UNIT = ("1",)


class CheckFailed(AssertionError):
    """An output of the program disagrees with its independent expectation."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def atom(name: str) -> tuple:
    return ("a", name)


def tensor(left: tuple, right: tuple) -> tuple:
    return ("*", left, right)


def lolli(left: tuple, right: tuple) -> tuple:
    return ("-o", left, right)


# ---------------------------------------------------------------- printing

def render(f: tuple) -> str:
    """Minimal-parenthesis text: '*' is left-associative and binds tighter
    than right-associative '-o'."""
    return _render(f, 0)


def _render(f: tuple, context: int) -> str:
    kind = f[0]
    if kind == "1":
        return "1"
    if kind == "a":
        return f[1]
    if kind == "*":
        text = f"{_render(f[1], 2)} * {_render(f[2], 3)}"
        return f"({text})" if context > 2 else text
    text = f"{_render(f[1], 2)} -o {_render(f[2], 1)}"
    return f"({text})" if context > 1 else text


def paren_depth(text: str) -> int:
    depth = deepest = 0
    for ch in text:
        if ch == "(":
            depth += 1
            deepest = max(deepest, depth)
        elif ch == ")":
            depth -= 1
    return deepest


# ------------------------------------------------- the graph of a formula

def graph_counts(f: tuple) -> tuple[int, int, Counter]:
    """|V|, |E| and the label multiset of f's graph, by direct recursion.

    A tensor is a disjoint union.  ``A -o B`` adds an edge from every
    conclusion (vertex without out-edges) of A to every conclusion of B, so
    it adds c(A) * c(B) edges and keeps B's conclusions, or A's when B has
    none.
    """
    vertices, edges, _ = _counts(f)
    return vertices, edges, Counter(_atoms(f))


def _counts(f: tuple) -> tuple[int, int, int]:
    kind = f[0]
    if kind == "1":
        return 0, 0, 0
    if kind == "a":
        return 1, 0, 1
    lv, le, lc = _counts(f[1])
    rv, re, rc = _counts(f[2])
    if kind == "*":
        return lv + rv, le + re, lc + rc
    return lv + rv, le + re + lc * rc, rc if rc else lc


def _atoms(f: tuple) -> list[str]:
    out, stack = [], [f]
    while stack:
        g = stack.pop()
        if g[0] == "a":
            out.append(g[1])
        elif g[0] != "1":
            stack.extend((g[2], g[1]))
    return out


def has_atoms(f: tuple) -> bool:
    return bool(_atoms(f))


# A graph in the fragment as nested conclusion cliques: (free, parts), where
# free lists the labels of the conclusions without premises and each part is
# (assumptions, clique labels) for a clique sharing one nonempty premise set.
_EMPTY = ((), ())


def normal_form(f: tuple):
    """The clique structure of f's graph, or None outside the fragment.

    ``A -o B`` is in the fragment when either side has an empty graph, or
    when all of B's conclusions form one clique: then A's conclusions join
    that clique's premises (currying), so A merges into its assumptions.
    """
    kind = f[0]
    if kind == "1":
        return _EMPTY
    if kind == "a":
        return ((f[1],), ())
    left = normal_form(f[1])
    right = normal_form(f[2])
    if left is None or right is None:
        return None
    if kind == "*":
        return _merge(left, right)
    if left == _EMPTY:
        return right
    if right == _EMPTY:
        return left
    free, parts = right
    if not parts:
        return ((), ((left, free),))
    if not free and len(parts) == 1:
        assumptions, clique = parts[0]
        return ((), ((_merge(assumptions, left), clique),))
    return None


def _merge(a, b):
    return (a[0] + b[0], a[1] + b[1])


_ATOMIC, _TENSOR, _LOLLI = 9, 2, 1


def _tensor_text(pieces: list[tuple[str, int]]) -> tuple[str, int]:
    """Right-nested tensor of (text, precedence) pieces, in order."""
    if not pieces:
        return "1", _ATOMIC
    text, prec = pieces[-1]
    for left, left_prec in reversed(pieces[:-1]):
        right = f"({text})" if prec < 3 else text
        left = f"({left})" if left_prec < 2 else left
        text, prec = f"{left} * {right}", _TENSOR
    return text, prec


def _nf_text(nf) -> tuple[str, int]:
    free, parts = nf
    pieces = []
    if free:
        pieces.append(_tensor_text([(l, _ATOMIC) for l in sorted(free)]))
    for assumptions, clique in parts:
        text, prec = _nf_text(assumptions)
        left = f"({text})" if prec < 2 else text
        conclusion = _tensor_text([(l, _ATOMIC) for l in sorted(clique)])[0]
        pieces.append((f"{left} -o {conclusion}", _LOLLI))
    pieces.sort(key=lambda piece: piece[0])
    return _tensor_text(pieces)


def canonical_text(f: tuple) -> str | None:
    """The canonical key of f's graph, or None outside the fragment.

    Clique members tensor in ascending label order, a clique with premises
    is implied by the text of its assumptions, and sibling parts sort by
    their text; tensors nest to the right.
    """
    nf = normal_form(f)
    return None if nf is None else _nf_text(nf)[0]


# ------------------------------------------------------ symmetric variants

def variant(f: tuple, rng, steps: int = 3) -> tuple:
    """f after up to ``steps`` rewrites that keep its graph up to renaming.

    The rewrites commute a tensor, curry ``A * B -o C`` into
    ``A -o B -o C`` or back, and drop a unit.  Currying is never applied
    onto a consequent without atoms: the graph identifies ``A -o 1`` with
    ``A``, so ``A * B -o 1`` and ``A -o B -o 1`` have different graphs.
    """
    for _ in range(steps):
        sites = list(_rewrites(f, ()))
        if not sites:
            break
        path, replacement = sites[rng.randrange(len(sites))]
        f = _replace(f, path, replacement)
    return f


def _rewrites(f: tuple, path: tuple):
    kind = f[0]
    if kind in ("1", "a"):
        return
    left, right = f[1], f[2]
    if kind == "*":
        yield path, tensor(right, left)
        if left == UNIT:
            yield path, right
        if right == UNIT:
            yield path, left
    else:
        if left[0] == "*" and has_atoms(right):
            yield path, lolli(left[1], lolli(left[2], right))
        if right[0] == "-o" and has_atoms(right[2]):
            yield path, lolli(tensor(left, right[1]), right[2])
        if left == UNIT or right == UNIT:
            yield path, right if left == UNIT else left
    yield from _rewrites(left, path + (1,))
    yield from _rewrites(right, path + (2,))


def _replace(f: tuple, path: tuple, replacement: tuple) -> tuple:
    if not path:
        return replacement
    head, rest = path[0], path[1:]
    if head == 1:
        return (f[0], _replace(f[1], rest, replacement), f[2])
    return (f[0], f[1], _replace(f[2], rest, replacement))


# ----------------------------------------------------------------- graphs

def verify_map(m: dict[str, str], g1: tuple[dict, list], g2: tuple[dict, list]
               ) -> None:
    """m is a total bijection from g1's vertices onto g2's that preserves
    labels, and carries g1's edges exactly onto g2's edges."""
    lab1, edges1 = g1
    lab2, edges2 = g2
    expect(set(m) == set(lab1), "map is not total on the first graph")
    expect(len(set(m.values())) == len(m), "map is not injective")
    expect(set(m.values()) == set(lab2), "map is not onto the second graph")
    for v, w in m.items():
        expect(lab1[v] == lab2[w], f"map sends {v}:{lab1[v]} to {w}:{lab2[w]}")
    mapped = {(m[s], m[d]) for s, d in edges1}
    expect(mapped == set(edges2), "map does not preserve edges both ways")


def degree_invariant(g: tuple[dict, list]) -> Counter:
    """The multiset of (label, in-degree, out-degree) over the vertices."""
    lab, edges = g
    indeg, outdeg = Counter(), Counter()
    for s, d in edges:
        outdeg[s] += 1
        indeg[d] += 1
    return Counter((lab[v], indeg[v], outdeg[v]) for v in lab)


# ------------------------------------------------------------- enumeration

def formula_count(n_atoms: int, max_connectives: int) -> int:
    """Formulas over the unit and n atoms with at most the given number of
    binary connectives: Catalan(c) tree shapes with c nodes, 2 connectives
    per node and n + 1 leaves per position."""
    return sum(comb(2 * c, c) // (c + 1) * 2 ** c * (n_atoms + 1) ** (c + 1)
               for c in range(max_connectives + 1))


def all_formulas(atoms: list[str], max_connectives: int) -> list[tuple]:
    by_size = [[UNIT] + [atom(a) for a in atoms]]
    for c in range(1, max_connectives + 1):
        level = []
        for i in range(c):
            for left in by_size[i]:
                for right in by_size[c - 1 - i]:
                    level.append(tensor(left, right))
                    level.append(lolli(left, right))
        by_size.append(level)
    return [f for level in by_size for f in level]


def class_table(atoms: list[str], max_connectives: int
                ) -> tuple[Counter, int]:
    """Canonical key -> class size over every formula, and how many
    formulas fall outside the fragment."""
    classes: Counter = Counter()
    skipped = 0
    for f in all_formulas(atoms, max_connectives):
        key = canonical_text(f)
        if key is None:
            skipped += 1
        else:
            classes[key] += 1
    return classes, skipped

"""Generic depth-first fold over a graph's predecessor structure.

The fold function decides, per visited vertex, whether to keep descending
into that vertex's predecessors (Continue), skip them (Skip), or abandon
the whole traversal and return the accumulator as-is (Stop).  Putting the
control flow into the folded function keeps the traversal itself tiny while
supporting early exit, revisit suppression, and search-style uses.

There is no built-in deduplication: a vertex reachable along k paths is
visited k times unless the fold function skips.  On a cyclic graph the fold
function is responsible for eventually answering Skip or Stop; see
``fold_reachable`` for the packaged once-per-vertex variant.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, TypeVar

from .core import RawGraph, UnknownVertex, VertexId

A = TypeVar("A")


class Action(Enum):
    SKIP = "skip"
    STOP = "stop"
    CONTINUE = "continue"


VisitFn = Callable[[VertexId, A], tuple[Action, A]]

# Reading a member off the Enum class goes through its metaclass, several
# times the cost of a plain attribute; walks read these once per visit.
_SKIP, _STOP, _CONTINUE = Action.SKIP, Action.STOP, Action.CONTINUE


def traverse_dfs(f: VisitFn, g: RawGraph, v: VertexId, a0: A) -> A:
    """Fold f depth-first along predecessors starting at v.

    Siblings are visited in ascending vertex order, threading the
    accumulator left to right.  Equivalent to the direct recursion; the
    explicit stack only avoids recursion depth limits.
    """
    if v not in g:
        raise UnknownVertex(v)
    action, acc = f(v, a0)
    if action is _STOP:
        return acc
    stack = [iter(g._preds[v])] if action is _CONTINUE else []
    while stack:
        w = next(stack[-1], None)
        if w is None:
            stack.pop()
            continue
        action, acc = f(w, acc)
        if action is _STOP:
            return acc
        if action is _CONTINUE:
            stack.append(iter(g._preds[w]))
    return acc


def fold_reachable(f: Callable[[VertexId, A], A], g: RawGraph, v: VertexId,
                   a0: A) -> A:
    """Fold f once per vertex reachable backward from v, in first-visit order.

    A traverse_dfs wrapper whose fold function skips revisited vertices, so
    it terminates even on cyclic graphs.
    """
    seen: set[VertexId] = set()

    def visit(w: VertexId, acc: A) -> tuple[Action, A]:
        if w in seen:
            return _SKIP, acc
        seen.add(w)
        return _CONTINUE, f(w, acc)

    return traverse_dfs(visit, g, v, a0)

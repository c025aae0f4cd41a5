"""Hypothesis strategies for formulas and graphs."""

from hypothesis import assume
from hypothesis import strategies as st

from lgraph import (Atom, LabelId, Lolli, RawGraph, Tensor, Unit, VertexId,
                    to_graph, validate)
from lgraph.core import Error

LABELS = [LabelId(n) for n in ("p", "q", "r")]

labels = st.sampled_from(LABELS)

formulas = st.recursive(
    st.one_of(st.builds(Unit), st.builds(Atom, labels)),
    lambda sub: st.one_of(st.builds(Tensor, sub, sub),
                          st.builds(Lolli, sub, sub)),
    max_leaves=6,
)


@st.composite
def dag_graphs(draw, max_vertices=6, labels=labels):
    """Arbitrary labelled DAGs (edges respect a fixed vertex order)."""
    n = draw(st.integers(0, max_vertices))
    verts = [VertexId(f"n{i}") for i in range(n)]
    labelling = {v: draw(labels) for v in verts}
    edges = [(verts[i], verts[j])
             for i in range(n) for j in range(i + 1, n)
             if draw(st.booleans())]
    return RawGraph(labelling, edges)


@st.composite
def raw_graphs(draw, max_vertices=5):
    """Arbitrary labelled digraphs; may contain cycles."""
    n = draw(st.integers(0, max_vertices))
    verts = [VertexId(f"n{i}") for i in range(n)]
    labelling = {v: draw(labels) for v in verts}
    pairs = [(a, b) for a in verts for b in verts if a is not b]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=8, unique=True)) \
        if pairs else []
    return RawGraph(labelling, edges)


@st.composite
def valid_graphs(draw):
    """Validated graphs, generated through formula translation."""
    g = to_graph(draw(formulas))
    try:
        return validate(g)
    except Error:
        assume(False)


# Names with what a JSON writer must escape or may pass through: quotes,
# backslashes, control characters, non-ASCII text.
json_names = st.text(
    st.one_of(st.sampled_from('"\\/\x00\x1f\x7f ~é€\u2028😀'), st.characters()),
    min_size=1, max_size=4)


@st.composite
def named_graphs(draw, max_vertices=6):
    """Arbitrary labelled digraphs over arbitrary names."""
    verts = draw(st.lists(json_names.map(VertexId), max_size=max_vertices,
                          unique=True))
    labelling = {v: LabelId(draw(json_names)) for v in verts}
    pairs = [(a, b) for a in verts for b in verts if a is not b]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=8, unique=True)) \
        if pairs else []
    return RawGraph(labelling, edges)

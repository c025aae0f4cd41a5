import copy
import itertools
import json
import os
import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import refimpl
from lgraph import (CyclicEdges, LabelId, LogicalGraph, NotWellFormed,
                    RawGraph, SubgraphRelation, UnknownVertex,
                    VertexId, assumption_graph, alpha_equiv, conclusions,
                    enumerate_formulas, from_json, full_assumption_graph,
                    induced_subgraph, normalize, parse, predecessors,
                    rename_apart, rename_graph, subgraph_relation, subtract,
                    successors, to_json, validate, vset)
from lgraph.core import Error, _fresh_names, _peel, peel_tree
from refimpl import fresh_name
from strategies import dag_graphs, named_graphs, raw_graphs, valid_graphs
from util import G, L, LG, V, names

# The worked two-conclusion example used throughout: (f -o g) and
# ((a -o b*c) * d -o e) side by side.
EXAMPLE_A = "f g a b c d e", "f>g a>b a>c b>e c>e d>e"
N_GRAPH = "a b c d", "a>c b>c b>d"


class TestIdentifiers:
    def test_ordering_is_lexicographic(self):
        assert sorted([V("b"), V("a"), V("a0")]) == [V("a"), V("a0"), V("b")]

    def test_vertex_and_label_never_equal(self):
        assert V("a") != L("a")
        assert L("a") != V("a")
        assert len({V("a"), L("a")}) == 2

    def test_plain_strings_do_not_match(self):
        assert V("a") != "a"
        assert "a" != V("a")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            VertexId("")
        with pytest.raises(ValueError):
            LabelId("")

    @pytest.mark.parametrize("name", [3, b"a", None, ["a"], {}, {"a"}])
    def test_a_name_that_is_not_a_string_is_one_error(self, name):
        # An unhashable name fails the intern lookup; it is still the
        # ValueError every other non-string gets.
        for kind in (VertexId, LabelId):
            with pytest.raises(ValueError) as caught:
                kind(name)
            assert str(caught.value) == \
                f"{kind.__name__} needs a nonempty string, got {name!r}"

    def test_name_accessor(self):
        assert V("a0").name == "a0"
        assert type(V("a0").name) is str

    def test_vset_sorts_and_dedupes(self):
        assert vset([V("b"), V("a"), V("b")]) == (V("a"), V("b"))


class TestRawGraph:
    def test_edge_endpoints_must_be_labelled(self):
        with pytest.raises(UnknownVertex):
            RawGraph({V("a"): L("p")}, [(V("a"), V("b"))])

    def test_immutable(self):
        g = G("a:p")
        with pytest.raises(AttributeError):
            g.labelling = {}
        with pytest.raises(TypeError):
            g.labelling[V("b")] = L("q")

    def test_equality_is_structural_across_kinds(self):
        raw = G("a:p b:q", "a>b")
        log = validate(raw)
        assert raw == log
        assert log == raw
        assert hash(raw) == hash(log)
        assert raw != G("a:p b:q")

    def test_unknown_vertex_is_the_first_in_the_callers_order(self):
        # Both checks walked a set, so the vertex they named changed with
        # the hash seed of the process.
        script = (
            "from lgraph import RawGraph, UnknownVertex, induced_subgraph\n"
            "from lgraph.core import LabelId, VertexId\n"
            "a, b, c, d, x, y, z = map(VertexId, 'abcdxyz')\n"
            "g = RawGraph({a: LabelId('p')})\n"
            "edges = [(a, b), (c, a), (a, d)]\n"
            "for build in (lambda: RawGraph(g.labelling, edges),\n"
            "              lambda: induced_subgraph(g, [x, y, z, a])):\n"
            "    try:\n"
            "        build()\n"
            "    except UnknownVertex as exc:\n"
            "        print(exc.vertex.name)\n")
        import lgraph
        src = os.path.dirname(os.path.dirname(lgraph.__file__))
        for seed in ("1", "2", "3"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            out = subprocess.run([sys.executable, "-c", script], env=env,
                                 capture_output=True, text=True, check=True,
                                 timeout=60).stdout
            assert out.split() == ["b", "x"], f"PYTHONHASHSEED={seed}"

    @pytest.mark.parametrize("labelling, bad", [
        ({"a": L("p"), V("b"): "q"}, "'a' is not a VertexId"),
        ({V("a"): L("p"), V("b"): "q"}, "'q' is not a LabelId"),
        ({V("a"): "p", "b": L("q")}, "'p' is not a LabelId"),
        ({"a": "p"}, "'a' is not a VertexId"),
        ({V("a"): V("p")}, "V('p') is not a LabelId"),
        ({L("a"): L("p")}, "L('a') is not a VertexId")])
    def test_constructor_takes_identifiers_only(self, labelling, bad):
        # A plain str printed and was written like an identifier, yet no
        # VertexId matched it: membership, equality, alpha-equivalence and
        # adjacency queries all missed the graph's own vertices.
        for cls in (RawGraph, LogicalGraph):
            with pytest.raises(TypeError) as caught:
                cls(labelling, [])
            assert str(caught.value) == bad

    def test_edge_endpoints_are_still_unknown_vertices(self):
        with pytest.raises(UnknownVertex) as caught:
            RawGraph({V("a"): L("p")}, [(V("a"), "a")])
        assert caught.value.vertex == "a"

    def test_equality_with_a_non_graph(self):
        g = G("a:p")
        assert (g == 3) is False
        assert (g != 3) is True

    def test_repr_summarises_a_graph_of_nine_vertices(self):
        g = G(" ".join(f"v{i}:p" for i in range(9)), "v0>v1")
        assert repr(g) == "RawGraph(<9 vertices, 1 edges>)"

    def test_inputs_are_copied(self):
        labelling = {V("a"): L("p")}
        g = RawGraph(labelling, [])
        labelling[V("b")] = L("q")
        assert V("b") not in g

    def test_queries(self):
        g = G("a:p b:q c:r", "a>b b>c")
        assert g.label_of(V("a")) == L("p")
        assert V("a") in g and V("z") not in g
        assert len(g) == 3
        assert names(g.vertices()) == ["a", "b", "c"]
        with pytest.raises(UnknownVertex):
            g.label_of(V("z"))


class TestLogicalGraphConstructor:
    def test_a_valid_graph_is_built(self):
        g = LogicalGraph({V("a"): L("p"), V("b"): L("q")}, [(V("a"), V("b"))])
        assert type(g) is LogicalGraph
        assert g == validate(G("a:p b:q", "a>b"))

    def test_a_cycle_raises_what_validate_raises(self):
        # Built unchecked, canonical_key and alpha_equiv failed on it with
        # two different errors.
        a, b = V("a"), V("b")
        with pytest.raises(CyclicEdges) as caught:
            LogicalGraph({a: L("p"), b: L("q")}, [(a, b), (b, a)])
        assert caught.value.cycle == (a, b)

    def test_a_graph_with_no_formula_reading_is_refused(self):
        raw = G(*N_GRAPH)
        with pytest.raises(NotWellFormed) as want:
            validate(raw)
        with pytest.raises(NotWellFormed) as got:
            LogicalGraph(raw.labelling, raw.edges)
        assert str(got.value) == str(want.value)
        assert got.value.witness == want.value.witness


class TestValidate:
    def test_worked_example_accepted(self):
        g = validate(G(*EXAMPLE_A))
        assert isinstance(g, LogicalGraph)

    def test_empty_graph_accepted(self):
        assert len(validate(G(""))) == 0

    def test_n_graph_rejected(self):
        with pytest.raises(NotWellFormed) as exc:
            validate(G(*N_GRAPH))
        # The offending vertex pair: b implies both c's clique and d.
        assert V("b") in exc.value.witness

    def test_self_loop_is_cyclic(self):
        with pytest.raises(CyclicEdges) as exc:
            validate(G("v:p", "v>v"))
        assert exc.value.cycle == (V("v"),)

    def test_two_cycle_is_cyclic(self):
        with pytest.raises(CyclicEdges) as exc:
            validate(G("u:p w:q", "u>w w>u"))
        assert set(exc.value.cycle) == {V("u"), V("w")}

    def test_chain_accepted(self):
        assert isinstance(LG("p q r", "p>q q>r"), LogicalGraph)

    def test_shared_assumptions_accepted(self):
        # two conclusions over one shared premise set
        assert isinstance(LG("a b c", "a>b a>c"), LogicalGraph)

    def test_split_assumptions_rejected(self):
        # x feeds two conclusions that do not share their premise sets
        with pytest.raises(NotWellFormed):
            validate(G("x w1 w2 c1 c2", "x>w1 x>w2 w1>c1 w2>c2"))

    def test_not_well_formed_witness_is_the_first_pair_ascending(self):
        # a and b both imply c; a also implies x and b also implies y.  The
        # witness is a's, whatever the hash seed of the process.
        g = from_json('{"vertices":{"a":"p","b":"p","c":"p","x":"p","y":"p"},'
                      '"edges":[["a","c"],["a","x"],["b","c"],["b","y"]]}')
        with pytest.raises(NotWellFormed) as exc:
            validate(g)
        assert exc.value.witness == (V("a"), V("x"))

    def test_not_well_formed_witness_on_nested_levels(self):
        # Both nested levels overreach, p in c1's and r in c2's; the level
        # of the last clique, c2's, is checked first.
        g = G("a b c1 c2 p q r s x y",
              "a>c1 b>c1 x>c2 y>c2 p>a p>b q>b r>x r>y s>y")
        with pytest.raises(NotWellFormed) as exc:
            validate(g)
        assert exc.value.witness == (V("r"), V("y"))

    def test_not_well_formed_witness_between_cliques_of_one_level(self):
        # One level holds the cliques {a}, {b} and {x}; u overreaches from
        # {a} and v from {b}, both into x.  The clique of least conclusion
        # is checked first.
        g = G("u:p v:p a:p b:p x:p", "u>a u>x v>b v>x")
        with pytest.raises(NotWellFormed) as exc:
            validate(g)
        assert exc.value.witness == (V("u"), V("x"))
        assert str(exc.value) == \
            "vertex u implies x but also the conclusion set {a}"

    def test_peel_parts_partition_vertices(self):
        g = validate(G(*EXAMPLE_A))
        seen = []

        def collect(tree):
            for clique, children in tree:
                seen.extend(clique)
                collect(children)

        collect(peel_tree(g))
        assert sorted(seen) == list(g.vertices())


def _all_structures(n):
    """Every digraph (no self-loops) on n distinctly-labelled vertices."""
    verts = [V(f"n{i}") for i in range(n)]
    labelling = {v: L(f"l{i}") for i, v in enumerate(verts)}
    pairs = [(a, b) for a in verts for b in verts if a is not b]
    for bits in itertools.product([False, True], repeat=len(pairs)):
        edges = [e for e, keep in zip(pairs, bits) if keep]
        yield RawGraph(labelling, edges)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_validate_matches_reference_exhaustively(n):
    """The linear peel accepts exactly what the literal recursive
    decomposition accepts, on every digraph of this size."""
    for g in _all_structures(n):
        lab, edges = refimpl.plain(g)
        acyclic = refimpl.ref_acyclic(lab, edges)
        expected = refimpl.ref_valid(g)
        try:
            promoted = validate(g)
            assert expected, f"accepted but reference rejects: {g!r}"
            assert refimpl.tree_shape(peel_tree(promoted)) == \
                refimpl.tree_shape(refimpl.ref_decompose(lab, edges))
        except CyclicEdges:
            assert not acyclic, f"cyclic error on acyclic graph: {g!r}"
        except NotWellFormed:
            assert acyclic and not expected, f"wrongly rejected: {g!r}"


def test_validate_matches_reference_on_four_vertices():
    # 4 vertices is 2^12 structures; enough to catch scoping mistakes in
    # the peel without exploding the suite runtime.
    mismatches = []
    for g in _all_structures(4):
        expected = refimpl.ref_valid(g)
        try:
            validate(g)
            got = True
        except (CyclicEdges, NotWellFormed):
            got = False
        if got != expected:
            mismatches.append(g)
    assert not mismatches


@given(dag_graphs(max_vertices=7))
def test_validate_matches_reference_random(g):
    expected = refimpl.ref_valid(g)
    try:
        promoted = validate(g)
        got = True
        assert refimpl.tree_shape(peel_tree(promoted)) == \
            refimpl.tree_shape(refimpl.ref_decompose(*refimpl.plain(g)))
    except NotWellFormed:
        got = False
    assert got == expected


@given(dag_graphs())
def test_peel_matches_the_frozenset_peel_order_included(g):
    try:
        expected = refimpl.ref_peel(g)
    except NotWellFormed:
        with pytest.raises(NotWellFormed):
            _peel(g)
        return
    assert _peel(g) == expected
    assert peel_tree(validate(g)) == expected


@given(valid_graphs())
def test_peel_of_translated_graphs_matches_the_frozenset_peel(g):
    assert _peel(g) == refimpl.ref_peel(g)


@given(raw_graphs())
def test_validate_classifies_cycles_correctly(g):
    acyclic = refimpl.ref_acyclic(*refimpl.plain(g))
    try:
        validate(g)
    except CyclicEdges as exc:
        assert not acyclic
        cycle = exc.cycle
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            assert (a, b) in g.edges
    except NotWellFormed:
        assert acyclic
    else:
        assert acyclic


class TestConclusions:
    def test_worked_example(self):
        assert names(conclusions(LG(*EXAMPLE_A))) == ["e", "g"]

    def test_empty(self):
        assert conclusions(G("")) == ()

    def test_chain(self):
        assert names(conclusions(LG("p q r", "p>q q>r"))) == ["r"]

    @given(valid_graphs())
    def test_nonempty_graph_has_conclusions(self, g):
        assert bool(conclusions(g)) == bool(len(g))


class TestPredecessors:
    def test_chain(self):
        assert names(predecessors(LG("p q r", "p>q q>r"), V("r"))) == ["q"]

    def test_worked_example(self):
        assert names(predecessors(G(*EXAMPLE_A), V("e"))) == ["b", "c", "d"]

    def test_no_in_edges(self):
        assert predecessors(G("a:p b:q", "a>b"), V("a")) == ()

    def test_unknown_vertex(self):
        with pytest.raises(UnknownVertex):
            predecessors(G("a:p"), V("z"))

    def test_successors(self):
        assert names(successors(G(*EXAMPLE_A), V("a"))) == ["b", "c"]

    def test_successors_of_an_unknown_vertex(self):
        with pytest.raises(UnknownVertex) as caught:
            successors(G("a:p"), V("zz"))
        assert caught.value.vertex == V("zz")


class TestAssumptionGraphs:
    def test_chain_assumption(self):
        g = LG("p q r", "p>q q>r")
        assert assumption_graph(g, V("q")) == G("p q", "p>q")

    def test_no_predecessors_gives_singleton(self):
        g = LG("p q r", "p>q q>r")
        assert assumption_graph(g, V("p")) == G("p")

    def test_worked_example_closure(self):
        g = LG(*EXAMPLE_A)
        result = assumption_graph(g, V("e"))
        # oracle: breadth-first closure over the edge list
        expected = refimpl.up_closure(g, [V("e")])
        assert set(result.vertices()) == expected
        assert names(result.vertices()) == ["a", "b", "c", "d", "e"]

    def test_full_assumption_chain(self):
        g = LG("p q r", "p>q q>r")
        assert full_assumption_graph(g, V("r")) == G("p q", "p>q")

    def test_full_assumption_worked_example(self):
        g = LG(*EXAMPLE_A)
        result = full_assumption_graph(g, V("e"))
        expected = set()
        for w in predecessors(g, V("e")):
            expected |= refimpl.up_closure(g, [w])
        assert set(result.vertices()) == expected
        assert names(result.vertices()) == ["a", "b", "c", "d"]

    def test_full_assumption_no_predecessors(self):
        g = LG("p q r", "p>q q>r")
        assert len(full_assumption_graph(g, V("p"))) == 0

    def test_unknown_vertex(self):
        with pytest.raises(UnknownVertex):
            assumption_graph(G("a:p"), V("z"))
        with pytest.raises(UnknownVertex):
            full_assumption_graph(G("a:p"), V("z"))

    def test_results_stay_validated(self):
        g = LG(*EXAMPLE_A)
        assert isinstance(assumption_graph(g, V("e")), LogicalGraph)
        assert isinstance(full_assumption_graph(g, V("e")), LogicalGraph)

    def test_small_and_large_closures_give_the_induced_subgraph(self):
        # A binary tree of 63 vertices: closures from 1 to 63 vertices, so
        # both the sorted and the filtered member order are taken.
        edges = " ".join(f"n{i:02d}>n{(i - 1) // 2:02d}" for i in range(1, 63))
        g = LG(" ".join(f"n{i:02d}" for i in range(63)), edges)
        for v in g.vertices():
            for sub, seeds in ((assumption_graph(g, v), [v]),
                               (full_assumption_graph(g, v),
                                predecessors(g, v))):
                expected = induced_subgraph(g, refimpl.up_closure(g, seeds))
                assert sub == expected
                assert sub._preds == expected._preds
                assert sub._succs == expected._succs

    @given(valid_graphs())
    def test_assumption_graph_is_up_closed(self, g):
        for v in g.vertices():
            sub = assumption_graph(g, v)
            for w in sub.vertices():
                for p in predecessors(g, w):
                    assert p in sub
            assert names(conclusions(sub)) == [str(v)]

    @given(valid_graphs())
    def test_assumption_graphs_validate(self, g):
        # The promoted result claims validity without re-running validate;
        # re-check from scratch.
        for v in g.vertices():
            sub = assumption_graph(g, v)
            validate(RawGraph(sub.labelling, sub.edges))


class TestInducedSubgraph:
    def test_forgets_edges_through_removed_vertices(self):
        g = G("p q r", "p>q q>r")
        assert induced_subgraph(g, [V("p"), V("r")]) == G("p r")

    def test_whole_vertex_set_is_identity(self):
        g = G(*EXAMPLE_A)
        assert induced_subgraph(g, g.vertices()) == g

    def test_worked_example_restriction(self):
        g = G(*EXAMPLE_A)
        sub = induced_subgraph(g, [V("b"), V("c"), V("e")])
        assert sub == G("b c e", "b>e c>e")

    def test_unknown_vertex(self):
        with pytest.raises(UnknownVertex):
            induced_subgraph(G("a:p"), [V("z")])


class TestSubgraphRelation:
    def test_induced_subgraph_is_strict(self):
        h = G(*EXAMPLE_A)
        g = induced_subgraph(h, [V("a"), V("b"), V("e")])
        assert subgraph_relation(g, h) == SubgraphRelation.STRICT_VERTEX_SUBGRAPH

    def test_missing_edges_are_not_strict(self):
        assert subgraph_relation(G("p q"), G("p q", "p>q")) == \
            SubgraphRelation.VERTEX_SUBGRAPH

    def test_unknown_vertex_name(self):
        assert subgraph_relation(G("z:p"), G("p q", "p>q")) == \
            SubgraphRelation.NOT_SUBGRAPH

    def test_same_name_different_label(self):
        assert subgraph_relation(G("a:p"), G("a:q")) == \
            SubgraphRelation.NOT_SUBGRAPH

    def test_extra_edges_of_g_are_not_subgraph(self):
        assert subgraph_relation(G("p q", "p>q"), G("p q")) == \
            SubgraphRelation.NOT_SUBGRAPH

    @given(dag_graphs())
    def test_any_induced_subgraph_is_strict(self, h):
        verts = list(h.vertices())
        w = verts[::2]
        assert subgraph_relation(induced_subgraph(h, w), h) == \
            SubgraphRelation.STRICT_VERTEX_SUBGRAPH


class TestRenaming:
    def test_fresh_name_bumps_suffix(self):
        assert fresh_name("v0", {"v0"}) == "v1"
        assert fresh_name("v0", {"v0", "v1"}) == "v2"
        assert fresh_name("a", {"a"}) == "a0"
        assert fresh_name("a", set()) == "a0"

    def test_batched_fresh_names_match_fresh_name(self):
        # Mixed stems, digit suffixes with leading zeros and non-ASCII
        # digits, and runs of taken suffixes that the skip links jump.
        rng = random.Random(7)
        stems = ["v", "a", "x_", "n0a", ""]
        digits = ["", "0", "1", "2", "9", "10", "11", "007", "٣", "99"]
        for _ in range(200):
            pool = [rng.choice(stems) + rng.choice(digits) for _ in range(30)]
            taken = {name for name in pool if name and rng.random() < 0.6}
            taken |= {f"v{i}" for i in range(rng.randint(0, 40))}
            bases = [rng.choice(pool) or "v" for _ in range(rng.randint(0, 60))]
            expected, want_taken = [], set(taken)
            for base in bases:
                name = fresh_name(base, want_taken)
                want_taken.add(name)
                expected.append(name)
            got_taken = set(taken)
            assert _fresh_names(bases, got_taken) == expected
            assert got_taken == want_taken

    def test_rename_apart_matches_fresh_name_loop(self):
        g = G("v0:p v1:p v2:p v10:q v11:q a:r a0:r a1:r x9:s",
              "v0>v1 v10>v2 a>a0")
        avoid = [V(n) for n in ("v0", "v1", "v2", "v10", "a", "a1", "v3",
                                "v12", "x9", "x10")]
        taken = {str(v) for v in avoid} | {str(v) for v in g.vertices()}
        expected = {}
        for v in g.vertices():
            if v in avoid:
                name = fresh_name(str(v), taken)
                taken.add(name)
                expected[v] = V(name)
            else:
                expected[v] = v
        renamed, mapping = rename_apart(g, avoid)
        assert mapping == expected
        assert renamed == rename_graph(g, expected)

    def test_disjoint_avoid_is_identity(self):
        g = G("a:p b:q", "a>b")
        renamed, mapping = rename_apart(g, [V("z")])
        assert renamed == g
        assert mapping == {V("a"): V("a"), V("b"): V("b")}

    def test_collision_renames_to_fresh(self):
        renamed, mapping = rename_apart(G("v0:p"), [V("v0")])
        assert renamed == G("v1:p")
        assert mapping == {V("v0"): V("v1")}

    def test_renamed_graph_is_alpha_equivalent(self):
        g = G(*EXAMPLE_A)
        renamed, mapping = rename_apart(g, g.vertices())
        assert set(renamed.vertices()).isdisjoint(g.vertices())
        assert alpha_equiv(g, renamed) is not None
        assert rename_graph(g, mapping) == renamed

    def test_rename_must_not_merge(self):
        with pytest.raises(ValueError):
            rename_graph(G("a:p b:p"), {V("a"): V("b")})

    def test_rename_graph_refuses_a_new_name_that_is_not_a_vertex_id(self):
        # A plain str vertex would be in the graph yet not found by V("x").
        with pytest.raises(TypeError,
                           match=r"^rename_graph: 'x' is not a VertexId$"):
            rename_graph(G("a:p b:q", "a>b"), {V("a"): "x"})

    def test_rename_graph_names_the_first_bad_name_in_the_mappings_order(
            self):
        mapping = {V("a"): V("x"), "b": V("y"), V("c"): L("z")}
        with pytest.raises(TypeError, match=r"^rename_graph: 'b' is not"):
            rename_graph(G("a:p b:q c:r"), mapping)

    def test_rename_apart_refuses_a_name_that_is_not_a_vertex_id(self):
        # "a" is not V("a"): it would avoid nothing and rename nothing.
        with pytest.raises(TypeError,
                           match=r"^rename_apart: 'a' is not a VertexId$"):
            rename_apart(G("a:p b:q", "a>b"), ["a"])

    def test_rename_apart_names_the_first_bad_name_in_the_callers_order(self):
        with pytest.raises(TypeError, match=r"^rename_apart: 'z' is not"):
            rename_apart(G("a:p"), iter([V("a"), "z", L("a")]))

    @given(dag_graphs())
    def test_rename_apart_deterministic_and_total(self, g):
        avoid = list(g.vertices())[:3]
        first, map1 = rename_apart(g, avoid)
        second, map2 = rename_apart(g, avoid)
        assert first == second and map1 == map2
        assert set(map1) == set(g.vertices())
        assert set(first.vertices()).isdisjoint(avoid)


class TestGraphFiles:
    def test_canonical_output_is_bit_exact(self):
        # The file format carries raw graphs, validity aside; edges sort
        # by (src, dst) and vertex keys ascend.
        g = G("b:q a:p", "b>a a>b")
        assert to_json(g) == \
            '{"edges":[["a","b"],["b","a"]],"vertices":{"a":"p","b":"q"}}'

    def test_round_trip(self):
        g = G(*EXAMPLE_A)
        assert from_json(to_json(g)) == g

    def test_accepts_any_order(self):
        text = '{"vertices": {"b": "q", "a": "p"}, "edges": [["a","b"]]}'
        assert from_json(text) == G("a:p b:q", "a>b")

    def test_formula_key_is_ignored(self):
        text = '{"vertices": {"a": "p"}, "edges": [], "formula": "p"}'
        assert from_json(text) == G("a:p")

    def test_unknown_keys_rejected(self):
        with pytest.raises(Exception, match="unknown keys"):
            from_json('{"vertices": {}, "edges": [], "extra": 1}')

    def test_bad_edge_rejected(self):
        with pytest.raises(Exception, match="bad edge"):
            from_json('{"vertices": {"a": "p"}, "edges": [["a"]]}')

    @pytest.mark.parametrize("edge", ['["", "a"]', '["a", ""]'])
    def test_empty_edge_endpoint_rejected(self, edge):
        text = '{"vertices": {"a": "p"}, "edges": [%s]}' % edge
        with pytest.raises(Error, match="invalid graph file: bad edge"):
            from_json(text)

    def test_edge_to_unlabelled_vertex_rejected(self):
        with pytest.raises(UnknownVertex):
            from_json('{"vertices": {"a": "p"}, "edges": [["a","b"]]}')

    def test_edge_from_unlabelled_vertex_rejected(self):
        with pytest.raises(UnknownVertex) as caught:
            from_json('{"vertices": {"a": "p"}, "edges": [["b","a"]]}')
        assert caught.value.vertex == V("b")

    @pytest.mark.parametrize("text", ["[]", '"x"', "3"])
    def test_top_level_that_is_not_an_object_rejected(self, text):
        with pytest.raises(Error) as caught:
            from_json(text)
        assert type(caught.value) is Error
        assert str(caught.value) == ("invalid graph file: top level must be "
                                     "an object")

    def test_not_json_rejected(self):
        with pytest.raises(Exception, match="invalid graph file"):
            from_json("digraph {}")

    @pytest.mark.parametrize("edges", [
        '["ab"]', '[{"a": 1, "b": 2}]', '[["a"]]', '[["a", "b", "a"]]',
        '[["a", 1]]', '[[null, "a"]]', '[["a", ["b"]]]', '[["", "a"]]',
        '[["a", "z"], ["a"]]', '[["a"], ["a", "z"]]', '[["z", "a"]]',
        '[["a", "b"], 7]', '[["a", "b"], ["a", "b"]]', '[]', '{}',
        '[["a", "b"], ["b", "a"]]'])
    def test_edges_read_as_the_per_edge_reader_reads_them(self, edges):
        text = '{"vertices": {"a": "p", "b": "q"}, "edges": %s}' % edges
        assert _outcome(from_json, text) == _outcome(refimpl.ref_from_json,
                                                     text)

    @pytest.mark.parametrize("vertices", [
        '{"a": ""}', '{"": "p"}', '{"a": 1}', '{"a": "p", "": ""}',
        '{"a": "", "": "p"}', '[]'])
    def test_vertices_read_as_the_per_edge_reader_reads_them(self, vertices):
        text = '{"vertices": %s, "edges": [["a", "a"]]}' % vertices
        assert _outcome(from_json, text) == _outcome(refimpl.ref_from_json,
                                                     text)

    @given(raw_graphs())
    def test_reads_any_file_as_the_per_edge_reader_does(self, g):
        text = to_json(g)
        assert _outcome(from_json, text) == _outcome(refimpl.ref_from_json,
                                                     text)

    @given(named_graphs())
    @example(RawGraph({V('"'): L('"'), V('""'): L("\ud800")}))
    def test_writes_any_names_as_the_sorting_writer_did(self, g):
        text = to_json(g)
        assert text == refimpl.ref_to_json(g)
        # A name with a lone surrogate is written, but reading refuses it.
        names = [*g.labelling, *g.labelling.values()]
        if all(_encodes(n) for n in names):
            assert from_json(text) == g
        else:
            with pytest.raises(Error, match="cannot be encoded as UTF-8"):
                from_json(text)

    @pytest.mark.parametrize("text", ["[" * 100_000, '{"a":' * 100_000,
                                      '{"vertices":' + "[" * 100_000])
    def test_nesting_too_deep_to_read_is_a_file_error(self, text):
        with pytest.raises(Error, match="^invalid graph file: maximum "
                                        "recursion depth exceeded"):
            from_json(text)

    @pytest.mark.parametrize("vertices", [
        '{"a": "p", "\\ud800": "q"}', '{"a": "\\udfff"}',
        '{"a\\ud83d": "p"}', '{"\\ude00\\ud83d": "p"}'])
    def test_names_that_are_not_text_are_rejected(self, vertices):
        text = '{"vertices": %s, "edges": []}' % vertices
        with pytest.raises(Error, match="^invalid graph file: name .* "
                                        "cannot be encoded as UTF-8$"):
            from_json(text)

    def test_escaped_and_raw_non_ascii_names_are_read(self):
        text = ('{"vertices": {"\\ud83d\\ude00": "\\u00e9", "\u20ac": "p"}, '
                '"edges": [["\u20ac", "\U0001f600"]]}')
        g = G("\U0001f600:\u00e9 \u20ac:p", "\u20ac>\U0001f600")
        assert from_json(text) == from_json(text.encode()) == g

    def test_bytes_are_read_as_json_reads_them(self):
        assert from_json(b'{"vertices": {"a": "p"}}') == G("a:p")
        with pytest.raises(Error, match="cannot be encoded as UTF-8"):
            from_json(b'{"vertices": {"\\ud800": "p"}}')

    @given(dag_graphs())
    def test_round_trip_any_graph(self, g):
        assert from_json(to_json(g)) == g
        assert g._sorted_edges == tuple(sorted(g.edges))


def _encodes(name: str) -> bool:
    """Whether name is text: no lone surrogate."""
    try:
        name.encode()
    except UnicodeEncodeError:
        return False
    return True


def _outcome(read, text):
    """The graph read from text, or the type and message of the error."""
    try:
        g = read(text)
    except Exception as exc:
        return type(exc), str(exc)
    return type(g), g, g.vertices(), g._preds, g._succs


_ROUND_TRIPS = [lambda x: pickle.loads(pickle.dumps(x)), copy.copy,
                copy.deepcopy]


def _validated(g):
    """validate(g), or the type and message of what it raised."""
    try:
        h = validate(g)
    except Error as exc:
        return type(exc), str(exc)
    return type(h), h


def _raised(fn, *args):
    with pytest.raises(Error) as info:
        fn(*args)
    return info.value


def _read(exc):
    str(exc)
    return exc


def _fields(exc):
    """An error's fields, an error among them by its type, text and fields."""
    return {name: (type(value), str(value), _fields(value))
            if isinstance(value, BaseException) else value
            for name, value in vars(exc).items()}


_OUTSIDE = "p -o (a -o b) * c"

# One of each public error, made as the package makes it.
_ERRORS = {
    "Error": lambda: Error("invalid graph file: top level must be an object"),
    "UnknownVertex": lambda: _raised(predecessors, G("a"), V("b")),
    "CyclicEdges": lambda: _raised(validate, G("a b c", "a>b b>c c>a")),
    "NotWellFormed": lambda: _raised(validate, G(*N_GRAPH)),
    "NotASubgraphByName": lambda: _raised(subtract, G("a:p"), G("k:r")),
    "ParseError": lambda: _raised(parse, "p q $"),
    "ParseError-at-end": lambda: _raised(parse, "(p * q"),
    "NotInFragment-unread": lambda: _raised(normalize, parse(_OUTSIDE)),
    "NotInFragment-read":
        lambda: _read(_raised(normalize, parse(_OUTSIDE))),
    "BoundsTooLarge": lambda: _raised(enumerate_formulas, [L("p")], 100_000),
}


class TestPickleAndCopy:
    @given(st.one_of(valid_graphs(), dag_graphs()))
    def test_graphs_round_trip(self, g):
        for trip in _ROUND_TRIPS:
            back = trip(g)
            assert type(back) is type(g)
            assert back == g and to_json(back) == to_json(g)
            assert _validated(back) == _validated(g)

    @pytest.mark.parametrize("make", _ERRORS.values(), ids=_ERRORS.keys())
    def test_errors_round_trip(self, make):
        for trip in _ROUND_TRIPS:
            exc = make()
            unread = "_formula" in vars(exc)
            back = trip(exc)
            assert type(back) is type(exc)
            # An unread NotInFragment travels as its formula, untranslated.
            assert "_formula" in vars(exc) and "_formula" in vars(back) \
                if unread else "_formula" not in vars(back)
            assert (str(back), back.args, _fields(back)) == \
                (str(exc), exc.args, _fields(exc))

    def test_every_public_error_type_is_round_tripped(self):
        import lgraph
        public = {value for value in map(lgraph.__dict__.get, lgraph.__all__)
                  if isinstance(value, type) and issubclass(value, Error)}
        assert {type(make()) for make in _ERRORS.values()} == public

from collections import Counter

import pytest
from hypothesis import given, settings

from lgraph import (LogicalGraph, NotASubgraphByName, NotWellFormed, RawGraph,
                    add, alpha_equiv, conclusions, empty, implies,
                    induced_subgraph, parse, rename_graph, singleton,
                    subtract, to_graph, validate, vertex_equivalent)
from strategies import dag_graphs, valid_graphs
from util import G, L, LG, V, names


def label_counts(g):
    return Counter(g.labelling.values())


class TestUnits:
    def test_empty_has_no_conclusions(self):
        assert conclusions(empty()) == ()
        assert isinstance(empty(), LogicalGraph)

    def test_singleton(self):
        g = singleton(L("p"))
        assert g == G("v0:p")
        assert names(conclusions(g)) == ["v0"]
        assert isinstance(g, LogicalGraph)

    def test_singletons_of_equal_labels_are_equivalent(self):
        assert alpha_equiv(singleton(L("p")), singleton(L("p"))) is not None


class TestVertexEquivalent:
    def test_edges_are_ignored(self):
        g = G("a:p b:q", "a>b")
        assert vertex_equivalent(g, G("a:p b:q"))

    def test_names_matter(self):
        assert not vertex_equivalent(G("a:p"), G("b:p"))

    def test_empty_vs_empty(self):
        assert vertex_equivalent(empty(), G(""))


class TestAdd:
    def test_same_label_singletons_stay_distinct(self):
        s = add(singleton(L("p")), singleton(L("p")))
        assert s.graph == G("v0:p v1:p")

    def test_unit_law(self):
        h = LG("a b c", "a>b a>c")
        assert alpha_equiv(add(empty(), h).graph, h) is not None
        assert alpha_equiv(add(h, empty()).graph, h) is not None

    def test_injections_partition_the_sum(self):
        h = G("v0:p v1:q", "v0>v1")
        k = G("v0:r v1:p", "v0>v1")
        s = add(h, k)
        img1 = set(s.inj1.values())
        img2 = set(s.inj2.values())
        assert img1.isdisjoint(img2)
        assert img1 | img2 == set(s.graph.vertices())
        for v, w in s.inj1.items():
            assert h.labelling[v] == s.graph.labelling[w]
        for v, w in s.inj2.items():
            assert k.labelling[v] == s.graph.labelling[w]
        assert s.inj2 == {v: v for v in k.vertices()}

    def test_edges_carried_through_injections(self):
        h = G("v0:p v1:q", "v0>v1")
        k = G("v0:r v1:s", "v1>v0")
        s = add(h, k)
        expected = {(s.inj1[a], s.inj1[b]) for a, b in h.edges} | set(k.edges)
        assert s.graph.edges == expected

    def test_valid_operands_promote(self):
        s = add(LG("p q", "p>q"), LG("a b", "a>b"))
        assert isinstance(s.graph, LogicalGraph)
        # the promotion claim holds up under a from-scratch validation
        validate(RawGraph(s.graph.labelling, s.graph.edges))

    def test_raw_operand_stays_raw(self):
        s = add(G("a:p"), to_graph(parse("p -o (a -o b) * c")))
        assert not isinstance(s.graph, LogicalGraph)

    @given(valid_graphs(), valid_graphs())
    @settings(max_examples=60)
    def test_commutative_up_to_iso(self, h, k):
        assert alpha_equiv(add(h, k).graph, add(k, h).graph) is not None

    @given(valid_graphs(), valid_graphs(), valid_graphs())
    @settings(max_examples=40)
    def test_associative_up_to_iso(self, g, h, k):
        left = add(add(g, h).graph, k).graph
        right = add(g, add(h, k).graph).graph
        assert alpha_equiv(left, right) is not None

    @given(dag_graphs(), dag_graphs())
    @settings(max_examples=60)
    def test_label_multiset_is_additive(self, h, k):
        assert label_counts(add(h, k).graph) == label_counts(h) + label_counts(k)


class TestSubtract:
    def test_removes_named_tail(self):
        h = G("p q r", "p>q q>r")
        assert subtract(h, induced_subgraph(h, [V("r")])) == G("p q", "p>q")

    def test_self_subtraction_is_exactly_empty(self):
        h = G("f g a b c d e", "f>g a>b a>c b>e c>e d>e")
        assert subtract(h, h) == empty()

    def test_missing_vertex_errors(self):
        with pytest.raises(NotASubgraphByName):
            subtract(G("a:p"), G("b:p"))

    def test_label_disagreement_errors(self):
        with pytest.raises(NotASubgraphByName):
            subtract(G("a:p"), G("a:q"))

    def test_renamed_first_operand_recovers_second(self):
        h = LG("v0:p v1:q", "v0>v1")
        k = LG("v0:r v1:p", "v0>v1")
        s = add(h, k)
        assert alpha_equiv(subtract(s.graph, rename_graph(h, s.inj1)), k) \
            is not None

    def test_second_operand_recovers_first(self):
        h = LG("v0:p v1:q", "v0>v1")
        k = LG("v0:r v1:p", "v0>v1")
        s = add(k, h)
        assert alpha_equiv(subtract(s.graph, h), k) is not None

    def test_name_sensitivity_witness(self):
        # With overlapping names, subtracting the unrenamed operand removes
        # the wrong copy: the survivor is edgeless while k has an edge.
        h = G("v0:p")
        k = G("v0:p v1:q", "v0>v1")
        s = add(h, k)
        survivor = subtract(s.graph, h)
        assert survivor == G("v1:q v2:p")
        assert alpha_equiv(survivor, k) is None

    @given(dag_graphs())
    def test_removes_every_edge_touching_the_named_vertices(self, h):
        # The paper's definition, edge by edge, against the built graph.
        k = induced_subgraph(h, h.vertices()[::2])
        got = subtract(h, k)
        assert got.labelling == {v: l for v, l in h.labelling.items()
                                 if v not in k}
        assert got.edges == {(s, d) for s, d in h.edges
                             if s not in k and d not in k}
        assert got._sorted_edges == tuple(sorted(got.edges))
        assert type(got) is RawGraph

    @given(valid_graphs(), valid_graphs())
    @settings(max_examples=60)
    def test_sum_minus_renamed_left_is_right_exactly(self, h, k):
        s = add(h, k)
        assert subtract(s.graph, rename_graph(h, s.inj1)) == k


class TestImplies:
    def test_single_conclusions_get_one_edge(self):
        s = implies(singleton(L("p")), singleton(L("q")))
        assert s.graph == G("v0:q v1:p", "v1>v0")

    def test_chain_from_nested_implication(self):
        chain = implies(to_graph(parse("p -o q")), singleton(L("r"))).graph
        assert validate(chain)
        assert alpha_equiv(chain, to_graph(parse("(p -o q) -o r"))) is not None

    def test_multi_conclusion_target_breaks_wellformedness(self):
        target = validate(to_graph(parse("(a -o b) * c")))
        s = implies(singleton(L("p")), target)
        assert s.graph == G("v0:c v1:a v2:b v3:p", "v1>v2 v3>v0 v3>v2")
        with pytest.raises(NotWellFormed):
            validate(s.graph)

    def test_result_is_never_promoted(self):
        s = implies(LG("a:p"), LG("b:q"))
        assert type(s.graph).__name__ == "RawGraph"

    @given(valid_graphs(), valid_graphs())
    @settings(max_examples=60)
    def test_adds_exactly_the_conclusion_product(self, h, k):
        plain = add(h, k)
        arrowed = implies(h, k)
        extra = arrowed.graph.edges - plain.graph.edges
        assert len(extra) == len(conclusions(h)) * len(conclusions(k))
        assert plain.graph.edges <= arrowed.graph.edges
        expected = {(arrowed.inj1[v], arrowed.inj2[w])
                    for v in conclusions(h) for w in conclusions(k)}
        assert extra == expected - plain.graph.edges

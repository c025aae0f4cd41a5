import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import refimpl
from lgraph import (CyclicEdges, LabelId, RawGraph, UnknownVertex, VertexId,
                    alpha_equiv, alpha_equiv_all, mk_graph_iso, naive_iso,
                    parse, rename_apart, rename_graph, to_graph,
                    vertex_match_perms)
from lgraph.mill import Atom, Lolli, Tensor
from strategies import dag_graphs, valid_graphs
from util import G, L, V, flat_tensor

# Two same-labelled premises into one conclusion: the smallest graph with
# a nontrivial symmetry (exactly two automorphisms).
FORK = G("v1:p v2:p v0:q", "v1>v0 v2>v0")
CHAIN = G("x:p y:q z:r", "x>y y>z")


def frozen(maps):
    return {frozenset(m.items()) for m in maps}


def closure_embedding_ok(m, g1, g2, start):
    """Soundness: injective, label-preserving, forward-edge-preserving on
    the backward closure of start."""
    closure = refimpl.up_closure(g1, [start])
    if set(m) != closure:
        return False
    if len(set(m.values())) != len(m):
        return False
    if any(g1.labelling[v] != g2.labelling[w] for v, w in m.items()):
        return False
    return all((m[s], m[d]) in g2.edges
               for s, d in g1.edges if s in closure and d in closure)


class TestVertexMatchPerms:
    def test_two_symmetric_assignments(self):
        got = vertex_match_perms(FORK, [V("v1"), V("v2")],
                                 FORK, [V("v1"), V("v2")],
                                 {V("v0"): V("v0")})
        assert frozen(got) == {
            frozenset({(V("v0"), V("v0")), (V("v1"), V("v1")), (V("v2"), V("v2"))}),
            frozenset({(V("v0"), V("v0")), (V("v1"), V("v2")), (V("v2"), V("v1"))}),
        }
        # lexicographic by assignment: identity first
        assert got[0][V("v1")] == V("v1")

    def test_label_mismatch_gives_nothing(self):
        g1 = G("a:p")
        g2 = G("b:q")
        assert vertex_match_perms(g1, [V("a")], g2, [V("b")], {}) == []

    def test_empty_assumptions_keep_map(self):
        m = {V("x"): V("x")}
        assert vertex_match_perms(CHAIN, [], CHAIN, [], m) == [m]

    def test_mapped_member_outside_target_fails(self):
        m = {V("v1"): V("v0")}
        assert vertex_match_perms(FORK, [V("v1")], FORK, [V("v1"), V("v2")], m) == []

    def test_does_not_reuse_taken_images(self):
        m = {V("v1"): V("v2")}
        got = vertex_match_perms(FORK, [V("v2")], FORK, [V("v1"), V("v2")], m)
        assert frozen(got) == {frozenset({(V("v1"), V("v2")), (V("v2"), V("v1"))})}


class TestMkGraphIso:
    def test_fork_has_two_isomorphisms(self):
        got = mk_graph_iso(FORK, V("v0"), FORK, V("v0"))
        assert frozen(got) == frozen(naive_iso(FORK, FORK))
        assert len(got) == 2

    def test_chain_identity_only(self):
        got = mk_graph_iso(CHAIN, V("z"), CHAIN, V("z"))
        assert got == [{V("x"): V("x"), V("y"): V("y"), V("z"): V("z")}]

    def test_label_mismatch(self):
        assert mk_graph_iso(CHAIN, V("x"), CHAIN, V("y")) == []

    def test_unknown_vertices(self):
        with pytest.raises(UnknownVertex):
            mk_graph_iso(CHAIN, V("zz"), CHAIN, V("z"))
        with pytest.raises(UnknownVertex):
            mk_graph_iso(CHAIN, V("z"), CHAIN, V("zz"))

    def test_partial_embedding_of_isolated_vertex(self):
        # The closure of an isolated vertex is itself, so any same-label
        # vertex is a legitimate embedding target even when no global
        # isomorphism sends it there.
        g = to_graph(parse("p * (p -o q)"))
        isolated = next(v for v in g.vertices()
                        if not g._preds[v] and not g._succs[v])
        other = next(v for v in g.vertices()
                     if g.labelling[v] == L("p") and v != isolated)
        maps = mk_graph_iso(g, isolated, g, other)
        assert maps == [{isolated: other}]

    def test_seed_conflicts_give_nothing(self):
        assert mk_graph_iso(FORK, V("v0"), FORK, V("v0"),
                            seed={V("v0"): V("v1")}) == []
        assert mk_graph_iso(FORK, V("v0"), FORK, V("v0"),
                            seed={V("v1"): V("v0")}) == []

    @given(valid_graphs())
    @settings(max_examples=60)
    def test_sound_and_complete_against_naive(self, g):
        whole = naive_iso(g, g)
        for v1 in g.vertices():
            closure = refimpl.up_closure(g, [v1])
            for v2 in g.vertices():
                if g.labelling[v1] != g.labelling[v2]:
                    continue
                maps = mk_graph_iso(g, v1, g, v2)
                # soundness: every map embeds the closure
                for m in maps:
                    assert closure_embedding_ok(m, g, g, v1)
                # no duplicates
                assert len(frozen(maps)) == len(maps)
                # completeness: every global isomorphism sending v1 to v2
                # restricts to one of the returned maps
                restricted = {
                    frozenset((v, m[v]) for v in closure)
                    for m in whole if m[v1] == v2
                }
                assert restricted <= frozen(maps)
                # and when the closure is the whole graph, exactly those
                if len(closure) == len(g):
                    total = {frozenset(m.items())
                             for m in maps if len(m) == len(g)}
                    assert total == restricted


class TestAlphaEquiv:
    def test_curried_and_uncurried_forms_match(self):
        g1 = to_graph(parse("(p1 * p2) -o q"))
        g2 = to_graph(parse("p2 -o (p1 -o q)"))
        m = alpha_equiv(g1, g2)
        assert m is not None
        assert {(g1.labelling[v], g2.labelling[w]) for v, w in m.items()} == \
            {(L("p1"), L("p1")), (L("p2"), L("p2")), (L("q"), L("q"))}

    def test_renaming_is_an_isomorphism(self):
        g = G("f g a b c d e", "f>g a>b a>c b>e c>e d>e")
        renamed, mapping = rename_apart(g, g.vertices())
        assert alpha_equiv(g, renamed) == mapping

    def test_direction_matters(self):
        assert alpha_equiv(G("a:p b:q", "a>b"), G("a:p b:q", "b>a")) is None

    def test_label_multiset_quick_reject(self):
        assert alpha_equiv(G("a:p"), G("a:q")) is None

    def test_cyclic_inputs_raise(self):
        cyc = G("u:p w:p", "u>w w>u")
        with pytest.raises(CyclicEdges):
            alpha_equiv(cyc, cyc)

    def test_cyclic_with_label_mismatch_still_rejects_quickly(self):
        assert alpha_equiv(G("u:p w:p", "u>w w>u"), G("u:p w:q", "u>w w>u")) \
            is None

    @given(valid_graphs())
    @settings(max_examples=80)
    def test_reflexive(self, g):
        assert alpha_equiv(g, g) is not None

    @given(valid_graphs(), valid_graphs())
    @settings(max_examples=80)
    def test_symmetric_with_invertible_witness(self, g, h):
        m = alpha_equiv(g, h)
        back = alpha_equiv(h, g)
        assert (m is None) == (back is None)
        if m is not None:
            inverse = {w: v for v, w in m.items()}
            assert refimpl.ref_all_isos(h, g)  # sanity: some iso exists
            assert {(inverse[s], inverse[d]) for s, d in h.edges} == g.edges

    @given(valid_graphs(), valid_graphs(), valid_graphs())
    @settings(max_examples=40)
    def test_transitive_by_composition(self, a, b, c):
        ab = alpha_equiv(a, b)
        bc = alpha_equiv(b, c)
        if ab is not None and bc is not None:
            composed = {v: bc[w] for v, w in ab.items()}
            assert {(composed[s], composed[d]) for s, d in a.edges} == c.edges
            assert alpha_equiv(a, c) is not None

    @given(dag_graphs(max_vertices=5), dag_graphs(max_vertices=5))
    @settings(max_examples=120)
    def test_agrees_with_exhaustive_reference(self, g, h):
        assert (alpha_equiv(g, h) is not None) == bool(refimpl.ref_all_isos(g, h))

    @given(dag_graphs(max_vertices=5))
    @settings(max_examples=80)
    def test_all_matches_exhaustive_reference(self, g):
        assert frozen(alpha_equiv_all(g, g)) == frozen(refimpl.ref_all_isos(g, g))
        assert len(alpha_equiv_all(g, g)) == len(frozen(alpha_equiv_all(g, g)))


def test_exhaustive_small_structures_agree_with_reference():
    # every pair of 3-vertex digraph structures over a fixed two-label
    # labelling, against the permutation oracle
    verts = [V("m0"), V("m1"), V("m2")]
    labelling = {verts[0]: L("p"), verts[1]: L("p"), verts[2]: L("q")}
    pairs = [(a, b) for a in verts for b in verts if a is not b]
    graphs = []
    for bits in itertools.product([False, True], repeat=len(pairs)):
        edges = [e for e, keep in zip(pairs, bits) if keep]
        graphs.append(RawGraph(labelling, edges))
    acyclic = [g for g in graphs if refimpl.ref_acyclic(*refimpl.plain(g))]
    assert len(acyclic) > 20
    for g in acyclic[::3]:
        for h in acyclic[::5]:
            assert (alpha_equiv(g, h) is not None) == \
                bool(refimpl.ref_all_isos(g, h))


@st.composite
def renamed_copies(draw, graphs=dag_graphs()):
    """A graph and a copy under a random bijection onto fresh names."""
    g = draw(graphs)
    names = draw(st.permutations([f"r{i}" for i in range(len(g))]))
    return g, rename_graph(g, {v: VertexId(n)
                               for v, n in zip(g.vertices(), names)})


# DAGs over one label or two, so that the candidate buckets of the search
# are big and shared.
few_label_dags = st.one_of(
    dag_graphs(labels=st.just(LabelId("p"))),
    dag_graphs(labels=st.sampled_from([LabelId("p"), LabelId("q")])))


class TestSameOrderAsListSearch:
    """The lazy search returns the list-based search's maps, in its order.

    The first map is the witness ``lg iso`` and ``lg equiv`` print, so the
    comparison is of whole lists.  DAGs only: the list-based search never
    returns on a cyclic graph.
    """

    @staticmethod
    def assert_same_isomorphisms(g, h):
        assert alpha_equiv_all(g, h) == refimpl.ref_alpha_equiv_all(g, h)
        assert alpha_equiv(g, h) == refimpl.ref_alpha_equiv(g, h)

    @given(dag_graphs(), dag_graphs())
    @settings(max_examples=150)
    def test_dag_pairs(self, g, h):
        self.assert_same_isomorphisms(g, h)
        self.assert_same_isomorphisms(g, g)

    @given(valid_graphs(), valid_graphs())
    @settings(max_examples=100)
    def test_valid_graph_pairs(self, g, h):
        self.assert_same_isomorphisms(g, h)

    @given(renamed_copies())
    @settings(max_examples=150)
    def test_renamed_shuffled_copies(self, pair):
        g, h = pair
        self.assert_same_isomorphisms(g, h)
        self.assert_same_isomorphisms(h, g)

    @given(renamed_copies(valid_graphs()))
    @settings(max_examples=60)
    def test_renamed_shuffled_valid_copies(self, pair):
        self.assert_same_isomorphisms(*pair)

    @given(dag_graphs(), dag_graphs(), st.data())
    @settings(max_examples=80)
    def test_every_mk_graph_iso_call(self, g, h, data):
        for g2 in (g, h):
            images = data.draw(st.lists(st.sampled_from(g2.vertices()),
                                        min_size=len(g), max_size=len(g))
                               if g2.vertices() else st.just([]))
            for v1, v2 in itertools.product(g.vertices(), g2.vertices()):
                assert mk_graph_iso(g, v1, g2, v2) == \
                    refimpl.ref_mk_graph_iso(g, v1, g2, v2)
                for s1, s2 in zip(g.vertices(), images):
                    seed = {s1: s2}
                    assert mk_graph_iso(g, v1, g2, v2, seed) == \
                        refimpl.ref_mk_graph_iso(g, v1, g2, v2, seed)

    @given(renamed_copies(few_label_dags), few_label_dags)
    @settings(max_examples=100)
    def test_every_map_is_an_isomorphism(self, pair, other):
        g, h = pair
        for g2 in (g, h, other):
            for m in alpha_equiv_all(g, g2):
                assert refimpl._ref_verified(m, g, g2)

    @given(few_label_dags, few_label_dags)
    @settings(max_examples=100)
    def test_few_labels(self, g, h):
        self.assert_same_isomorphisms(g, h)
        self.assert_same_isomorphisms(g, g)
        for g2 in (g, h):
            for v1, v2 in itertools.product(g.vertices(), g2.vertices()):
                assert mk_graph_iso(g, v1, g2, v2) == \
                    refimpl.ref_mk_graph_iso(g, v1, g2, v2)

    @given(renamed_copies(), st.data())
    @settings(max_examples=150)
    def test_vertex_match_perms_calls(self, pair, data):
        g, h = pair
        vs1, vs2 = list(g.vertices()), list(h.vertices())
        asms1 = data.draw(st.lists(st.sampled_from(vs1), max_size=6)
                          if vs1 else st.just([]))
        asms2 = data.draw(st.lists(st.sampled_from(vs2), max_size=6)
                          if vs2 else st.just([]))
        m = data.draw(st.dictionaries(st.sampled_from(vs1),
                                      st.sampled_from(vs2), max_size=3)
                      if vs1 else st.just({}))
        assert vertex_match_perms(g, asms1, h, asms2, m) == \
            refimpl.ref_vertex_match_perms(g, asms1, h, asms2, m)


def _star(leaves, same_label):
    """One conclusion z with the given number of premises."""
    tips = [VertexId(f"t{i:05d}") for i in range(leaves)]
    labelling = {t: LabelId("p" if same_label else f"p{i}")
                 for i, t in enumerate(tips)}
    labelling[VertexId("z")] = LabelId("z")
    return RawGraph(labelling, [(t, VertexId("z")) for t in tips])


def test_star_maps_come_in_permutation_order():
    # Hundreds of complete backtracks through one bucket of same-label
    # candidates, against an order that owes nothing to the search.
    star, z = _star(6, same_label=True), VertexId("z")
    tips = [v for v in star.vertices() if v != z]  # ascending
    assert alpha_equiv_all(star, star) == [
        {z: z, **dict(zip(tips, images))}
        for images in itertools.permutations(tips)]
    rest = [t for t in tips if t != tips[3]]
    assert mk_graph_iso(star, z, star, z, {tips[0]: tips[3]}) == [
        {z: z, tips[0]: tips[3], **dict(zip(tips[1:], images))}
        for images in itertools.permutations(rest)]


class TestTrailingRun:
    """The last choices from one pool with one key meet no check, so the
    search lists them as permutations: checked against orders built from
    itertools and against the list-based search."""

    POOL = [V(f"w{i}") for i in range(5)]

    @staticmethod
    def graphs(members, pool):
        return (G(" ".join(f"{v}:p" for v in members)),
                G(" ".join(f"{v}:p" for v in pool)))

    def test_members_into_a_larger_pool(self):
        members = [V("a"), V("b"), V("c")]
        g1, g2 = self.graphs(members, self.POOL)
        got = vertex_match_perms(g1, members, g2, self.POOL, {})
        assert len(got) == 60
        assert got == [dict(zip(members, images))
                       for images in itertools.permutations(self.POOL, 3)]

    def test_more_members_than_pool_vertices(self):
        members = [V(name) for name in "abcd"]
        g1, g2 = self.graphs(members, self.POOL[:3])
        assert vertex_match_perms(g1, members, g2, self.POOL[:3], {}) == []

    def test_a_vertex_the_seed_takes_is_skipped(self):
        members = [V("a"), V("b")]
        g1, g2 = self.graphs([*members, V("c")], self.POOL)
        seed = {V("c"): self.POOL[2]}
        free = [w for w in self.POOL if w != self.POOL[2]]
        assert vertex_match_perms(g1, members, g2, self.POOL, seed) == [
            {**seed, **dict(zip(members, images))}
            for images in itertools.permutations(free, 2)]

    def test_only_the_same_label_suffix_is_a_run(self):
        # Name order a, b, c, d with labels q, p, p, p: the run is b, c, d.
        g1 = G("a:q b:p c:p d:p")
        g2 = G("w0:p w1:q w2:p w3:p w4:p w5:q")
        members, pool = list(g1.vertices()), list(g2.vertices())
        got = vertex_match_perms(g1, members, g2, pool, {})
        assert len(got) == 2 * 4 * 3 * 2
        assert got == refimpl.ref_vertex_match_perms(g1, members, g2, pool,
                                                     {})

    @pytest.mark.parametrize("leaves", [1, 2, 7])
    def test_star_and_a_renamed_copy(self, leaves):
        star, z = _star(leaves, same_label=True), V("z")
        tips = [V(f"t{i:05d}") for i in range(leaves)]
        images = [V(f"s{i}") for i in range(leaves)]
        copy = RawGraph({**{v: L("p") for v in images}, V("a"): L("z")},
                        [(v, V("a")) for v in reversed(images)])
        assert alpha_equiv_all(star, copy) == [
            {z: V("a"), **dict(zip(tips, perm))}
            for perm in itertools.permutations(images)]

    def test_nested_stars_alternate_the_run_and_the_loop(self):
        # z has three p leaves, each with two p premises: the loop chooses
        # the leaves and the first leaves' premises, the run the last two.
        leaves = [f"l{i}" for i in range(3)]
        premises = [f"{v}{side}" for v in leaves for side in "ab"]
        g = G(" ".join(f"{v}:p" for v in [*leaves, *premises]) + " z:q",
              " ".join(f"{v}>z" for v in leaves)
              + " " + " ".join(f"{v}>{v[:2]}" for v in premises))
        got = alpha_equiv_all(g, g)
        assert len(got) == 6 * 2 ** 3
        assert got == refimpl.ref_alpha_equiv_all(g, g)


def _layered(levels):
    """((a0 * b0) -o (a1 * b1)) -o ...: each pair implies the next pair, so
    the number of paths doubles with each level."""
    def pair(i):
        return Tensor(Atom(LabelId(f"a{i}")), Atom(LabelId(f"b{i}")))
    f = pair(0)
    for i in range(1, levels):
        f = Lolli(f, pair(i))
    return to_graph(f)


def _timed_self_iso(g):
    started = time.perf_counter()
    m = alpha_equiv(g, g)
    took = time.perf_counter() - started
    assert m is not None
    return took


class TestTotality:
    CYCLE = G("u:p w:p z:q", "u>w w>u w>z")

    def test_cycle_above_a_conclusion_raises(self):
        with pytest.raises(CyclicEdges):
            alpha_equiv(self.CYCLE, self.CYCLE)
        with pytest.raises(CyclicEdges):
            alpha_equiv_all(self.CYCLE, self.CYCLE)

    def test_cycle_is_found_before_the_colours_differ(self):
        # Past the quick rejects a cyclic g1 raises, although the colour
        # histograms alone would already answer no.
        acyclic = G("a:p b:p z:q", "a>z b>z a>b")
        with pytest.raises(CyclicEdges):
            alpha_equiv(self.CYCLE, acyclic)
        with pytest.raises(CyclicEdges):
            alpha_equiv_all(self.CYCLE, acyclic)

    def test_minimal_counts_reject_before_the_cycle_check(self):
        # Same vertex, edge and label counts; one minimal vertex against
        # two, so the answer is no before the cycle of g1 is looked for.
        cyclic = G("u:p w:p y:p z:q", "u>w w>u w>z y>z")
        acyclic = G("a:p b:p c:p z:q", "a>b a>z c>b c>z")
        assert alpha_equiv(cyclic, acyclic) is None
        assert alpha_equiv_all(cyclic, acyclic) == []

    def test_vertex_match_perms_names_an_unknown_member(self):
        for asms1, asms2, unknown in (([V("zz")], [V("x")], V("zz")),
                                      ([V("x")], [V("zz")], V("zz")),
                                      ([V("x"), V("y")], [V("y"), V("ww")],
                                       V("ww"))):
            with pytest.raises(UnknownVertex) as raised:
                vertex_match_perms(CHAIN, asms1, CHAIN, asms2, {})
            assert raised.value.vertex == unknown

    def test_vertex_match_perms_names_an_unknown_mapped_member(self):
        with pytest.raises(UnknownVertex) as raised:
            vertex_match_perms(CHAIN, [V("zz")], CHAIN, [V("x")],
                               {V("zz"): V("x")})
        assert raised.value.vertex == V("zz")
        with pytest.raises(UnknownVertex) as raised:
            vertex_match_perms(CHAIN, [V("x")], CHAIN, [V("x"), V("zz")],
                               {V("x"): V("x")})
        assert raised.value.vertex == V("zz")

    def test_a_map_naming_an_unknown_vertex_raises(self):
        # A key outside g1 or a value outside g2 is named, not taken as a
        # constraint that no extension meets.
        x, z = V("x"), V("z")
        for call, unknown in (
                (lambda: mk_graph_iso(CHAIN, z, CHAIN, z, {V("zz"): x}), "zz"),
                (lambda: mk_graph_iso(CHAIN, z, CHAIN, z, {x: V("ww")}), "ww"),
                (lambda: vertex_match_perms(CHAIN, [x], CHAIN, [x],
                                            {V("qq"): x}), "qq"),
                (lambda: vertex_match_perms(CHAIN, [x], CHAIN, [x],
                                            {x: V("ww")}), "ww")):
            with pytest.raises(UnknownVertex) as raised:
                call()
            assert raised.value.vertex == V(unknown)

    def test_a_map_names_its_first_unknown_vertex(self):
        # In the map's order, a key before its value; the labels of v1 and
        # v2 differ, but the map is checked before the search answers no.
        m = {V("y"): V("y"), V("k1"): V("k2"), V("x"): V("k3")}
        with pytest.raises(UnknownVertex) as raised:
            mk_graph_iso(CHAIN, V("z"), CHAIN, V("y"), m)
        assert raised.value.vertex == V("k1")
        m = {V("y"): V("k2"), V("k1"): V("x")}
        with pytest.raises(UnknownVertex) as raised:
            vertex_match_perms(CHAIN, [V("x")], CHAIN, [V("x")], m)
        assert raised.value.vertex == V("k2")

    def test_vertex_match_perms_mapped_member_outside_the_pool(self):
        # v1 alone could take either premise, but v2, mapped and sorted
        # after it, lands outside the pool: no extension at all.
        m = {V("v2"): V("v0")}
        assert vertex_match_perms(FORK, [V("v1"), V("v2")], FORK,
                                  [V("v1"), V("v2")], m) == []

    def test_mk_graph_iso_ends_on_a_cycle(self):
        maps = mk_graph_iso(self.CYCLE, V("z"), self.CYCLE, V("z"))
        assert maps == [{V("z"): V("z"), V("w"): V("w"), V("u"): V("u")}]

    def test_paths_doubling_per_level(self):
        g = _layered(40)
        assert len(g) == 80
        assert _timed_self_iso(g) < 0.5

    def test_star_of_same_label_leaves(self):
        assert _timed_self_iso(_star(12, same_label=True)) < 0.5

    def test_wide_star_of_distinct_leaves(self):
        assert _timed_self_iso(_star(1_500, same_label=False)) < 2.0

    def test_long_tensor_chain(self):
        g = to_graph(flat_tensor([LabelId(f"a{i}") for i in range(1_500)]))
        assert len(g) == 1_500
        assert _timed_self_iso(g) < 2.0


def _nested_cliques(rng, size, labels):
    """A graph in the fragment with size vertices, built as nested
    conclusion cliques: each level has at most two vertices without
    premises and any number of cliques whose premises are the conclusions
    of a nested graph.  Labels are drawn with replacement, so same-label
    siblings, which the search branches on, are common."""
    labelling, edges = {}, []

    def vertices(count):
        made = [VertexId(f"v{len(labelling) + i}") for i in range(count)]
        labelling.update((v, rng.choice(labels)) for v in made)
        return made

    def build(budget):
        level = vertices(rng.randint(0, min(2, budget)))
        budget -= len(level)
        while budget > 0:
            if budget == 1:
                return level + vertices(1)
            size = rng.randint(1, min(3, budget - 1))
            nested = rng.randint(1, budget - size)
            premises = build(nested)
            clique = vertices(size)
            edges.extend((p, c) for p in premises for c in clique)
            level += clique
            budget -= size + nested
        return level

    build(size)
    return RawGraph(labelling, edges)


def _label_swap_twin(rng, g):
    """g, renamed, with the labels of two vertices exchanged whose labels
    and (in-degree, out-degree) pairs both differ, or None."""
    vs = g.vertices()
    for _ in range(100):
        u, w = rng.sample(vs, 2)
        if g.labelling[u] != g.labelling[w] and \
                (len(g._preds[u]), len(g._succs[u])) != \
                (len(g._preds[w]), len(g._succs[w])):
            labelling = dict(g.labelling)
            labelling[u], labelling[w] = labelling[w], labelling[u]
            names = [VertexId(f"w{i}") for i in range(len(vs))]
            rng.shuffle(names)
            return rename_graph(RawGraph(labelling, g.edges),
                                dict(zip(vs, names)))
    return None


def test_label_swapped_twins_are_rejected_quickly():
    # The quick rejects pass (the label multiset is the same), and
    # backtracking over same-label siblings took up to 17 s a pair, 44 s
    # for all 300.  The swapped pair's degrees differ, so colours tell each
    # pair apart before the search starts.
    rng = random.Random(60)
    labels = [LabelId(f"l{i}") for i in range(5)]
    worst, rejected = 0.0, 0
    while rejected < 300:
        g = _nested_cliques(rng, 60, labels)
        twin = _label_swap_twin(rng, g)
        if twin is None:
            continue
        assert sorted(g.labelling.values()) == sorted(twin.labelling.values())
        started = time.perf_counter()
        assert alpha_equiv(g, twin) is None
        worst = max(worst, time.perf_counter() - started)
        rejected += 1
    assert worst < 0.05, f"slowest reject took {worst * 1000:.1f} ms"

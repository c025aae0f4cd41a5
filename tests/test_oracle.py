import time

import pytest
from hypothesis import given, settings

import refimpl
from lgraph import (Atom, BoundsTooLarge, Lolli, NotInFragment, Tensor, Unit,
                    alpha_equiv, enumerate_formulas, naive_iso, normalize,
                    parse, print_formula, rewrite_variants, to_graph,
                    validate)
from lgraph.core import Error
from lgraph.oracle import _per_level, count_formulas
from strategies import dag_graphs, formulas
from util import G, L, V

P, Q = L("p"), L("q")


class TestNaiveIso:
    def test_symmetric_fork_has_two(self):
        fork = G("v1:p v2:p v0:q", "v1>v0 v2>v0")
        maps = naive_iso(fork, fork)
        assert len(maps) == 2

    def test_labelled_chain_has_one(self):
        chain = G("x:p y:q z:r", "x>y y>z")
        assert naive_iso(chain, chain) == \
            [{V("x"): V("x"), V("y"): V("y"), V("z"): V("z")}]

    def test_direction_matters(self):
        assert naive_iso(G("a:p b:q", "a>b"), G("a:p b:q", "b>a")) == []

    def test_size_mismatch(self):
        assert naive_iso(G("a:p"), G("a:p b:p")) == []

    def test_deterministic_order(self):
        fork = G("v1:p v2:p v0:q", "v1>v0 v2>v0")
        assert naive_iso(fork, fork) == naive_iso(fork, fork)

    @given(dag_graphs(max_vertices=5), dag_graphs(max_vertices=5))
    @settings(max_examples=100)
    def test_matches_full_permutation_search(self, g, h):
        ours = {frozenset(m.items()) for m in naive_iso(g, h)}
        theirs = {frozenset(m.items()) for m in refimpl.ref_all_isos(g, h)}
        assert ours == theirs


class TestEnumerateFormulas:
    def test_leaves_only(self):
        assert enumerate_formulas([P], 0) == [Unit(), Atom(P)]

    def test_one_connective_count(self):
        got = enumerate_formulas([P], 1)
        assert len(got) == 10  # 2 leaves + 2 ops * 2 * 2 leaf pairs

    def test_exhaustive_and_duplicate_free(self):
        got = enumerate_formulas([P, Q], 3)
        assert len(got) == len(set(got)) == count_formulas(2, 3)
        assert Lolli(Tensor(Atom(P), Atom(Q)), Unit()) in got

    def test_deterministic(self):
        assert enumerate_formulas([P, Q], 2) == enumerate_formulas([P, Q], 2)

    def test_duplicate_atoms_collapse(self):
        assert enumerate_formulas([P, P], 0) == [Unit(), Atom(P)]

    def test_refuses_oversized_requests(self):
        with pytest.raises(BoundsTooLarge):
            enumerate_formulas([P, Q, L("r")], 6)
        # a raised cap admits what the default refuses
        assert enumerate_formulas([P], 2, max_count=10**9)

    def test_refuses_a_huge_bound_at_once(self):
        # The count stops at the first level past the cap, so the total up
        # to 10**6 connectives, which has too many digits to print, is never
        # worked out.
        start = time.perf_counter()
        with pytest.raises(BoundsTooLarge, match=r"^more than 2000000 "):
            enumerate_formulas([P], 10**6)
        assert time.perf_counter() - start < 1

    def test_refuses_a_cap_of_thousands_of_digits_at_once(self):
        # Each level's count is one small multiply and divide of the last,
        # so even a cap that a 3,327-connective level first passes is met
        # in a few thousand cheap steps.
        start = time.perf_counter()
        with pytest.raises(BoundsTooLarge):
            enumerate_formulas([P], 10**5, max_count=int("9" * 4000))
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("n_atoms", range(5))
    def test_level_counts_match_the_convolution(self, n_atoms):
        # A formula with c connectives is a Tensor or a Lolli over a split
        # i + (c - 1 - i) of the rest; one with none is 1 or an atom.
        want = [n_atoms + 1]
        for c in range(1, 41):
            want.append(2 * sum(want[i] * want[c - 1 - i] for i in range(c)))
        assert list(_per_level(n_atoms, 40)) == want

    def test_count_formula_matches_enumeration(self):
        for atoms, c in [([P], 2), ([P, Q], 2), ([P, Q], 3)]:
            assert len(enumerate_formulas(atoms, c)) == \
                count_formulas(len(atoms), c)


class TestRewriteVariants:
    def test_atom_is_a_fixed_point(self):
        assert rewrite_variants(Atom(P), 4) == {Atom(P)}

    def test_unit_is_a_fixed_point(self):
        assert rewrite_variants(Unit(), 4) == {Unit()}

    def test_depth_two_reaches_all_curried_variants(self):
        variants = rewrite_variants(parse("(p1 * p2) -o q"), 2)
        for text in ["(p1 * p2) -o q", "(p2 * p1) -o q",
                     "p2 -o (p1 -o q)", "p1 -o (p2 -o q)"]:
            assert parse(text) in variants

    def test_unit_laws_collapse_only(self):
        # commutation and collapse, but never expansion back into units
        assert rewrite_variants(parse("1 * p"), 3) == \
            {parse("1 * p"), parse("p * 1"), Atom(P)}

    def test_unit_consequent_currying_is_withheld(self):
        variants = rewrite_variants(parse("(p * q) -o 1"), 3)
        assert parse("p -o (q -o 1)") not in variants
        variants = rewrite_variants(parse("p -o (q -o 1)"), 3)
        assert parse("(p * q) -o 1") not in variants

    def test_currying_applies_when_consequent_has_atoms(self):
        variants = rewrite_variants(parse("(p * q) -o (1 * r)"), 1)
        assert parse("p -o (q -o (1 * r))") in variants

    def test_depth_zero_is_just_the_formula(self):
        f = parse("(p * q) -o r")
        assert rewrite_variants(f, 0) == {f}

    @given(formulas)
    @settings(max_examples=60)
    def test_variants_never_leave_the_fragment(self, f):
        try:
            normalize(f)
        except NotInFragment:
            return
        for variant in rewrite_variants(f, 2):
            normalize(variant)  # must not raise

    @given(formulas)
    @settings(max_examples=40)
    def test_variants_share_the_normal_form(self, f):
        try:
            expected = normalize(f)
        except NotInFragment:
            return
        for variant in rewrite_variants(f, 2):
            assert normalize(variant) == expected

    @given(formulas)
    @settings(max_examples=60)
    def test_single_steps_preserve_the_graph_class(self, f):
        g = to_graph(f)
        try:
            validate(g)
        except Error:
            return
        for variant in rewrite_variants(f, 1):
            assert alpha_equiv(to_graph(variant), g) is not None

import copy
import dataclasses
import pickle
import random
import time
from itertools import product

import pytest
from hypothesis import given, settings

import refimpl
from lgraph import mill
from lgraph import (Atom, Error, LogicalGraph, Lolli, NotInFragment,
                    ParseError, RawGraph, Tensor, Unit, alpha_equiv,
                    canonical_key, decompose, empty, enumerate_formulas,
                    normalize, parse, print_formula, rename_apart, singleton,
                    to_formula, to_graph, to_json, validate)
from lgraph.core import peel_tree
from strategies import formulas, valid_graphs
from util import (G, L, LG, V, flat_tensor, left_lolli, names,
                  right_lolli)

P, Q, R = L("p"), L("q"), L("r")


class TestParse:
    def test_lolli_is_right_associative(self):
        assert parse("p -o q -o r") == Lolli(Atom(P), Lolli(Atom(Q), Atom(R)))

    def test_parens_override(self):
        assert parse("(p1 * p2) -o q") == \
            Lolli(Tensor(Atom(L("p1")), Atom(L("p2"))), Atom(Q))

    def test_tensor_binds_tighter(self):
        assert parse("p * q -o r") == Lolli(Tensor(Atom(P), Atom(Q)), Atom(R))

    def test_tensor_is_left_associative(self):
        assert parse("p * q * r") == Tensor(Tensor(Atom(P), Atom(Q)), Atom(R))

    def test_unit(self):
        assert parse("1") == Unit()
        assert parse("1 * p") == Tensor(Unit(), Atom(P))

    def test_whitespace_insensitive(self):
        assert parse(" p*q  -o\t r ") == parse("p * q -o r")

    def test_identifier_shapes(self):
        assert parse("Foo_9") == Atom(L("Foo_9"))

    def test_error_positions(self):
        with pytest.raises(ParseError) as exc:
            parse("p -o")
        assert exc.value.position == 4
        with pytest.raises(ParseError):
            parse("(p -o q")
        with pytest.raises(ParseError):
            parse("p q")
        with pytest.raises(ParseError):
            parse("")
        with pytest.raises(ParseError):
            parse("p ⊗ q")

    def test_only_one_is_a_numeral(self):
        with pytest.raises(ParseError):
            parse("12")


class TestPrint:
    def test_right_associated_lolli_needs_no_parens(self):
        assert print_formula(Lolli(Atom(P), Lolli(Atom(Q), Atom(R)))) == \
            "p -o q -o r"

    def test_tensor_antecedent_needs_no_parens(self):
        assert print_formula(Lolli(Tensor(Atom(P), Atom(Q)), Atom(R))) == \
            "p * q -o r"

    def test_lolli_inside_tensor_is_parenthesised(self):
        assert print_formula(Tensor(Lolli(Atom(P), Atom(Q)), Atom(R))) == \
            "(p -o q) * r"

    def test_left_nested_lolli_is_parenthesised(self):
        assert print_formula(Lolli(Lolli(Atom(P), Atom(Q)), Atom(R))) == \
            "(p -o q) -o r"

    def test_right_nested_tensor_is_parenthesised(self):
        assert print_formula(Tensor(Atom(P), Tensor(Atom(Q), Atom(R)))) == \
            "p * (q * r)"

    def test_non_formula_operand_is_a_type_error(self):
        with pytest.raises(TypeError) as caught:
            print_formula(Tensor(Atom(P), "x"))
        assert str(caught.value) == "not a formula: 'x'"

    def test_names_the_first_non_formula_in_print_order(self):
        # The printer checks as it prints, left to right; translation and
        # normalize check in the right-first pre-order of the compounds,
        # each node's operands when the node is reached.
        f = Tensor(Tensor(Atom(P), "x"), "y")
        for walk, bad in [(print_formula, "x"), (to_graph, "y"),
                          (normalize, "y")]:
            with pytest.raises(TypeError) as caught:
                walk(f)
            assert str(caught.value) == f"not a formula: {bad!r}", walk

    @given(formulas)
    def test_round_trips_through_parse(self, f):
        assert parse(print_formula(f)) == f

    def test_round_trips_exhaustively_on_small_formulas(self):
        from lgraph import enumerate_formulas
        for f in enumerate_formulas([P, Q], 2):
            assert parse(print_formula(f)) == f


class TestToGraph:
    def test_unit_is_empty(self):
        assert to_graph(Unit()) == empty()

    def test_atom_is_singleton(self):
        assert to_graph(Atom(P)) == singleton(P)

    def test_nested_implication_is_a_chain(self):
        assert alpha_equiv(to_graph(parse("(p -o q) -o r")),
                           G("a:p b:q c:r", "a>b b>c")) is not None

    def test_curried_variants_share_a_graph(self):
        assert alpha_equiv(to_graph(parse("(p1 * p2) -o q")),
                           to_graph(parse("p1 -o p2 -o q"))) is not None

    def test_shared_atom_example_has_four_vertices(self):
        g = to_graph(parse("a * b -o b * c"))
        assert sorted(str(g.labelling[v]) for v in g.vertices()) == \
            ["a", "b", "b", "c"]
        by_label = {}
        for v in g.vertices():
            by_label.setdefault(str(g.labelling[v]), []).append(v)
        (a,), (c,) = by_label["a"], by_label["c"]
        sources = {v for v in g.vertices() if g._succs[v]}
        b_src = next(v for v in by_label["b"] if v in sources)
        b_dst = next(v for v in by_label["b"] if v not in sources)
        assert g.edges == {(a, b_dst), (a, c), (b_src, b_dst), (b_src, c)}


def _balanced(labels, depth=0):
    """Tensors at even depth, implications at odd depth."""
    if len(labels) == 1:
        return Atom(labels[0])
    mid = len(labels) // 2
    node = Tensor if depth % 2 == 0 else Lolli
    return node(_balanced(labels[:mid], depth + 1),
                _balanced(labels[mid:], depth + 1))


def _random_formula(rng, budget, labels):
    if budget <= 1:
        return Unit() if rng.random() < 0.15 else Atom(rng.choice(labels))
    split = rng.randint(1, budget - 1)
    node = Tensor if rng.random() < 0.5 else Lolli
    return node(_random_formula(rng, split, labels),
                _random_formula(rng, budget - split, labels))


class TestToGraphMatchesTheAlgebraFold:
    """to_graph against the literal fold of add/implies in refimpl.

    The fold names vertices through fresh_name, whose string-order renaming
    only departs from numeric order once an operand has more than ten
    vertices, hence the wide families over distinct labels.
    """

    @staticmethod
    def assert_same(f):
        got, want = to_graph(f), refimpl.ref_to_graph(f)
        assert type(got) is type(want)
        assert to_json(got) == to_json(want)

    def test_every_formula_up_to_three_connectives(self):
        from lgraph import enumerate_formulas
        for f in enumerate_formulas([P, Q], 3):
            self.assert_same(f)

    def test_seeded_random_formulas_with_units(self):
        rng = random.Random(20261018)
        labels = [L(f"a{i}") for i in range(40)]
        for _ in range(400):
            self.assert_same(_random_formula(rng, rng.randint(1, 80), labels))

    @pytest.mark.parametrize("size", [11, 12, 13, 21, 100, 101, 257, 400])
    @pytest.mark.parametrize("family", [flat_tensor, left_lolli,
                                        right_lolli, _balanced])
    def test_wide_families_over_distinct_labels(self, family, size):
        self.assert_same(family([L(f"x{i}") for i in range(size)]))

    def test_tensor_of_two_twelve_atom_tensors(self):
        # The left operand's v_i moves to v_{12+r}, r the rank of "v{i}" in
        # string order; numeric ranks would put a different atom at v14.
        left = flat_tensor([L(f"a{i}") for i in range(12)])
        right = flat_tensor([L(f"b{i}") for i in range(12)])
        self.assert_same(Tensor(left, right))
        g, h = to_graph(Tensor(left, right)), to_graph(left)
        order = sorted(range(12), key=str)
        assert order[:3] == [0, 1, 10]
        for r, i in enumerate(order):
            assert g.labelling[V(f"v{12 + r}")] == h.labelling[V(f"v{i}")]
        assert g.labelling[V("v14")] != h.labelling[V("v2")]

    def test_result_type(self):
        assert type(to_graph(parse("a * b"))) is LogicalGraph
        assert type(to_graph(parse("1 * a"))) is LogicalGraph
        assert type(to_graph(parse("1 -o a"))) is RawGraph
        assert type(to_graph(parse("(1 -o a) * b"))) is RawGraph
        assert to_graph(parse("1")) is empty()
        assert to_graph(parse("a")) is singleton(L("a"))

    def test_non_formula_is_a_type_error(self):
        with pytest.raises(TypeError):
            to_graph("p")
        with pytest.raises(TypeError):
            to_graph(Tensor(Atom(P), "q"))
        with pytest.raises(TypeError):
            to_graph(Lolli(None, Atom(P)))


def _same_graph(got, want):
    """Equal graphs, built alike: type, labelling order, adjacency order."""
    assert type(got) is type(want)
    assert list(got.labelling.items()) == list(want.labelling.items())
    assert got.edges == want.edges
    assert list(got._preds.items()) == list(want._preds.items())
    assert list(got._succs.items()) == list(want._succs.items())


def _right_tensor(labels):
    """l0 * (l1 * (... * ln))"""
    f = Atom(labels[-1])
    for label in reversed(labels[:-1]):
        f = Tensor(Atom(label), f)
    return f


def _mixed_chain(labels, seed):
    """Each step puts a connective on either side, sometimes over 1."""
    rng = random.Random(seed)
    f = Atom(labels[0])
    for label in labels[1:]:
        leaf = Unit() if rng.random() < 0.1 else Atom(label)
        node = Tensor if rng.random() < 0.5 else Lolli
        f = node(f, leaf) if rng.random() < 0.5 else node(leaf, f)
    return f


class TestToGraphMatchesTheStackTranslation:
    """to_graph against the package's earlier one-stack translation, which
    reaches any depth, and to_json against its earlier sorting writer."""

    def test_every_formula_up_to_three_connectives(self):
        for f in enumerate_formulas([P, Q], 3):
            got, fold = to_graph(f), refimpl.ref_to_graph(f)
            _same_graph(got, refimpl.ref_stack_to_graph(f))
            assert (type(got), got.edges, got._preds, got._succs) == \
                (type(fold), fold.edges, fold._preds, fold._succs)
            assert to_json(got) == refimpl.ref_to_json(got)

    @pytest.mark.parametrize("family", [flat_tensor, _right_tensor,
                                        left_lolli, right_lolli])
    def test_chains_of_depth_ten_to_the_five(self, family):
        f = family([L(f"x{i % 1000}") for i in range(100_000)])
        got = to_graph(f)
        _same_graph(got, refimpl.ref_stack_to_graph(f))
        assert to_json(got) == refimpl.ref_to_json(got)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_mixed_chain_of_depth_ten_to_the_four(self, seed):
        f = _mixed_chain([L(f"x{i % 1000}") for i in range(10_000)], seed)
        _same_graph(to_graph(f), refimpl.ref_stack_to_graph(f))

    def test_non_formula_at_depth_is_a_type_error(self):
        bad_left, bad_right = None, 3
        for i in range(10_000):
            bad_left = Tensor(bad_left, Atom(P))
            bad_right = Lolli(Atom(P), bad_right)
        for f in ("p", None, bad_left, bad_right,
                  Tensor(flat_tensor([P] * 50), Lolli(Atom(Q), bad_left))):
            with pytest.raises(TypeError, match="not a formula"):
                to_graph(f)


class TestFormulaValues:
    def test_tensor_and_lolli_stay_frozen_values(self):
        for kind in (Tensor, Lolli):
            f = kind(Atom(P), Unit())
            with pytest.raises(dataclasses.FrozenInstanceError):
                f.left = Atom(Q)
            with pytest.raises(dataclasses.FrozenInstanceError):
                f.right = Atom(Q)
            assert (f.left, f.right) == (Atom(P), Unit())
            assert kind(left=Atom(P), right=Unit()) == f
            assert dataclasses.replace(f, right=Atom(Q)) == kind(Atom(P),
                                                                  Atom(Q))
            assert copy.copy(f) == f and copy.deepcopy(f) == f
            assert pickle.loads(pickle.dumps(f)) == f
            assert hash(kind(Atom(P), Unit())) == hash(f)
            assert repr(f) == f"{kind.__name__}(left=Atom('p'), right=Unit())"
            match f:
                case Tensor(left, right) | Lolli(left, right):
                    assert (left, right) == (Atom(P), Unit())
                case _:
                    pytest.fail("no match")
            with pytest.raises(TypeError):
                kind(Atom(P))


class TestToGraphIsTotal:
    N = 100_000

    def test_flat_tensor_chain(self):
        g = to_graph(flat_tensor([L(f"x{i % 7}") for i in range(self.N)]))
        assert type(g) is LogicalGraph
        assert (len(g), len(g.edges)) == (self.N, 0)

    def test_left_nested_implication_chain(self):
        # ((x0 -o x1) -o x2) ...: each step joins the previous conclusion
        # to the new atom, so the graph is one path.
        g = to_graph(left_lolli([L(f"x{i % 7}") for i in range(self.N)]))
        assert (len(g), len(g.edges)) == (self.N, self.N - 1)
        assert max(len(g._succs[v]) for v in g.vertices()) == 1
        assert max(len(g._preds[v]) for v in g.vertices()) == 1

    def test_right_nested_implication_chain(self):
        # x0 -o (x1 -o ... -o x{N-1}): every antecedent points at the one
        # innermost conclusion.
        g = to_graph(right_lolli([L(f"x{i % 7}") for i in range(self.N)]))
        assert (len(g), len(g.edges)) == (self.N, self.N - 1)
        (top,) = [v for v in g.vertices() if not g._succs[v]]
        assert len(g._preds[top]) == self.N - 1


class TestDecompose:
    def test_empty(self):
        assert decompose(empty()).parts == ()

    def test_no_edges_means_one_clique(self):
        g = validate(to_graph(parse("p * q")))
        d = decompose(g)
        assert len(d.parts) == 1
        assert len(d.parts[0].clique) == 2
        assert d.parts[0].assumptions.parts == ()

    def test_worked_example_structure(self):
        g = LG("f g a b c d e", "f>g a>b a>c b>e c>e d>e")
        d = decompose(g)
        assert {tuple(names(part.clique)) for part in d.parts} == \
            {("e",), ("g",)}
        by_clique = {tuple(names(part.clique)): part for part in d.parts}
        e_parts = by_clique[("e",)].assumptions.parts
        assert {tuple(names(p.clique)) for p in e_parts} == {("b", "c"), ("d",)}
        g_parts = by_clique[("g",)].assumptions.parts
        assert {tuple(names(p.clique)) for p in g_parts} == {("f",)}

    @given(valid_graphs())
    @settings(max_examples=80)
    def test_matches_reference_decomposition(self, g):
        assert refimpl.tree_shape(peel_tree(g)) == \
            refimpl.tree_shape(refimpl.ref_decompose(*refimpl.plain(g)))

    @given(valid_graphs())
    @settings(max_examples=80)
    def test_parts_partition_and_cliques_are_conclusions(self, g):
        from lgraph import conclusions
        d = decompose(g)
        tops = set(conclusions(g))
        seen = []
        for part in d.parts:
            assert set(part.clique) <= tops
            seen.extend(part.clique)

        def walk(dec, acc):
            for part in dec.parts:
                acc.extend(part.clique)
                walk(part.assumptions, acc)

        everything = []
        walk(d, everything)
        assert sorted(everything) == list(g.vertices())


class TestToFormula:
    def test_singleton_reads_as_its_label(self):
        assert to_formula(singleton(P)) == Atom(P)

    def test_chain_reads_nested(self):
        assert print_formula(to_formula(LG("p q r", "p>q q>r"))) == \
            "(p -o q) -o r"

    def test_worked_example_round_trips_by_graph(self):
        g = LG("f g a b c d e", "f>g a>b a>c b>e c>e d>e")
        f = to_formula(g)
        assert alpha_equiv(to_graph(f), g) is not None
        assert print_formula(f) == "((a -o b * c) * d -o e) * (f -o g)"

    def test_empty_reads_as_unit(self):
        assert to_formula(empty()) == Unit()

    @pytest.mark.parametrize("label", ["1", "p * q", "p q"])
    def test_a_label_that_is_not_an_atom_name_has_no_formula(self, label):
        g = validate(RawGraph({V("v"): L(label)}))
        with pytest.raises(Error) as exc:
            to_formula(g)
        assert type(exc.value) is Error
        assert str(exc.value) == (f"label {label!r} is not an atom name "
                                  "(a letter, then letters, digits or _)")

    def test_the_least_label_that_is_not_an_atom_name_is_named(self):
        g = LG("a:p_q b:p%q c:zz d:1", "a>b c>d")
        with pytest.raises(Error, match="^label '1' is not an atom name"):
            to_formula(g)

    def test_an_atom_name_with_digits_and_underscore_reads_back(self):
        g = LG("a:Foo_9 b:q", "a>b")
        assert to_formula(g) == Lolli(Atom(L("Foo_9")), Atom(Q))


class TestNormalize:
    def test_interderivable_variants_share_one_form(self):
        texts = ["(p1 * p2) -o q", "(p2 * p1) -o q",
                 "p2 -o (p1 -o q)", "p1 -o (p2 -o q)"]
        results = {print_formula(normalize(parse(t))) for t in texts}
        assert results == {"p1 * p2 -o q"}

    def test_unit_tensor_collapses(self):
        assert print_formula(normalize(parse("1 * p"))) == "p"

    def test_unit_consequent_collapses(self):
        assert print_formula(normalize(parse("p -o 1"))) == "p"

    def test_out_of_fragment_raises_with_witness(self):
        with pytest.raises(NotInFragment) as exc:
            normalize(parse("p -o (a -o b) * c"))
        assert len(exc.value.graph) == 4

    def test_unit_consequent_currying_is_not_graph_sound(self):
        # Currying onto a unit consequent is derivable in the logic but the
        # graphs identify A -o 1 with A, so these two normalise apart; the
        # rewrite oracle must therefore withhold that step.
        assert print_formula(normalize(parse("(p * q) -o 1"))) == "p * q"
        assert print_formula(normalize(parse("p -o (q -o 1)"))) == "p -o q"

    @staticmethod
    def _matches_the_validated_path(f):
        """normalize(f) against to_formula(validate(to_graph(f))); returns
        whether f is in the fragment."""
        g = to_graph(f)
        try:
            want = to_formula(validate(g))
        except Error as exc:
            with pytest.raises(NotInFragment) as got:
                normalize(f)
            raw = got.value.graph
            assert type(raw) is type(g) and raw == g
            assert list(raw.labelling.items()) == list(g.labelling.items())
            cause = got.value.cause
            assert (type(cause), str(cause), cause.witness) == \
                (type(exc), str(exc), exc.witness)
            return False
        assert normalize(f) == want
        return True

    def test_matches_the_validated_path_on_the_enumeration(self):
        inside = [self._matches_the_validated_path(f)
                  for f in enumerate_formulas([P, Q], 3)]
        assert inside.count(False) == 32

    @pytest.mark.parametrize("atoms, connectives, count, outside",
                             [([P, Q, R], 3, 10_788, 162),
                              ([P], 4, 7_882, 85)])
    def test_matches_the_validated_path_on_wider_enumerations(
            self, atoms, connectives, count, outside):
        formulas = enumerate_formulas(atoms, connectives)
        assert len(formulas) == count
        inside = [self._matches_the_validated_path(f) for f in formulas]
        assert inside.count(False) == outside

    @given(formulas)
    @settings(max_examples=200)
    def test_matches_the_validated_path(self, f):
        self._matches_the_validated_path(f)

    @pytest.mark.parametrize("f", [
        Tensor(mill._union, Atom(P)),
        Lolli(Atom(P), Tensor(Atom(P), mill._imply)),
        Lolli(mill._imply, Atom(Q)),
        Tensor(Atom(P), Lolli(Atom(Q), mill._union)),
        Tensor(mill._union, mill._imply),
        "p",
    ])
    def test_the_tree_walks_steps_are_not_formulas(self, f):
        # _union and _imply are the steps of the walk that composes the peel
        # tree; as operands they are no formula, as for to_graph.
        with pytest.raises(TypeError) as want:
            to_graph(f)
        with pytest.raises(TypeError) as got:
            normalize(f)
        assert str(got.value) == str(want.value)

    def test_the_walk_names_a_left_operand_before_a_right_one(self):
        # Each node's operands are checked when the node is reached, the
        # left one first, and the right subtree is walked first.
        for f, bad in [(Tensor(mill._union, mill._imply), mill._union),
                       (Lolli(Tensor(Atom(P), "x"), Lolli("y", Atom(Q))),
                        "y")]:
            for translate in (to_graph, normalize):
                with pytest.raises(TypeError) as got:
                    translate(f)
                assert str(got.value) == f"not a formula: {bad!r}"

    @pytest.mark.parametrize("atoms", [[P, Q], [P, Q, R]])
    def test_sharing_classes_changes_no_result(self, atoms):
        formulas = enumerate_formulas(atoms, 3)

        def results():
            out = []
            for f in formulas:
                try:
                    out.append(print_formula(normalize(f)))
                except NotInFragment as exc:
                    out.append((str(exc), exc.graph))
            return out

        plain = results()
        with mill._sharing_classes():
            with mill._sharing_classes():
                assert mill._classes == ({}, [])
            shared = results()
        assert mill._classes is None
        assert shared == plain
        assert sum(type(r) is tuple for r in plain) == \
            {2: 32, 3: 162}[len(atoms)]

    def test_sharing_classes_gives_one_object_per_class(self):
        # Each formula of one class gets the same normal form back, whether
        # its class came from its operands' classes or from a walk.
        normals = []
        with mill._sharing_classes():
            for f in enumerate_formulas([P, Q, R], 3):
                try:
                    normals.append(normalize(f))
                except NotInFragment:
                    pass
        assert len({id(n) for n in normals}) == \
            len(set(map(print_formula, normals))) == 842

    def test_composing_label_trees_is_the_key_of_the_compound(self):
        # The congruence the scope relies on: the class of A * B or A -o B
        # is read off copies of A's and B's label trees, which stay as they
        # were.  _imply gives None exactly outside the fragment.
        normals = {}
        for f in enumerate_formulas([P, Q], 2):
            try:
                normal = normalize(f)
            except NotInFragment:
                continue
            normals[print_formula(normal)] = normal
        assert len(normals) == 42
        trees = {key: mill._formula_tree(n) for key, n in normals.items()}
        snapshot = copy.deepcopy(trees)
        outside = 0
        for (a, ta), (b, tb) in product(trees.items(), repeat=2):
            for kind, step in ((Tensor, mill._union), (Lolli, mill._imply)):
                tree = step(mill._copy(ta), mill._copy(tb))
                compound = kind(normals[a], normals[b])
                if tree is None:
                    outside += 1
                    with pytest.raises(NotInFragment):
                        mill._key_text(compound)
                else:
                    assert mill._canonicalize(tree, str.__str__) == \
                        mill._key_text(compound)
        assert trees == snapshot
        assert 0 < outside < len(trees) ** 2

    def test_sharing_classes_composes_classes_first_met_whole(self):
        # Operands normalised whole, units among them, then every tensor and
        # implication of the first fifteen: composed in the scope, each
        # result is the plain one.
        rng = random.Random(20261020)
        parts = [_random_formula(rng, rng.randint(1, 6), [P, Q, R])
                 for _ in range(40)]

        def results():
            out = []
            for f in parts + [kind(f, g) for f, g in product(parts[:15],
                                                             repeat=2)
                              for kind in (Tensor, Lolli)]:
                try:
                    out.append(print_formula(normalize(f)))
                except NotInFragment as exc:
                    out.append((str(exc), exc.graph))
            return out

        plain = results()
        with mill._sharing_classes():
            shared = results()
        assert shared == plain
        assert 0 < sum(type(r) is tuple for r in plain) < len(plain) / 2

    def test_a_tensor_in_either_order_is_one_class(self, monkeypatch):
        a, b = parse("p -o q"), parse("r * p")
        renders = 0
        render = mill._canonicalize

        def counted(*args):
            nonlocal renders
            renders += 1
            return render(*args)

        with mill._sharing_classes():
            normalize(a)
            normalize(b)
            first = normalize(Tensor(a, b))
            monkeypatch.setattr(mill, "_canonicalize", counted)
            assert normalize(Tensor(b, a)) is first
        assert renders == 0
        assert print_formula(first) == "p * r * (p -o q)"

    @given(formulas)
    @settings(max_examples=120)
    def test_idempotent_on_the_fragment(self, f):
        try:
            once = normalize(f)
        except NotInFragment:
            return
        assert normalize(once) == once

    @given(formulas)
    @settings(max_examples=120)
    def test_preserves_the_graph_up_to_iso(self, f):
        try:
            once = normalize(f)
        except NotInFragment:
            return
        assert alpha_equiv(to_graph(once), to_graph(f)) is not None


class TestCanonicalKey:
    def test_empty_graph_key(self):
        assert canonical_key(empty()) == "1"

    def test_invariant_under_renaming(self):
        g = LG("f g a b c d e", "f>g a>b a>c b>e c>e d>e")
        renamed, _ = rename_apart(g, g.vertices())
        assert canonical_key(g) == canonical_key(validate(renamed))

    def test_is_the_printed_canonical_formula(self):
        g = LG("p q r", "p>q q>r")
        assert canonical_key(g) == print_formula(to_formula(g))

    @given(valid_graphs(), valid_graphs())
    @settings(max_examples=100)
    def test_equal_keys_iff_alpha_equivalent(self, g, h):
        assert (canonical_key(g) == canonical_key(h)) == \
            (alpha_equiv(g, h) is not None)

    @given(valid_graphs())
    @settings(max_examples=100)
    def test_key_parses_back_to_the_same_graph(self, g):
        assert alpha_equiv(to_graph(parse(canonical_key(g))), g) is not None


class TestMatchesTheRecursiveOracle:
    """parse, print_formula and the canonical walk against the recursive
    code they replaced (refimpl), with == on outputs and on errors."""

    @staticmethod
    def assert_same(f):
        assert print_formula(f) == refimpl.ref_print_formula(f)
        try:
            g = validate(to_graph(f))
        except Error:
            return
        dec, formula, key, _ = refimpl.ref_canonicalize(g, peel_tree(g))
        assert canonical_key(g) == key
        assert print_formula(to_formula(g)) == \
            refimpl.ref_print_formula(formula)
        assert decompose(g) == dec

    def test_every_formula_up_to_three_connectives(self):
        for f in enumerate_formulas([P, Q], 3):
            self.assert_same(f)

    def test_seeded_random_formulas_with_units(self):
        # Few labels, so that clique members and sibling parts tie.
        rng = random.Random(20261019)
        labels = [P, Q, R, L("s")]
        for _ in range(400):
            self.assert_same(_random_formula(rng, rng.randint(1, 40), labels))

    @staticmethod
    def outcome(parser, text):
        try:
            return parser(text)
        except ParseError as exc:
            return type(exc), exc.position, exc.expected, str(exc)

    def test_seeded_random_token_strings(self):
        tokens = ["p", "q", "x_1", "1", "2", "*", "-o", "(", ")", " ", "⊗"]
        rng = random.Random(20261020)
        for _ in range(20_000):
            text = "".join(rng.choice(tokens)
                           for _ in range(rng.randint(0, 9)))
            assert self.outcome(parse, text) == \
                self.outcome(refimpl.ref_parse, text), text

    @staticmethod
    def printed(parser, text):
        try:
            return print_formula(parser(text))
        except ParseError as exc:
            return type(exc), exc.position, exc.expected, str(exc)

    def test_bad_tokens_and_whitespace_at_every_position(self):
        # The parser reads token texts and works out offsets only for an
        # error, so each bad token and each whitespace character goes
        # everywhere among the tokens of valid and broken texts.  "²" is a
        # digit to str.isdigit but not to the tokenizer's \d; "٣" is both.
        inserts = ["$", "2", "-", "-x", "⊗", "\t", "\n", "²", "٣"]
        rng = random.Random(20261021)
        valid = [print_formula(_random_formula(rng, rng.randint(1, 6), [P, Q]))
                 for _ in range(60)]
        broken = [" ".join(rng.choice(["p", "q", "1", "*", "-o", "(", ")"])
                           for _ in range(rng.randint(0, 6)))
                  for _ in range(60)]
        for text in valid + broken:
            words = [tok for _, tok, _ in refimpl._tokenize(text)][:-1]
            for i in range(len(words) + 1):
                for insert in inserts:
                    for gap in (" ", ""):
                        probe = gap.join(words[:i] + [insert] + words[i:])
                        assert self.printed(parse, probe) == \
                            self.printed(refimpl.ref_parse, probe), probe

    def test_a_bad_token_wins_over_an_earlier_syntax_error(self):
        with pytest.raises(ParseError) as exc:
            parse("p q $")
        assert exc.value.position == 4
        assert str(exc.value) == ("at 4: expected an atom, '1', '*', '-o', "
                                  "or parenthesis, found '$'")


def _timed(fn, arg):
    started = time.perf_counter()
    result = fn(arg)
    return result, time.perf_counter() - started


DEPTH = 20_000


@pytest.fixture(scope="module")
def deep_chain():
    """((x0 -o x1) -o x2) -o ... at DEPTH atoms: formula, graph and text."""
    f = left_lolli([L(f"x{i % 7}") for i in range(DEPTH)])
    text = "(" * (DEPTH - 2) + "x0 -o x1" + "".join(
        f") -o x{i % 7}" for i in range(2, DEPTH))
    return f, validate(to_graph(f)), text


class TestFormulaWalksAreTotal:
    """Depths past the interpreter's recursion limit.  Results are checked
    through text and graph sizes, because == and hash on Formula recurse."""

    N = 100_000

    def test_parse_of_deeply_parenthesised_atom(self):
        f, took = _timed(parse, "(" * self.N + "p" + ")" * self.N)
        assert took < 2.0
        assert type(f) is Atom and f.label == P

    def test_parse_of_flat_tensor(self):
        f, took = _timed(parse, " * ".join(f"x{i % 7}" for i in range(self.N)))
        assert took < 2.0
        g = to_graph(f)
        assert (len(g), len(g.edges)) == (self.N, 0)
        spine = 0
        while type(f) is Tensor:
            f, spine = f.left, spine + 1
        assert spine == self.N - 1

    def test_print_formula(self, deep_chain):
        f, _, text = deep_chain
        printed, took = _timed(print_formula, f)
        assert took < 2.0
        assert printed == text

    def test_canonical_key(self, deep_chain):
        _, g, text = deep_chain
        key, took = _timed(canonical_key, g)
        assert took < 2.0
        assert key == text

    def test_to_formula(self, deep_chain):
        _, g, text = deep_chain
        f, took = _timed(to_formula, g)
        assert took < 2.0
        assert print_formula(f) == text

    def test_decompose(self, deep_chain):
        _, g, _ = deep_chain
        d, took = _timed(decompose, g)
        assert took < 2.0
        levels = 0
        while d.parts:
            (part,) = d.parts
            assert len(part.clique) == 1
            d, levels = part.assumptions, levels + 1
        assert levels == DEPTH

    def test_normalize(self, deep_chain):
        f, _, text = deep_chain
        normal, took = _timed(normalize, f)
        assert took < 2.0
        assert print_formula(normal) == text

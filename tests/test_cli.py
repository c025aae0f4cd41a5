import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgraph import mill
from lgraph import (LabelId, NotInFragment, alpha_equiv_all,
                    enumerate_formulas, from_json, normalize, print_formula,
                    to_json)
from lgraph.cli import _format_map, run
from util import G


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_graph(tmp_path, name, g):
    path = tmp_path / name
    path.write_text(to_json(g) + "\n", encoding="utf-8")
    return str(path)


N_GRAPH = G("a b c d", "a>c b>c b>d")
CHAIN = G("x:p y:q z:r", "x>y y>z")


class TestFormulaCommands:
    def test_parse_prints_minimal_form(self, capsys):
        code, out, err = invoke(capsys, "parse", "((p) -o ((q * r)))")
        assert (code, out, err) == (0, "p -o q * r\n", "")

    def test_parse_error_is_machine_readable(self, capsys):
        code, out, err = invoke(capsys, "parse", "p -o")
        assert code == 2
        assert err.startswith("error:syntax:")
        assert out == ""

    def test_normalize_collapses_variants(self, capsys):
        first = invoke(capsys, "normalize", "p2 -o p1 -o q")
        second = invoke(capsys, "normalize", "(p1 * p2) -o q")
        assert first == second == (0, "p1 * p2 -o q\n", "")

    def test_normalize_out_of_fragment(self, capsys):
        code, out, err = invoke(capsys, "normalize", "p -o (a -o b) * c")
        assert code == 2
        assert err.startswith("error:not-in-fragment:")

    def test_formula_from_file(self, capsys, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("p -o q\n", encoding="utf-8")
        code, out, _ = invoke(capsys, "parse", f"@{path}")
        assert (code, out) == (0, "p -o q\n")


def _balanced_tensor(names):
    if len(names) == 1:
        return names[0]
    mid = len(names) // 2
    return (f"({_balanced_tensor(names[:mid])}) * "
            f"({_balanced_tensor(names[mid:])})")


class TestDeepFormulas:
    def test_parse_of_a_large_tensor_key(self, capsys):
        # The key is a right-nested tensor, 398 parentheses deep.
        code, key, _ = invoke(capsys, "normalize", _balanced_tensor(
            [f"x{i}" for i in range(400)]))
        assert code == 0 and key.count("(") == 398
        assert invoke(capsys, "parse", key.strip()) == (0, key, "")

    def test_normalize_of_a_deep_chain(self, capsys):
        depth = 20_000
        text = "(" * (depth - 2) + "x0 -o x1" + "".join(
            f") -o x{i % 7}" for i in range(2, depth))
        assert invoke(capsys, "normalize", text) == (0, text + "\n", "")


class TestGraphCommands:
    def test_to_graph_emits_canonical_json(self, capsys):
        code, out, err = invoke(capsys, "to-graph", "p -o q")
        assert code == 0
        assert out == '{"edges":[["v1","v0"]],"vertices":{"v0":"q","v1":"p"}}\n'

    def test_to_graph_to_file_then_to_formula(self, capsys, tmp_path):
        out_path = tmp_path / "g.graph"
        code, _, _ = invoke(capsys, "to-graph", "(p -o q) -o r",
                            "-o", str(out_path))
        assert code == 0
        code, out, _ = invoke(capsys, "to-formula", str(out_path))
        assert (code, out) == (0, "(p -o q) -o r\n")

    def test_to_formula_composes_like_normalize(self, capsys, tmp_path):
        text = "p2 -o (p1 -o q)"
        out_path = tmp_path / "g.graph"
        invoke(capsys, "to-graph", text, "-o", str(out_path))
        code, via_graph, _ = invoke(capsys, "to-formula", str(out_path))
        code2, direct, _ = invoke(capsys, "normalize", text)
        assert (code, code2) == (0, 0)
        assert via_graph == direct

    @pytest.mark.parametrize("label", ["1", "p * q", "p q"])
    def test_to_formula_refuses_a_label_that_is_not_an_atom_name(
            self, capsys, tmp_path, label):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"vertices": {"v": label}, "edges": []}),
                        encoding="utf-8")
        code, out, err = invoke(capsys, "to-formula", str(path))
        assert (code, out) == (2, "")
        assert err == (f"error:schema: label {label!r} is not an atom name "
                       "(a letter, then letters, digits or _)\n")

    def test_to_formula_reads_an_atom_name_with_digits_and_underscore(
            self, capsys, tmp_path):
        path = write_graph(tmp_path, "g.json", G("a:Foo_9 b:q", "a>b"))
        code, out, err = invoke(capsys, "to-formula", path)
        assert (code, out, err) == (0, "Foo_9 -o q\n", "")

    def test_check_ok(self, capsys, tmp_path):
        path = write_graph(tmp_path, "ok.graph", CHAIN)
        assert invoke(capsys, "check", path) == (0, "ok\n", "")

    def test_check_rejects_with_witness(self, capsys, tmp_path):
        path = write_graph(tmp_path, "ill.graph", N_GRAPH)
        code, out, err = invoke(capsys, "check", path)
        assert code == 1
        assert out == ""
        assert "not-well-formed" in err and "b" in err

    def test_check_cyclic(self, capsys, tmp_path):
        path = write_graph(tmp_path, "cyc.graph", G("u:p w:q", "u>w w>u"))
        code, _, err = invoke(capsys, "check", path)
        assert code == 1
        assert err.startswith("cyclic:")

    def test_conclusions(self, capsys, tmp_path):
        path = write_graph(tmp_path, "g.graph",
                           G("f g a b c d e", "f>g a>b a>c b>e c>e d>e"))
        code, out, _ = invoke(capsys, "conclusions", path)
        assert (code, out) == (0, "e\ng\n")

    def test_missing_file_is_io_error(self, capsys, tmp_path):
        code, _, err = invoke(capsys, "check", str(tmp_path / "absent.graph"))
        assert code == 2
        assert err.startswith("error:io:")

    def test_bad_schema(self, capsys, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text('{"vertices": {"a": "p"}, "junk": 1}', encoding="utf-8")
        code, _, err = invoke(capsys, "check", str(path))
        assert code == 2
        assert err.startswith("error:schema:")

    @pytest.mark.parametrize("text", ["[]", '"x"', "3"])
    def test_top_level_that_is_not_an_object_is_a_schema_error(
            self, capsys, tmp_path, text):
        path = tmp_path / "g.json"
        path.write_text(text, encoding="utf-8")
        code, out, err = invoke(capsys, "check", str(path))
        assert (code, out) == (2, "")
        assert err == ("error:schema: invalid graph file: top level must be "
                       "an object\n")

    def test_empty_edge_endpoint_is_a_schema_error(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text('{"vertices":{"a":"p"},"edges":[["","a"]]}',
                        encoding="utf-8")
        code, out, err = invoke(capsys, "iso", str(path), str(path))
        assert (code, out) == (2, "")
        assert err == "error:schema: invalid graph file: bad edge ['', 'a']\n"

    @pytest.mark.parametrize("command", ["check", "iso"])
    def test_edge_to_an_unknown_vertex_is_its_own_error(self, capsys,
                                                        tmp_path, command):
        path = tmp_path / "g.json"
        path.write_text('{"vertices":{"a":"p"},"edges":[["a","b"]]}',
                        encoding="utf-8")
        paths = [str(path)] * (2 if command == "iso" else 1)
        code, out, err = invoke(capsys, command, *paths)
        assert (code, out) == (2, "")
        assert err == "error:unknown-vertex: unknown vertex: V('b')\n"

    def test_nesting_too_deep_to_read_is_a_schema_error(self, capsys,
                                                        tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000, encoding="utf-8")
        code, out, err = invoke(capsys, "check", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error:schema: invalid graph file: maximum "
                              "recursion depth exceeded")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [("conclusions", "{}"), ("dot", "{}"),
                                      ("iso", "--all", "{}", "{}"),
                                      ("to-formula", "{}"), ("check", "{}")])
    def test_name_that_is_not_text_is_a_schema_error(self, capsys, tmp_path,
                                                     argv):
        # A lone surrogate, which no UTF-8 output can carry.
        path = tmp_path / "g.json"
        path.write_text('{"vertices":{"a":"p","\\ud800":"p"},"edges":[]}',
                        encoding="utf-8")
        code, out, err = invoke(capsys, *(a.format(path) for a in argv))
        assert (code, out) == (2, "")
        assert err == ("error:schema: invalid graph file: name '\\ud800' "
                       "cannot be encoded as UTF-8\n")


class TestEquivAndIso:
    def test_equivalent_formulas(self, capsys):
        code, out, _ = invoke(capsys, "equiv", "p2 -o p1 -o q",
                              "(p1 * p2) -o q")
        assert (code, out) == (0, "equivalent\n")

    def test_inequivalent_formulas(self, capsys):
        code, out, _ = invoke(capsys, "equiv", "p -o q", "q -o p")
        assert (code, out) == (1, "not-equivalent\n")

    def test_formula_against_graph_file(self, capsys, tmp_path):
        path = write_graph(tmp_path, "chain.graph", CHAIN)
        code, out, _ = invoke(capsys, "equiv", "(p -o q) -o r", f"@{path}")
        assert (code, out) == (0, "equivalent\n")

    def test_formula_file_operand(self, capsys, tmp_path):
        path = tmp_path / "f.formula"
        path.write_text("(p -o q) -o r", encoding="utf-8")
        code, out, _ = invoke(capsys, "equiv", f"@{path}", "p -o q -o r")
        assert code == 1

    def test_iso_prints_first_map(self, capsys, tmp_path):
        fork = G("v1:p v2:p v0:q", "v1>v0 v2>v0")
        a = write_graph(tmp_path, "a.graph", fork)
        b = write_graph(tmp_path, "b.graph", fork)
        code, out, _ = invoke(capsys, "iso", a, b)
        assert code == 0
        assert out == "v0->v0 v1->v1 v2->v2\n"

    def test_iso_count_and_all(self, capsys, tmp_path):
        fork = G("v1:p v2:p v0:q", "v1>v0 v2>v0")
        a = write_graph(tmp_path, "a.graph", fork)
        code, out, _ = invoke(capsys, "iso", a, a, "--count")
        assert (code, out) == (0, "2\n")
        code, out, _ = invoke(capsys, "iso", a, a, "--all")
        assert code == 0
        assert out == "v0->v0 v1->v1 v2->v2\nv0->v0 v1->v2 v2->v1\n"

    def test_iso_failure_exits_one(self, capsys, tmp_path):
        a = write_graph(tmp_path, "a.graph", G("x:p y:q", "x>y"))
        b = write_graph(tmp_path, "b.graph", G("x:p y:q", "y>x"))
        code, out, _ = invoke(capsys, "iso", a, b, "--count")
        assert (code, out) == (1, "0\n")

    def test_iso_failure_without_flags_prints_nothing(self, capsys,
                                                      tmp_path):
        a = write_graph(tmp_path, "a.graph", G("x:p y:q", "x>y"))
        b = write_graph(tmp_path, "b.graph", G("x:p y:q", "y>x"))
        assert invoke(capsys, "iso", a, b) == (1, "", "")

    def test_iso_count_streams_the_maps(self, capsys, tmp_path):
        # 8! maps: kept in a list they would take about 15 MB.
        leaves = [f"l{i}" for i in range(8)]
        star = G(" ".join(f"{v}:p" for v in leaves) + " z:q",
                 " ".join(f"{v}>z" for v in leaves))
        a = write_graph(tmp_path, "star.graph", star)
        tracemalloc.start()
        try:
            code, out, _ = invoke(capsys, "iso", a, a, "--count")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (0, "40320\n")
        assert peak < 2_000_000

    def test_iso_lists_a_star_in_the_order_of_alpha_equiv_all(self, capsys,
                                                                tmp_path):
        leaves = [f"l{i}" for i in range(7)]
        star = G(" ".join(f"{v}:p" for v in leaves) + " z:q",
                 " ".join(f"{v}>z" for v in leaves))
        copy = G(" ".join(f"m{v}:p" for v in leaves) + " a:q",
                 " ".join(f"m{v}>a" for v in leaves))
        a = write_graph(tmp_path, "star.json", star)
        b = write_graph(tmp_path, "copy.json", copy)
        assert invoke(capsys, "iso", a, b, "--count") == (0, "5040\n", "")
        code, out, err = invoke(capsys, "iso", a, b, "--all")
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert len(lines) == 5040
        assert lines == [_format_map(m) for m in alpha_equiv_all(star, copy)]

    def test_iso_on_a_cycle_is_an_error(self, capsys, tmp_path):
        c = write_graph(tmp_path, "c.json", G("u:p w:p z:q", "u>w w>u w>z"))
        code, out, err = invoke(capsys, "iso", c, c)
        assert (code, out) == (2, "")
        assert err.startswith("error:cyclic:")
        assert err.count("\n") == 1


class TestLastResort:
    def test_unexpected_exception_is_one_internal_line(self, capsys,
                                                        monkeypatch):
        def overflow(text):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr("lgraph.mill.parse", overflow)
        code, out, err = invoke(capsys, "parse", "p -o q")
        assert (code, out) == (2, "")
        assert err == "error:internal: RecursionError: " \
                      "maximum recursion depth exceeded\n"


class TestUndecodableInput:
    @pytest.mark.parametrize("argv", [("parse", "@{}"), ("equiv", "@{}", "p"),
                                      ("check", "{}")])
    def test_is_one_io_error(self, capsys, tmp_path, argv):
        path = tmp_path / "f"
        path.write_bytes(b"\xff\xfe p")
        code, out, err = invoke(capsys, *(a.format(path) for a in argv))
        assert (code, out) == (2, "")
        assert err.startswith(f"error:io: {path}: 'utf-8' codec can't decode")
        assert err.count("\n") == 1


class TestCombineCommands:
    def test_add_and_output_file(self, capsys, tmp_path):
        a = write_graph(tmp_path, "a.graph", G("v0:p"))
        b = write_graph(tmp_path, "b.graph", G("v0:q"))
        out_path = tmp_path / "sum.graph"
        code, _, _ = invoke(capsys, "add", a, b, "-o", str(out_path))
        assert code == 0
        got = from_json(out_path.read_text(encoding="utf-8"))
        assert got == G("v0:q v1:p")

    def test_implies_draws_conclusion_edges(self, capsys, tmp_path):
        a = write_graph(tmp_path, "a.graph", G("v0:p"))
        b = write_graph(tmp_path, "b.graph", G("v0:q"))
        code, out, _ = invoke(capsys, "implies", a, b)
        assert code == 0
        assert json.loads(out) == {"vertices": {"v0": "q", "v1": "p"},
                                   "edges": [["v1", "v0"]]}

    def test_subtract(self, capsys, tmp_path):
        whole = write_graph(tmp_path, "w.graph", CHAIN)
        part = write_graph(tmp_path, "p.graph",
                           G("z:r"))
        code, out, _ = invoke(capsys, "subtract", whole, part)
        assert code == 0
        assert from_json(out) == G("x:p y:q", "x>y")

    def test_subtract_name_mismatch(self, capsys, tmp_path):
        whole = write_graph(tmp_path, "w.graph", CHAIN)
        part = write_graph(tmp_path, "p.graph", G("nope:r"))
        code, _, err = invoke(capsys, "subtract", whole, part)
        assert code == 2
        assert err.startswith("error:not-a-subgraph:")


class TestDotAndEnumerate:
    def test_dot_output(self, capsys, tmp_path):
        path = write_graph(tmp_path, "g.graph", G("b:q a:p", "a>b"))
        code, out, _ = invoke(capsys, "dot", path)
        assert code == 0
        assert out == ('digraph {\n'
                       '  "a" [label="p"];\n'
                       '  "b" [label="q"];\n'
                       '  "a" -> "b";\n'
                       '}\n')

    def test_enumerate_lists_formulas(self, capsys):
        code, out, _ = invoke(capsys, "enumerate", "--atoms", "p",
                              "--max-connectives", "0")
        assert (code, out) == (0, "1\np\n")

    def test_enumerate_classes(self, capsys):
        code, out, err = invoke(capsys, "enumerate", "--atoms", "p",
                                "--max-connectives", "1", "--classes")
        assert code == 0
        lines = dict(line.split("\t") for line in out.splitlines())
        # ten formulas; p*p is its own class, chains p-op collapse together
        assert lines["p * p"] == "1"
        assert sum(int(n) for n in lines.values()) == 10

    @pytest.mark.parametrize("atoms", ["p,q", "p,q,r"])
    def test_enumerate_class_table_is_the_literal_tally(self, capsys, atoms):
        # The CLI prints each class's one normal form once; here every
        # formula's normal form is printed, outside the scope that shares
        # one per class, so the objects outnumber the classes.
        code, out, err = invoke(capsys, "enumerate", "--atoms", atoms,
                                "--max-connectives", "3", "--classes")
        classes: dict[str, int] = {}
        forms, skipped = {}, 0  # the objects kept, so that no id is reused
        for f in enumerate_formulas([LabelId(a) for a in atoms.split(",")], 3):
            try:
                normal = normalize(f)
            except NotInFragment:
                skipped += 1
                continue
            forms[id(normal)] = normal
            key = print_formula(normal)
            classes[key] = classes.get(key, 0) + 1
        assert code == 0
        assert out == "".join(f"{key}\t{n}\n"
                              for key, n in sorted(classes.items()))
        assert err == f"skipped {skipped} formulas outside the fragment\n"
        if atoms == "p,q,r":
            assert len(classes) == 842 and len(forms) > len(classes)

    def test_enumerate_classes_walks_once_per_operand_classes(self, capsys,
                                                             monkeypatch):
        # A compound whose operands' classes met before under the same
        # connective takes that class with no walk of its own.  The bound is
        # worked out from plain normalize: enumerate_formulas builds each
        # formula from earlier ones, so operands come first.
        formulas = enumerate_formulas([LabelId("p"), LabelId("q")], 3)
        keys = {}  # id -> key; the list keeps every formula alive
        for f in formulas:
            try:
                keys[id(f)] = print_formula(normalize(f))
            except NotInFragment:
                pass
        compounds = [f for f in formulas if type(f) in (mill.Tensor,
                                                        mill.Lolli)]
        leaves = len(formulas) - len(compounds)
        triples = {(type(f), keys[id(f.left)], keys[id(f.right)])
                   for f in compounds
                   if id(f.left) in keys and id(f.right) in keys}
        outside = len(formulas) - len(keys)
        walks = 0
        walk = mill._formula_tree

        def counted(f):
            nonlocal walks
            walks += 1
            return walk(f)

        monkeypatch.setattr(mill, "_formula_tree", counted)
        code, out, _ = invoke(capsys, "enumerate", "--atoms", "p,q",
                              "--max-connectives", "3", "--classes")
        assert code == 0 and len(out.splitlines()) == 202
        assert walks <= leaves + len(triples) + outside < len(formulas) / 4

    def test_enumerate_classes_composes_each_new_pair_without_a_walk(
            self, capsys, monkeypatch):
        # Only leaves and formulas outside the fragment are walked; each
        # new pair of operand classes under a connective, in either order
        # for '*', renders the key composed from their label trees once.
        formulas = enumerate_formulas([LabelId("p"), LabelId("q")], 3)
        keys = {}  # id -> key; the list keeps every formula alive
        for f in formulas:
            try:
                keys[id(f)] = print_formula(normalize(f))
            except NotInFragment:
                pass
        compounds = [f for f in formulas if type(f) in (mill.Tensor,
                                                        mill.Lolli)]
        leaves = len(formulas) - len(compounds)
        outside = len(formulas) - len(keys)
        triples = set()
        for f in compounds:
            if id(f.left) in keys and id(f.right) in keys:
                pair = keys[id(f.left)], keys[id(f.right)]
                triples.add((type(f), *(sorted(pair) if type(f) is mill.Tensor
                                        else pair)))
        counts = {"_formula_tree": 0, "_canonicalize": 0}

        def counted(name):
            step = getattr(mill, name)

            def call(*args):
                counts[name] += 1
                return step(*args)
            return call

        for name in counts:
            monkeypatch.setattr(mill, name, counted(name))
        code, out, _ = invoke(capsys, "enumerate", "--atoms", "p,q",
                              "--max-connectives", "3", "--classes")
        assert code == 0 and len(out.splitlines()) == 202
        assert counts["_formula_tree"] <= leaves + outside
        assert counts["_canonicalize"] <= leaves + outside + len(triples)

    def test_enumerate_classes_builds_each_new_class_from_its_operands(
            self, capsys, monkeypatch):
        # A new class is built from its operands' parts, with no parse,
        # render or walk; a formula with an operand outside the fragment, or
        # whose implication fails, is translated without a walk; and the
        # table prints the keys the scope holds.  Only leaves are walked.
        formulas = enumerate_formulas([LabelId("p"), LabelId("q")], 3)
        outside = 0
        for f in formulas:
            try:
                normalize(f)
            except NotInFragment:
                outside += 1
        leaves = sum(type(f) not in (mill.Tensor, mill.Lolli)
                     for f in formulas)
        counts = dict.fromkeys(["parse", "_canonicalize", "print_formula",
                                "_formula_tree"], 0)

        def counted(name):
            step = getattr(mill, name)

            def call(*args):
                counts[name] += 1
                return step(*args)
            return call

        for name in counts:
            monkeypatch.setattr(mill, name, counted(name))
        code, out, _ = invoke(capsys, "enumerate", "--atoms", "p,q",
                              "--max-connectives", "3", "--classes")
        assert code == 0 and len(out.splitlines()) == 202
        assert (leaves, outside) == (3, 32)
        assert counts["parse"] <= leaves
        assert counts["_canonicalize"] <= leaves + outside
        assert counts["print_formula"] == 0
        assert counts["_formula_tree"] <= leaves

    def test_enumerate_classes_never_translates(self, capsys, monkeypatch):
        # A formula outside the fragment is only counted, so its
        # NotInFragment is never read and nothing is translated; a plain
        # normalize translates once, when the exception's graph is read.
        argv = ["enumerate", "--atoms", "p,q", "--max-connectives", "3",
                "--classes"]
        expected = invoke(capsys, *argv)
        calls = 0
        translate = mill.to_graph

        def counted(f):
            nonlocal calls
            calls += 1
            return translate(f)

        monkeypatch.setattr(mill, "to_graph", counted)
        assert invoke(capsys, *argv) == expected
        assert expected[2] == "skipped 32 formulas outside the fragment\n"
        assert calls == 0
        with pytest.raises(NotInFragment) as info:
            normalize(mill.parse("p -o (a -o b) * c"))
        assert calls == 0
        graph = info.value.graph
        assert calls == 1 and info.value.graph is graph
        assert str(info.value).endswith(str(info.value.cause))
        assert calls == 1

    @pytest.mark.parametrize("argv", [
        ["--atoms", "p,q", "--max-connectives", "2", "--classes"],
        ["--atoms", "p,q", "--max-connectives", "9", "--classes"],
    ])
    def test_enumerate_classes_closes_its_scope(self, capsys, argv):
        invoke(capsys, "enumerate", *argv)
        assert mill._classes is None

    def test_enumerate_classes_closes_its_scope_on_a_fault(self, capsys,
                                                           monkeypatch):
        def fault(f):
            raise RuntimeError("fault")

        monkeypatch.setattr(mill, "_key_text", fault)
        code, out, err = invoke(capsys, "enumerate", "--atoms", "p",
                                "--max-connectives", "1", "--classes")
        assert (code, out, err) == (2, "", "error:internal: RuntimeError: "
                                    "fault\n")
        assert mill._classes is None

    def test_enumerate_refuses_oversized(self, capsys):
        code, _, err = invoke(capsys, "enumerate", "--atoms", "p,q,r",
                              "--max-connectives", "6")
        assert code == 2
        assert err.startswith("error:bounds-too-large:")

    def test_enumerate_refuses_a_huge_bound_in_one_line(self, capsys):
        atoms = ",".join(f"a{i}" for i in range(1000))
        code, out, err = invoke(capsys, "enumerate", "--atoms", atoms,
                                "--max-connectives", "1200")
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("error:bounds-too-large:")

    def test_enumerate_cap_is_configurable(self, capsys):
        code, out, _ = invoke(capsys, "enumerate", "--atoms", "p",
                              "--max-connectives", "1", "--max-count", "5")
        assert code == 2

    @pytest.mark.parametrize("atoms", ["1", "p q", "p,2q", "p,q-o", "p,é"])
    def test_enumerate_rejects_atoms_the_syntax_cannot_read(self, capsys,
                                                            atoms):
        # An atom named 1 printed as the unit; "p q" listed a formula that
        # lg parse rejects.
        code, out, err = invoke(capsys, "enumerate", "--atoms", atoms,
                                "--max-connectives", "1", "--classes")
        assert (code, out) == (2, "")
        assert err.startswith("error:usage:") and err.count("\n") == 1

    def test_enumerate_rejects_negative_connectives(self, capsys):
        code, out, err = invoke(capsys, "enumerate", "--atoms", "p",
                                "--max-connectives", "-3")
        assert (code, out) == (2, "")
        assert err.startswith("error:usage:") and err.count("\n") == 1

    def test_enumerate_rejects_a_negative_cap(self, capsys):
        assert invoke(capsys, "enumerate", "--atoms", "p",
                      "--max-connectives", "1", "--max-count", "-1") == \
            (2, "", "error:usage: --max-count must not be negative\n")
        code, out, err = invoke(capsys, "enumerate", "--atoms", "p",
                                "--max-connectives", "1", "--max-count", "0")
        assert (code, out) == (2, "")
        assert err.startswith("error:bounds-too-large: more than 0 formulas")

    def test_enumerate_atom_names_round_trip(self, capsys):
        code, out, _ = invoke(capsys, "enumerate", "--atoms", " p_1 , Q2,r ",
                              "--max-connectives", "0")
        assert (code, out) == (0, "1\np_1\nQ2\nr\n")


class TestInvocationHygiene:
    def test_unknown_command(self, capsys):
        code, _, err = invoke(capsys, "frobnicate")
        assert code == 2
        assert err.startswith("error:usage:")

    def test_unknown_flag(self, capsys):
        code, _, err = invoke(capsys, "parse", "p", "--wat")
        assert code == 2
        assert err.startswith("error:usage:")

    def test_one_process_answers_as_fresh_ones_do(self, capsys, tmp_path):
        # The argument parser is built once per process and then reused.
        path = write_graph(tmp_path, "g.graph", CHAIN)
        calls = [("parse", "p", "--wat"), ("to-graph", "p * q -o r"),
                 ("conclusions", path), ("frobnicate",), ("check", path)]
        import lgraph
        src = os.path.dirname(os.path.dirname(lgraph.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        for argv in calls:
            fresh = subprocess.run([sys.executable, "-m", "lgraph.cli", *argv],
                                   env=env, capture_output=True, text=True,
                                   timeout=60)
            assert invoke(capsys, *argv) == \
                (fresh.returncode, fresh.stdout, fresh.stderr)

    def test_reruns_are_byte_identical(self, capsys, tmp_path):
        path = write_graph(tmp_path, "g.graph",
                           G("f g a b c d e", "f>g a>b a>c b>e c>e d>e"))
        first = invoke(capsys, "to-formula", path)
        second = invoke(capsys, "to-formula", path)
        assert first == second


@pytest.fixture(scope="module")
def contract_files(tmp_path_factory):
    """A directory and the paths the contract test draws operands from: a
    formula, a graph file, broken files of every kind, and a missing one."""
    d = tmp_path_factory.mktemp("contract")
    texts = {
        "formula.txt": "p * q -o r\n",
        "graph.json": to_json(CHAIN),
        "truncated.json": to_json(CHAIN)[:20],
        "deep.json": "[" * 100_000,
        "surrogate.json": '{"vertices":{"a":"p","\\ud800":"p"},"edges":[]}',
        "cyclic.json": to_json(G("u:p w:p z:q", "u>w w>u w>z")),
        "nwf.json": to_json(N_GRAPH),
    }
    for name, text in texts.items():
        (d / name).write_text(text, encoding="utf-8")
    (d / "undecodable.json").write_bytes(b"\xff\xfe {}")
    return d, [str(d / n) for n in [*texts, "undecodable.json", "absent"]]


class TestContract:
    """Whatever the arguments, lg exits 0, 1 or 2, and an exit 2 prints one
    ``error:<kind>`` line, not an internal error, and nothing on stdout."""

    @settings(max_examples=200)
    @given(data=st.data())
    def test_every_command_keeps_the_contract(self, contract_files, data):
        d, paths = contract_files
        one = st.sampled_from
        graph = one(paths).map(lambda p: [p])
        formula = one(["p * q -o r", "p -o", "(p", "p $",
                       *("@" + p for p in paths)]).map(lambda f: [f])
        output = one([[], ["-o", str(d / "out.json")]])
        args = {
            "parse": [formula], "normalize": [formula],
            "to-graph": [formula, output], "to-formula": [graph],
            "check": [graph], "conclusions": [graph], "dot": [graph],
            "equiv": [formula, formula],
            "iso": [graph, graph,
                    one([[], ["--count"], ["--all"], ["--count", "--all"]])],
            "add": [graph, graph, output], "implies": [graph, graph, output],
            "subtract": [graph, graph, output],
            "enumerate": [one([["--atoms", a] for a in ("p", "p,q", "1", "")]),
                          one([["--max-connectives", c]
                               for c in ("-1", "0", "2", "x")]),
                          one([[], ["--classes"]]),
                          one([[], ["--max-count", "5"]])],
        }
        command = data.draw(one(sorted(args)))
        argv = [command] + [a for part in args[command]
                            for a in data.draw(part)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        assert code in (0, 1, 2), argv
        if code == 2:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1, (argv, lines)
            assert lines[0].startswith("error:"), (argv, lines)
            assert not lines[0].startswith("error:internal"), (argv, lines)
            assert out.getvalue() == "", argv

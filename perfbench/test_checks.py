"""Tests of the benchmark's independent checks.

    python3 -m pytest perfbench -q

Each check is tested on its own, mostly against brute force; a few tests
then confirm that lgraph agrees with the checks on small inputs and that a
deliberately wrong output makes a workload's check fail.
"""

import itertools
import math
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import lgraph  # noqa: E402
import lgraph.cli  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed, atom, lolli, tensor  # noqa: E402
from tracing import Tracer, layer_api  # noqa: E402

P, Q, R = atom("p"), atom("q"), atom("r")


def brute_force_maps(g1, g2):
    """Every label- and edge-preserving bijection, by trying each
    label-preserving one."""
    (lab1, e1), (lab2, e2) = g1, g2
    if sorted(lab1.values()) != sorted(lab2.values()):
        return []
    labels = sorted(set(lab1.values()))
    groups1 = [[v for v in sorted(lab1) if lab1[v] == l] for l in labels]
    groups2 = [[v for v in sorted(lab2) if lab2[v] == l] for l in labels]
    found = []
    for images in itertools.product(
            *(itertools.permutations(group) for group in groups2)):
        m = {v: w for group, image in zip(groups1, images)
             for v, w in zip(group, image)}
        if {(m[s], m[d]) for s, d in e1} == set(e2):
            found.append(m)
    return found


# ------------------------------------------------------------ verify_map

def test_verify_map_accepts_an_isomorphism_and_rejects_corruptions():
    g1 = ({"a": "p", "b": "q", "c": "q"}, [("b", "a"), ("c", "a")])
    g2 = ({"x": "q", "y": "p", "z": "q"}, [("x", "y"), ("z", "y")])
    good = {"a": "y", "b": "x", "c": "z"}
    checks.verify_map(good, g1, g2)
    corrupted = [
        {"a": "y", "b": "x"},                      # not total
        {"a": "y", "b": "x", "c": "x"},            # not injective
        {"a": "x", "b": "y", "c": "z"},            # breaks labels
        {"a": "y", "b": "x", "c": "w"},            # not onto
    ]
    for m in corrupted:
        with pytest.raises(CheckFailed):
            checks.verify_map(m, g1, g2)
    g3 = ({"x": "q", "y": "p", "z": "q"}, [("x", "y")])
    with pytest.raises(CheckFailed):                # loses an edge
        checks.verify_map(good, g1, g3)


# ----------------------------------------------------------- graph_counts

def test_graph_counts_follow_the_translation_rules():
    assert checks.graph_counts(checks.UNIT)[:2] == (0, 0)
    assert checks.graph_counts(tensor(P, Q))[:2] == (2, 0)
    assert checks.graph_counts(lolli(tensor(P, Q), R))[:2] == (3, 2)
    # A -o 1 keeps A's conclusions, so the outer arrow has two sources.
    assert checks.graph_counts(lolli(lolli(P, checks.UNIT), Q))[:2] == (2, 1)
    assert checks.graph_counts(lolli(P, tensor(Q, R)))[1] == 2
    _, _, labels = checks.graph_counts(tensor(P, lolli(P, Q)))
    assert labels == Counter({"p": 2, "q": 1})


def test_graph_counts_match_lgraph_on_every_small_formula():
    for f in checks.all_formulas(["p", "q"], 3):
        g = lgraph.to_graph(lgraph.parse(checks.render(f)))
        vertices, edges, labels = checks.graph_counts(f)
        assert (len(g), len(g.edges)) == (vertices, edges)
        assert Counter(l.name for l in g.labelling.values()) == labels


# -------------------------------------------------- fragment and its key

def test_canonical_text_by_hand():
    assert checks.canonical_text(lolli(Q, lolli(P, R))) == "p * q -o r"
    assert checks.canonical_text(tensor(R, tensor(Q, P))) == "p * (q * r)"
    assert checks.canonical_text(lolli(tensor(Q, P), checks.UNIT)) == "p * q"
    # An implication whose consequent splits into two cliques.
    assert checks.canonical_text(lolli(P, tensor(lolli(Q, R), Q))) is None


def test_canonical_text_matches_lgraph_on_every_small_formula():
    rejected = 0
    for f in checks.all_formulas(["p", "q"], 3):
        g = lgraph.to_graph(lgraph.parse(checks.render(f)))
        try:
            key = lgraph.canonical_key(lgraph.validate(g))
        except lgraph.NotWellFormed:
            key = None
            rejected += 1
        assert checks.canonical_text(f) == key, checks.render(f)
    assert rejected == 32


def test_render_matches_print_formula_and_parses_back():
    rng = random.Random(5)
    for _ in range(300):
        f = workloads._random_formula(rng, rng.randint(0, 6), ["a", "b"], 0.2)
        text = checks.render(f)
        assert lgraph.print_formula(lgraph.parse(text)) == text
        noisy = workloads._noisy_text(f, rng)
        assert lgraph.print_formula(lgraph.parse(noisy)) == text


# --------------------------------------------------------------- variants

def test_variants_keep_the_canonical_key():
    rng = random.Random(7)
    changed = 0
    for _ in range(400):
        f = workloads._random_formula(rng, rng.randint(1, 5), ["p", "q", "r"],
                                      0.2)
        g = checks.variant(f, rng)
        changed += g != f
        assert checks.canonical_text(g) == checks.canonical_text(f)
        want = lgraph.to_graph(lgraph.parse(checks.render(f)))
        got = lgraph.to_graph(lgraph.parse(checks.render(g)))
        assert lgraph.alpha_equiv(want, got) is not None
    assert changed > 300


def test_variants_never_curry_onto_a_unit_consequent():
    f = lolli(tensor(P, Q), checks.UNIT)
    rewrites = {r for _, r in checks._rewrites(f, ())}
    assert lolli(P, lolli(Q, checks.UNIT)) not in rewrites
    assert tensor(P, Q) in rewrites


# ----------------------------------------------- stars, chains and twins

@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_a_same_label_star_has_k_factorial_maps(k):
    g = workloads.star(k)
    assert len(brute_force_maps(g, g)) == math.factorial(k)


def test_a_same_label_chain_has_one_map():
    g = workloads.chain(6)
    assert len(brute_force_maps(g, g)) == 1


def test_twins_differ_in_their_degree_invariant():
    rng = random.Random(3)
    pairs = [(workloads.chain(7), workloads.chain(7, twin=True)),
             (workloads.star(5), workloads.star(5, twin=True))]
    for _ in range(20):
        g = workloads.random_graph(rng, 10, ["a", "b", "c", "d"])
        twin = workloads.label_swap_twin(rng, g)
        if twin is not None:
            pairs.append((g, twin))
    assert len(pairs) > 15
    for g, twin in pairs:
        assert checks.degree_invariant(g) != checks.degree_invariant(twin)
        assert sorted(g[0].values()) == sorted(twin[0].values())
        assert len(g[1]) == len(twin[1])
        assert brute_force_maps(g, twin) == []
        copy = workloads.renamed(g, rng)
        assert checks.degree_invariant(copy) == checks.degree_invariant(g)


def test_generated_graphs_are_in_the_fragment():
    rng = random.Random(11)
    for g in [workloads.chain(9, twin=True), workloads.star(6, twin=True)] + \
            [workloads.random_graph(rng, 40, ["a", "b"]) for _ in range(20)]:
        lgraph.validate(lgraph.from_json(workloads.graph_file(g, rng)))


# ------------------------------------------------------------ enumeration

@pytest.mark.parametrize("atoms,bound", [(1, 2), (2, 3), (3, 2), (2, 5)])
def test_formula_count_closed_form_matches_brute_force(atoms, bound):
    if bound <= 3:
        names = [f"a{i}" for i in range(atoms)]
        assert checks.formula_count(atoms, bound) == len(
            checks.all_formulas(names, bound))
    per_size = [atoms + 1]
    for c in range(1, bound + 1):
        per_size.append(2 * sum(per_size[i] * per_size[c - 1 - i]
                                for i in range(c)))
    assert checks.formula_count(atoms, bound) == sum(per_size)


def test_class_table_sizes_add_up():
    classes, skipped = checks.class_table(["p", "q"], 3)
    assert sum(classes.values()) + skipped == checks.formula_count(2, 3)
    assert skipped == 32


# ------------------------------------------- wrong outputs fail the checks

def _first_round(workload):
    name = workload.name
    cases = workload.build(workloads.round_rng(name, 1, "t"), "t")
    api = layer_api(lgraph)
    return cases, [workload.operation(api, case) for case in cases]


def test_correct_outputs_pass_every_workload_check():
    for workload in workloads.WORKLOADS.values():
        if workload.name == "iso":
            continue  # exercised below with its cheaper cases
        cases, outs = _first_round(workload)
        for case, out in zip(cases, outs):
            workload.check(case, out)
        workload.check_round(cases, outs)


def test_corrupted_map_fails_the_iso_check():
    iso = workloads.WORKLOADS["iso"]
    rng = workloads.round_rng("iso", 1, "t")
    first = workloads.star(4)
    second = workloads.renamed(first, rng)
    case = workloads.Case("star4-count", (workloads.graph_file(first, rng),
                                           workloads.graph_file(second, rng),
                                           True), (first, second, 24))
    maps = iso.operation(layer_api(lgraph), case)
    iso.check(case, maps)
    with pytest.raises(CheckFailed):
        iso.check(case, maps[:-1])                   # a wrong count
    bad = dict(maps[0])
    a, b = sorted(bad)[:2]
    bad[a], bad[b] = bad[b], bad[a]                  # a corrupted map
    with pytest.raises(CheckFailed):
        iso.check(case, [bad] + maps[1:])


def test_mismatched_key_fails_the_corpus_and_translate_checks():
    for name in ("corpus", "translate"):
        workload = workloads.WORKLOADS[name]
        cases, outs = _first_round(workload)
        i = next(i for i, out in enumerate(outs) if out[2] is not None)
        out = list(outs[i])
        key_at = 3 if name == "corpus" else 2
        out[key_at] = out[key_at] + " * p"
        with pytest.raises(CheckFailed):
            workload.check(cases[i], tuple(out))


def test_wrong_class_count_fails_the_enumerate_check():
    workload = workloads.WORKLOADS["enumerate"]
    cases, outs = _first_round(workload)
    status, stdout, stderr = outs[0]
    key, count = stdout.splitlines()[0].split("\t")
    wrong = stdout.replace(f"{key}\t{count}\n",
                           f"{key}\t{int(count) + 1}\n", 1)
    with pytest.raises(CheckFailed):
        workload.check(cases[0], (status, wrong, stderr))


def test_tracer_records_nested_cli_calls_and_restores_the_modules():
    tracer = Tracer(lgraph)
    workload = workloads.WORKLOADS["enumerate"]
    case = workload.build(workloads.round_rng("enumerate", 1, "t"), "t")[0]
    out = tracer.call(1, workload.operation, tracer.api, case)
    workload.check(case, out)
    assert lgraph.mill.normalize is layer_api(lgraph).normalize
    names = Counter(span[0] for span in tracer.spans)
    assert names["op"] == names["cli.run"] == 1
    assert names["oracle.enumerate_formulas"] == 1
    assert names["mill.normalize"] == checks.formula_count(1, 2)
    metrics = tracer.layer_metrics()
    assert metrics["mill.normalize.calls"][0] == checks.formula_count(1, 2)
    assert 0 < metrics["cli.run.self_us"][0] < metrics["cli.run.time_us"][0]


# ------------------------------------------------- the command's contract

@pytest.mark.parametrize("trace,section",
                         [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_metric_named_in_benchmark_json(trace, section):
    import json
    import subprocess
    root = HERE.parent
    spec = json.loads((root / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus", "--seed",
         "3", "--seconds", "0.05", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec[section]}

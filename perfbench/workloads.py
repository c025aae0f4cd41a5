"""The four workloads: how each builds a round of inputs, runs one
operation through lgraph, and checks the outputs against ``checks``.

A round is a fixed list of operation kinds; the seed and the round number
only choose names, labels, shapes and orders.  Every round therefore holds
the same amount and kind of work, and its formulas and graphs are new, so
a cache kept between calls cannot answer a later round from an earlier one.

Atom and label names come from a pool of ``NAME_POOL`` round tags.  lgraph
interns every name and keeps a singleton graph per label for the life of
the process, so names that never repeat would make memory grow with the
number of rounds, and a faster program would read as a larger one.  Only
``enumerate`` takes new names every round: its formulas are otherwise the
same in every round.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from collections import Counter

import checks
from checks import atom, expect, lolli, tensor


NAME_POOL = 16


def round_rng(workload: str, seed: int, tag) -> random.Random:
    return random.Random(f"{workload}:{seed}:{tag}")


class Workload:
    """A workload's round of operations; see the four below."""

    name_pool = NAME_POOL
    setup_rounds = 1

    def check_round(self, cases: list, outs: list) -> None:
        """Checks that relate operations of one round; none by default."""


class Case:
    """One operation's inputs plus what the checks need to judge it."""

    __slots__ = ("kind", "inputs", "spec")

    def __init__(self, kind: str, inputs, spec):
        self.kind = kind
        self.inputs = inputs
        self.spec = spec


def _graph_of(g) -> tuple[dict, list]:
    """A program graph as plain names, for the independent checks."""
    return ({v.name: l.name for v, l in g.labelling.items()},
            [(s.name, d.name) for s, d in g.edges])


def _check_graph_counts(g, f: tuple) -> None:
    vertices, edges, labels = checks.graph_counts(f)
    expect(len(g) == vertices, f"|V| is {len(g)}, expected {vertices}")
    expect(len(g.edges) == edges, f"|E| is {len(g.edges)}, expected {edges}")
    expect(Counter(l.name for l in g.labelling.values()) == labels,
           "label multiset differs")


def _random_formula(rng: random.Random, connectives: int, atoms: list[str],
                    unit_share: float) -> tuple:
    if connectives == 0:
        if rng.random() < unit_share:
            return checks.UNIT
        return atom(rng.choice(atoms))
    left = rng.randrange(connectives)
    make = tensor if rng.random() < 0.5 else lolli
    right = connectives - 1 - left
    return make(_random_formula(rng, left, atoms, unit_share),
                _random_formula(rng, right, atoms, unit_share))


def _noisy_text(f: tuple, rng: random.Random) -> str:
    """f's text with redundant parentheses and uneven spacing."""
    def go(g: tuple, context: int) -> str:
        kind = g[0]
        if kind in ("1", "a"):
            text, own = ("1" if kind == "1" else g[1]), 9
        else:
            sep = rng.choice((" * ", "*", "  *  ")) if kind == "*" else \
                rng.choice((" -o ", "-o ", " -o\t"))
            if kind == "*":
                text, own = go(g[1], 2) + sep + go(g[2], 3), 2
            else:
                text, own = go(g[1], 2) + sep + go(g[2], 1), 1
        if context > own or rng.random() < 0.1:
            text = f"({text})"
        return text
    return go(f, 0)


# ------------------------------------------------------------------ corpus

class Corpus(Workload):
    """Small formulas at the size of the acceptance corpus.

    Each base formula comes with a seeded symmetric variant; both run as
    operations and must get the same canonical key.  Four of every twelve
    bases lie outside the fragment, so validation rejects them.
    """

    name = "corpus"
    # The slowest few per cent of these sub-millisecond operations read
    # unsteadily between runs (p99.9 spread 9 %, p99 up to 17 %); p95
    # sits inside the largest formulas and leaves thousands beyond it.
    tail_percentile = 95.0
    setup_rounds = 20
    bases = 24

    def build(self, rng: random.Random, tag) -> list[Case]:
        cases = []
        for i in range(self.bases):
            atoms = [f"{a}{tag}" for a in "pqr"[:2 + i % 2]]
            in_fragment = i % 6 not in (4, 5)
            connectives = 1 + i % 5 if in_fragment else 3 + i % 3
            while True:
                f = _random_formula(rng, connectives, atoms, 0.15)
                if (checks.normal_form(f) is not None) == in_fragment:
                    break
            g = checks.variant(f, rng)
            for h in (f, g):
                cases.append(Case("base" if h is f else "variant",
                                  _noisy_text(h, rng), h))
        return cases

    @staticmethod
    def reference_work(rng: random.Random):
        formulas = [_random_formula(rng, 1 + i % 5, ["p", "q", "r"], 0.15)
                    for i in range(60)]

        def work():
            for f in formulas:
                checks.canonical_text(f)
                checks.render(f)
                checks.graph_counts(f)
        return work

    def operation(self, api, case: Case):
        f = api.parse(case.inputs)
        g = api.to_graph(f)
        key = image = m = None
        try:
            valid = api.validate(g)
        except api.NotWellFormed:
            valid = None
        if valid is not None:
            key = api.canonical_key(valid)
            image = api.to_graph(api.parse(key))
            m = api.alpha_equiv(image, valid)
        return api.print_formula(f), g, valid, key, image, m

    def check(self, case: Case, out) -> None:
        printed, g, valid, key, image, m = out
        f = case.spec
        expect(printed == checks.render(f),
               f"printed {printed!r}, expected {checks.render(f)!r}")
        _check_graph_counts(g, f)
        want = checks.canonical_text(f)
        expect((valid is not None) == (want is not None),
               f"{printed}: validate accepted={valid is not None}, "
               f"expected {want is not None}")
        if want is None:
            return
        expect(key == want, f"key {key!r}, expected {want!r}")
        expect(m is not None, f"{printed}: no map from its key's graph")
        checks.verify_map({v.name: w.name for v, w in m.items()},
                          _graph_of(image), _graph_of(g))

    def check_round(self, cases: list[Case], outs: list) -> None:
        for i in range(0, len(cases), 2):
            expect(outs[i][3] == outs[i + 1][3],
                   f"variant {cases[i + 1].inputs!r} of {cases[i].inputs!r} "
                   f"got key {outs[i + 1][3]!r}, not {outs[i][3]!r}")


# --------------------------------------------------------------- translate

def _nested_chain(names: list[str]) -> tuple:
    f = atom(names[0])
    for name in names[1:]:
        f = lolli(f, atom(name))
    return f


def _flat_chain(names: list[str]) -> tuple:
    f = atom(names[0])
    for name in names[1:]:
        f = tensor(f, atom(name))
    return f


def _mixed_tree(names: list[str], rng: random.Random) -> tuple:
    """A balanced tree in the fragment: tensors at even depth, and at odd
    depth an implication whose consequent is one clique."""
    def go(lo: int, hi: int, depth: int) -> tuple:
        if hi - lo == 1:
            return atom(names[lo])
        mid = (lo + hi) // 2
        if depth % 2 == 0:
            return tensor(go(lo, mid, depth + 1), go(mid, hi, depth + 1))
        width = min(hi - mid, rng.randint(1, 3))
        consequent = _flat_chain(names[hi - width:hi])
        if hi - width > mid:
            consequent = lolli(go(mid, hi - width, depth + 1), consequent)
        return lolli(go(lo, mid, depth + 1), consequent)
    return go(0, len(names), 0)


class Translate(Workload):
    """Large formulas, where translation to a graph does most of the work.

    The sizes stay below what the formula side handles without a
    RecursionError: about 330 parenthesis levels in the parser and about
    900 nested subformulas in ``to_graph``.
    """

    name = "translate"
    tail_percentile = 90.0
    # (shape, atoms).  The median falls inside the three flat chains of
    # 200 atoms and the tail inside the two of 400.
    kinds = (("flat", 100), ("nested", 100), ("mixed", 128), ("random", 150),
             ("mixed", 256), ("flat", 200), ("flat", 200), ("flat", 200),
             ("nested", 200), ("nested", 300), ("flat", 400), ("flat", 400))
    max_paren_depth = 300

    def build(self, rng: random.Random, tag) -> list[Case]:
        cases = []
        for shape, size in self.kinds:
            alphabet = [f"x{tag}n{i}" for i in range(rng.randint(3, 12))]
            names = [rng.choice(alphabet) for _ in range(size)]
            if shape == "flat":
                f = _flat_chain(names)
            elif shape == "nested":
                f = _nested_chain(names)
            elif shape == "mixed":
                f = _mixed_tree(names, rng)
            else:
                while True:
                    f = _random_formula(rng, size - 1, alphabet, 0.0)
                    if checks.paren_depth(checks.render(f)) <= 40:
                        break
            text = checks.render(f)
            expect(checks.paren_depth(text) <= self.max_paren_depth,
                   f"{shape} input nests too deeply to parse")
            cases.append(Case(f"{shape}{size}", text, f))
        return cases

    @staticmethod
    def reference_work(rng: random.Random):
        names = [f"x{i % 7}" for i in range(100)]
        formulas = [_flat_chain(names), _nested_chain(names),
                    _mixed_tree(names, rng)]

        def work():
            for f in formulas:
                checks.canonical_text(f)
                checks.graph_counts(f)
                checks.render(f)
        return work

    def operation(self, api, case: Case):
        g = api.to_graph(api.parse(case.inputs))
        key = None
        try:
            valid = api.validate(g)
        except api.NotWellFormed:
            valid = None
        if valid is not None:
            key = api.canonical_key(valid)
        return g, valid, key, api.to_json(g if valid is None else valid)

    def check(self, case: Case, out) -> None:
        g, valid, key, text = out
        f = case.spec
        _check_graph_counts(g, f)
        want = checks.canonical_text(f)
        expect((valid is not None) == (want is not None),
               f"{case.kind}: validate accepted={valid is not None}, "
               f"expected {want is not None}")
        expect(key == want, f"{case.kind}: canonical key differs")
        doc = json.loads(text)
        expect(json.dumps(doc, sort_keys=True, separators=(",", ":"),
                          ensure_ascii=False) == text,
               "graph file is not in canonical key order and spacing")
        expect(doc["edges"] == sorted(doc["edges"]), "edges are not sorted")
        vertices, edges, labels = checks.graph_counts(f)
        expect((len(doc["vertices"]), len(doc["edges"])) == (vertices, edges),
               "graph file has the wrong size")
        expect(Counter(doc["vertices"].values()) == labels,
               "graph file has the wrong labels")


# --------------------------------------------------------------------- iso

def chain(n: int, twin: bool = False) -> tuple[dict, list]:
    """A same-label path v0 -> v1 -> ... ; the twin joins v0 to v2 instead
    of v1, so v2 has two premises."""
    lab = {f"v{i}": "p" for i in range(n)}
    edges = [(f"v{i}", f"v{i + 1}") for i in range(n - 1)]
    if twin:
        edges[0] = ("v0", "v2")
    return lab, edges


def star(k: int, twin: bool = False) -> tuple[dict, list]:
    """k same-label leaves implying one centre; the twin moves the last
    leaf onto the first leaf."""
    lab = {f"v{i}": "p" for i in range(k + 1)}
    edges = [(f"v{i}", "v0") for i in range(1, k + 1)]
    if twin:
        edges[-1] = (f"v{k}", "v1")
    return lab, edges


def random_graph(rng: random.Random, size: int, labels: list[str],
                 repeats: int = 3) -> tuple[dict, list]:
    """A graph in the fragment with ``size`` vertices, built as nested
    conclusion cliques: each level has at most one clique without premises
    and any number whose premises are the conclusions of a nested graph.

    The conclusions of each level get distinct labels, except that at most
    ``repeats`` levels reuse one label once.  Same-label conclusions are
    what the isomorphism search branches on, and the branches multiply
    across levels, so unbounded repeats make the search run for minutes.
    """
    lab: dict[str, str] = {}
    edges: list[tuple[str, str]] = []
    repeats_left = [repeats]

    def vertices(count: int) -> list[str]:
        names = [f"v{len(lab) + i}" for i in range(count)]
        lab.update(dict.fromkeys(names))
        return names

    def label(level: list[str]) -> None:
        chosen = rng.sample(labels, min(len(level), len(labels)))
        chosen += rng.choices(labels, k=len(level) - len(chosen))
        if len(level) > 1 and repeats_left[0] and rng.random() < 0.5:
            repeats_left[0] -= 1
            chosen[-1] = chosen[0]
        for v, l in zip(level, chosen):
            lab[v] = l

    def build(budget: int) -> list[str]:
        level = vertices(rng.randint(0, min(2, budget)))
        budget -= len(level)
        while budget > 0:
            if budget == 1:
                level += vertices(1)
                break
            clique_size = rng.randint(1, min(3, budget - 1))
            nested = rng.randint(1, budget - clique_size)
            premises = build(nested)
            clique = vertices(clique_size)
            edges.extend((p, c) for p in premises for c in clique)
            level += clique
            budget -= clique_size + nested
        label(level)
        return level

    build(size)
    return lab, edges


def label_swap_twin(rng: random.Random, g: tuple[dict, list]
                    ) -> tuple[dict, list] | None:
    """g with the labels of two vertices exchanged whose labels and degree
    pairs both differ; the degree invariant then tells the pair apart."""
    lab, edges = g
    indeg, outdeg = Counter(), Counter()
    for s, d in edges:
        outdeg[s] += 1
        indeg[d] += 1
    names = sorted(lab)
    for _ in range(100):
        u, w = rng.sample(names, 2)
        if lab[u] != lab[w] and (indeg[u], outdeg[u]) != (indeg[w], outdeg[w]):
            swapped = dict(lab)
            swapped[u], swapped[w] = lab[w], lab[u]
            return swapped, edges
    return None


def renamed(g: tuple[dict, list], rng: random.Random) -> tuple[dict, list]:
    lab, edges = g
    names = list(lab)
    fresh = [f"w{i}" for i in range(len(names))]
    rng.shuffle(fresh)
    m = dict(zip(names, fresh))
    return {m[v]: l for v, l in lab.items()}, [(m[s], m[d]) for s, d in edges]


def graph_file(g: tuple[dict, list], rng: random.Random) -> str:
    """The graph as JSON with vertices and edges in a shuffled order."""
    lab, edges = g
    vertices = list(lab.items())
    rng.shuffle(vertices)
    pairs = [list(e) for e in edges]
    rng.shuffle(pairs)
    return json.dumps({"edges": pairs, "vertices": dict(vertices)})


class Iso(Workload):
    """Pairs of graph files, built directly rather than from formulas.

    Each pair is a graph with either a renamed, shuffled copy of itself or
    a non-isomorphic twin with the same label multiset and edge count.
    """

    name = "iso"
    tail_percentile = 95.0
    # (kind, size, twin, count): count asks for every map.
    kinds = (
        [("random", 150, twin, False)
         for twin in (False, True) for _ in range(8)]
        + [("star", k, False, False) for k in (5, 6, 7, 8)]
        + [("star", 8, True, False), ("star", 6, True, True),
           ("star", 6, False, True), ("star", 7, False, True)]
        + [("chain", 1500, False, False), ("chain", 1500, True, False),
           ("chain", 1000, False, True)])

    def build(self, rng: random.Random, tag) -> list[Case]:
        cases = []
        labels = [f"l{tag}x{i}" for i in range(16)]
        for kind, size, twin, count in self.kinds:
            if kind == "random":
                while True:
                    first = random_graph(rng, size, labels)
                    second = label_swap_twin(rng, first) if twin else first
                    if second is not None:
                        break
            else:
                make = star if kind == "star" else chain
                first, second = make(size), make(size, twin)
            if twin and kind == "star":
                # The factorial side of a star goes first, so the search
                # builds every permutation before rejecting.
                first, second = second, first
            second = renamed(second, rng)
            if twin:
                expect(checks.degree_invariant(first)
                       != checks.degree_invariant(second),
                       f"{kind} twin is not told apart by its degrees")
            expected = 0 if twin else (
                math.factorial(size) if kind == "star" else 1)
            cases.append(Case(f"{kind}{size}{'-twin' if twin else ''}"
                              f"{'-count' if count else ''}",
                              (graph_file(first, rng), graph_file(second, rng),
                               count),
                              (first, second, expected)))
        return cases

    @staticmethod
    def reference_work(rng: random.Random):
        first = random_graph(rng, 250, [f"l{i}" for i in range(16)])
        m = {v: f"w{v[1:]}" for v in first[0]}
        second = ({m[v]: l for v, l in first[0].items()},
                  [(m[s], m[d]) for s, d in first[1]])
        text = graph_file(first, rng)

        def work():
            json.loads(text)
            checks.verify_map(m, first, second)
            checks.degree_invariant(second)
        return work

    def operation(self, api, case: Case):
        first, second, count = case.inputs
        g1 = api.validate(api.from_json(first))
        g2 = api.validate(api.from_json(second))
        if count:
            return api.alpha_equiv_all(g1, g2)
        return api.alpha_equiv(g1, g2)

    def check(self, case: Case, out) -> None:
        first, second, expected = case.spec
        maps = out if case.inputs[2] else ([] if out is None else [out])
        if not case.inputs[2]:
            expected = min(expected, 1)
        expect(len(maps) == expected,
               f"{case.kind}: {len(maps)} maps, expected {expected}")
        for m in maps:
            checks.verify_map({v.name: w.name for v, w in m.items()},
                              first, second)


# --------------------------------------------------------------- enumerate

class Enumerate(Workload):
    """``lg enumerate --classes`` run in-process through ``lgraph.cli.run``.

    The enumerated formulas share subformula objects, unlike the corpus.
    """

    name = "enumerate"
    tail_percentile = 90.0
    name_pool = 0
    # (atoms, max connectives).  Twelve runs: the median falls inside the
    # five of two atoms and two connectives, the tail inside the two
    # heaviest.
    kinds = ((1, 2), (1, 2), (1, 2), (2, 2), (2, 2), (2, 2), (2, 2), (2, 2),
             (3, 2), (1, 3), (2, 3), (2, 3))

    def build(self, rng: random.Random, tag) -> list[Case]:
        cases = []
        for i, (n_atoms, bound) in enumerate(self.kinds):
            atoms = [f"{a}{tag}n{i}" for a in "pqr"[:n_atoms]]
            argv = ["enumerate", "--atoms", ",".join(atoms),
                    "--max-connectives", str(bound), "--classes"]
            cases.append(Case(f"{n_atoms}atoms{bound}", argv, (atoms, bound)))
        return cases

    @staticmethod
    def reference_work(rng: random.Random):
        def work():
            checks.class_table(["a"], 2)
            checks.class_table(["b"], 2)
        return work

    def operation(self, api, case: Case):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = api.run(case.inputs)
        return status, out.getvalue(), err.getvalue()

    def check(self, case: Case, out) -> None:
        status, stdout, stderr = out
        atoms, bound = case.spec
        expect(status == 0, f"{case.kind}: exit status {status}")
        classes, skipped = checks.class_table(atoms, bound)
        want = "".join(f"{key}\t{n}\n" for key, n in sorted(classes.items()))
        expect(stdout == want, f"{case.kind}: class table differs")
        note = (f"skipped {skipped} formulas outside the fragment\n"
                if skipped else "")
        expect(stderr == note, f"{case.kind}: stderr {stderr!r}")
        total = sum(int(line.rsplit("\t", 1)[1])
                    for line in stdout.splitlines()) + skipped
        expect(total == checks.formula_count(len(atoms), bound),
               f"{case.kind}: {total} formulas, expected "
               f"{checks.formula_count(len(atoms), bound)}")

WORKLOADS = {w.name: w for w in (Corpus(), Translate(), Iso(), Enumerate())}

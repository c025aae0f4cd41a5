"""Acceptance suite: one test per stated criterion, one PASS line each.

The exhaustive formula corpus (two atoms, up to five connectives; 1,037,685
formulas) drives the round-trip and normal-form criteria; the sweep runs
once per session, split across available CPUs.  Rewrite-closure invariance
is quantified exhaustively up to three connectives plus a seeded sample of
the larger formulas, because the literal full-corpus closure is billions of
normalisations; set LG_ACCEPT_FULL=1 to run the unabridged quantifier.

Correctness tolerances are exact as stated.  Stated sub-second runtimes are
hard-asserted; the sweep-style "expected runtime" figures are printed for
inspection and given a generous hard ceiling so a pathological regression
still fails.
"""

import os
import random
import time

import pytest

from lgraph import (Action, LabelId, NotASubgraphByName, NotInFragment,
                    NotWellFormed, RawGraph, VertexId, add, alpha_equiv,
                    canonical_key, conclusions, empty, enumerate_formulas,
                    fold_reachable, from_json, full_assumption_graph,
                    mk_graph_iso,
                    naive_iso, normalize, parse, print_formula, rename_graph,
                    rewrite_variants, singleton, subtract, to_formula,
                    to_graph, to_json, traverse_dfs, validate,
                    vertex_match_perms)
from lgraph import mill
from lgraph.core import Error, _up_closure
from lgraph.mill import Atom, Lolli, Tensor, Unit
from lgraph.oracle import count_formulas
from util import (G, L, V, flat_tensor, left_lolli, right_lolli,
                  right_tensor)

ATOMS = [LabelId("p"), LabelId("q")]
MAX_CONNECTIVES = 5
FULL_MODE = os.environ.get("LG_ACCEPT_FULL") == "1"
SEED = 20260810


def _corpus():
    return enumerate_formulas(ATOMS, MAX_CONNECTIVES)


def _child_graphs(corpus, upto):
    """Graphs of the first ``upto`` corpus formulas, keyed by identity.

    The enumeration shares subformula objects, so translating level by
    level turns each formula into a single algebra step over its already
    translated children.
    """
    from lgraph import implies
    cache = {}
    for f in corpus[:upto]:
        if isinstance(f, Unit):
            g = empty()
        elif isinstance(f, Atom):
            g = singleton(f.label)
        elif isinstance(f, Tensor):
            g = add(cache[id(f.left)], cache[id(f.right)]).graph
        else:
            g = implies(cache[id(f.left)], cache[id(f.right)]).graph
        cache[id(f)] = g
    return cache


def _graph_of(f, cache):
    from lgraph import implies
    g = cache.get(id(f))
    if g is not None:
        return g
    if isinstance(f, Tensor):
        return add(cache[id(f.left)], cache[id(f.right)]).graph
    return implies(cache[id(f.left)], cache[id(f.right)]).graph


def _sweep_range(bounds):
    """Round-trip every corpus formula in [start, end).

    Returns aggregate counts, the distinct canonical forms seen, and any
    formulas whose round trip failed.
    """
    start, end = bounds
    corpus = _corpus()
    lower = count_formulas(len(ATOMS), MAX_CONNECTIVES - 1)
    cache = _child_graphs(corpus, lower)
    key_graphs = {}
    failures = []
    checked = valid = 0
    for f in corpus[start:end]:
        checked += 1
        g = _graph_of(f, cache)
        try:
            promoted = validate(g)
        except Error:
            continue
        valid += 1
        key = canonical_key(promoted)
        round_graph = key_graphs.get(key)
        if round_graph is None:
            try:
                round_graph = validate(to_graph(parse(key)))
            except Error:
                failures.append(print_formula(f) + " (canonical form invalid)")
                continue
            key_graphs[key] = round_graph
        if alpha_equiv(round_graph, promoted) is None:
            failures.append(print_formula(f))
    return {"checked": checked, "valid": valid, "failures": failures,
            "canonicals": set(key_graphs)}


@pytest.fixture(scope="session")
def sweep():
    total = count_formulas(len(ATOMS), MAX_CONNECTIVES)
    workers = max(1, len(os.sched_getaffinity(0)))
    step = -(-total // workers)
    bounds = [(i, min(i + step, total)) for i in range(0, total, step)]
    started = time.perf_counter()
    if len(bounds) == 1:
        results = [_sweep_range(bounds[0])]
    else:
        import multiprocessing
        with multiprocessing.get_context("fork").Pool(len(bounds)) as pool:
            results = pool.map(_sweep_range, bounds)
    elapsed = time.perf_counter() - started
    merged = {
        "checked": sum(r["checked"] for r in results),
        "valid": sum(r["valid"] for r in results),
        "failures": sorted(f for r in results for f in r["failures"]),
        "canonicals": set().union(*(r["canonicals"] for r in results)),
        "elapsed": elapsed,
        "workers": len(bounds),
    }
    assert merged["checked"] == total
    return merged


def test_symmetry_collapse():
    started = time.perf_counter()
    variants = ["(p1 * p2) -o q", "(p2 * p1) -o q",
                "p2 -o (p1 -o q)", "p1 -o (p2 -o q)"]
    graphs = [to_graph(parse(text)) for text in variants]
    for g in graphs:
        for h in graphs:
            assert alpha_equiv(g, h) is not None
    outputs = {print_formula(normalize(parse(text))) for text in variants}
    elapsed = time.perf_counter() - started
    assert outputs == {"p1 * p2 -o q"}
    assert elapsed < 1.0
    print(f"\nacceptance symmetry-collapse: PASS ({elapsed * 1000:.0f} ms)")


def test_worked_example_graphs():
    two_part = validate(to_graph(parse("(f -o g) * ((a -o b*c) * d -o e)")))
    shared_atom = validate(to_graph(parse("a*b -o b*c")))
    ends = conclusions(two_part)
    assert sorted(str(two_part.labelling[v]) for v in ends) == ["e", "g"]
    assert len(shared_atom) == 4
    with pytest.raises(NotWellFormed):
        validate(G("a b c d", "a>c b>c b>d"))
    print("\nacceptance worked-examples: PASS")


def test_round_trip_over_full_corpus(sweep):
    assert sweep["failures"] == []
    assert sweep["valid"] > 0
    print(f"\nacceptance round-trip: PASS "
          f"({sweep['checked']} formulas, {sweep['valid']} in fragment, "
          f"{len(sweep['canonicals'])} canonical classes, "
          f"{sweep['elapsed']:.1f}s on {sweep['workers']} workers; "
          f"expected < 60 s)")
    assert sweep["elapsed"] < 300.0


def _rewrite_corpus(corpus):
    exhaustive_upto = count_formulas(len(ATOMS), 3)
    if FULL_MODE:
        return list(corpus)
    picked = list(corpus[:exhaustive_upto])
    rng = random.Random(SEED)
    picked.extend(rng.sample(corpus[exhaustive_upto:], 400))
    return picked


def test_normal_form_idempotent_and_rewrite_invariant(sweep):
    # Idempotence over the whole corpus: every formula's normal form is one
    # of the distinct canonicals, so re-normalising those covers all of it.
    for key in sorted(sweep["canonicals"]):
        again = normalize(parse(key))
        assert print_formula(again) == key
    corpus = _corpus()
    examined = _rewrite_corpus(corpus)
    variants_checked = 0
    for f in examined:
        try:
            expected = print_formula(normalize(f))
        except NotInFragment:
            expected = None
        for variant in rewrite_variants(f, 3):
            variants_checked += 1
            try:
                got = print_formula(normalize(variant))
            except NotInFragment:
                got = None
            assert got == expected, (print_formula(f), print_formula(variant))
    mode = "full corpus" if FULL_MODE else \
        f"exhaustive to 3 connectives + 400 sampled larger"
    print(f"\nacceptance normal-form: PASS "
          f"({len(sweep['canonicals'])} canonicals idempotent; "
          f"{len(examined)} formulas x depth-3 closure = "
          f"{variants_checked} variants checked; {mode})")


@pytest.fixture(scope="session")
def pair_corpus():
    """Distinct validated graphs plus the pairwise exhaustive-iso answers."""
    corpus = _corpus()
    exhaustive_upto = count_formulas(len(ATOMS), 3)
    rng = random.Random(SEED + 1)
    picked = list(corpus[:exhaustive_upto])
    picked.extend(rng.sample(corpus[exhaustive_upto:], 4000))
    graphs = {}
    for f in picked:
        g = to_graph(f)
        try:
            promoted = validate(g)
        except Error:
            continue
        from lgraph import to_json
        graphs.setdefault(to_json(promoted), promoted)
    reps = [graphs[k] for k in sorted(graphs)]
    keys = [canonical_key(g) for g in reps]
    multisets = [tuple(sorted(g.labelling.values())) for g in reps]
    started = time.perf_counter()
    naive_maps = {}
    for i, g in enumerate(reps):
        for j in range(i, len(reps)):
            if multisets[i] == multisets[j]:
                naive_maps[(i, j)] = naive_iso(g, reps[j])
    elapsed = time.perf_counter() - started
    return {"reps": reps, "keys": keys, "multisets": multisets,
            "naive": naive_maps, "naive_elapsed": elapsed}


def _closure_embedding_ok(m, g1, g2, closure):
    if set(m) != closure or len(set(m.values())) != len(m):
        return False
    if any(g1.labelling[v] != g2.labelling[w] for v, w in m.items()):
        return False
    return all((m[s], m[d]) in g2.edges
               for s, d in g1.edges if s in closure and d in closure)


def test_isomorphism_soundness_and_completeness(pair_corpus):
    started = time.perf_counter()
    reps = pair_corpus["reps"]
    multisets = pair_corpus["multisets"]
    naive = pair_corpus["naive"]
    # (a) whole-graph agreement on every pair
    for i, g in enumerate(reps):
        for j in range(i, len(reps)):
            h = reps[j]
            expected = bool(naive.get((i, j))) if multisets[i] == multisets[j] \
                else False
            assert (alpha_equiv(g, h) is not None) == expected
    # (b, c, d) seeded-search soundness and completeness on the pairs where
    # isomorphisms can exist at all
    same = [(i, j) for (i, j) in naive]
    pairs_checked = seeds_checked = 0
    for idx, (i, j) in enumerate(same):
        if idx % 17 and naive[(i, j)] == []:
            continue  # keep the negative pairs but thin them out
        g, h = reps[i], reps[j]
        whole = naive[(i, j)]
        pairs_checked += 1
        closures = {v: _up_closure(g, (v,)) for v in g.vertices()}
        for v1 in g.vertices():
            closure = closures[v1]
            for v2 in h.vertices():
                if g.labelling[v1] != h.labelling[v2]:
                    continue
                seeds_checked += 1
                maps = mk_graph_iso(g, v1, h, v2)
                frozen_maps = {frozenset(m.items()) for m in maps}
                assert len(frozen_maps) == len(maps)  # no duplicates
                for m in maps:  # soundness
                    assert _closure_embedding_ok(m, g, h, closure)
                restricted = {frozenset((v, m[v]) for v in closure)
                              for m in whole if m[v1] == v2}
                assert restricted <= frozen_maps  # completeness
                if len(closure) == len(g) and len(g.edges) == len(h.edges):
                    # A total injection that preserves edges forward into a
                    # graph with the same number of edges preserves them in
                    # both directions, so here the search must return
                    # exactly the global isomorphisms through (v1, v2).
                    total = {frozenset(m.items()) for m in maps
                             if len(m) == len(g)}
                    assert total == restricted  # exact set equality
    elapsed = time.perf_counter() - started + pair_corpus["naive_elapsed"]
    print(f"\nacceptance isomorphism: PASS "
          f"({len(reps)} graphs, {len(reps) * (len(reps) + 1) // 2} pairs, "
          f"{pairs_checked} seed pairs, {seeds_checked} seeded searches, "
          f"{elapsed:.1f}s; expected < 120 s)")
    assert elapsed < 600.0


def test_canonical_key_matches_alpha_equivalence(pair_corpus):
    reps = pair_corpus["reps"]
    keys = pair_corpus["keys"]
    multisets = pair_corpus["multisets"]
    naive = pair_corpus["naive"]
    for i in range(len(reps)):
        for j in range(i, len(reps)):
            if multisets[i] != multisets[j]:
                assert keys[i] != keys[j]
                continue
            assert (keys[i] == keys[j]) == bool(naive[(i, j)])
    print(f"\nacceptance canonical-key: PASS "
          f"({len(reps)} graphs, exhaustive pairwise)")


def _random_formula(rng, budget):
    if budget <= 1 or rng.random() < 0.3:
        return Atom(rng.choice([L("p"), L("q"), L("r")])) \
            if rng.random() > 0.1 else Unit()
    split = rng.randint(1, budget - 1)
    left = _random_formula(rng, split)
    right = _random_formula(rng, budget - split)
    return Tensor(left, right) if rng.random() < 0.5 else Lolli(left, right)


def _random_valid_graph(rng):
    while True:
        g = to_graph(_random_formula(rng, 5))
        try:
            return validate(g)
        except Error:
            continue


def test_algebra_laws():
    rng = random.Random(SEED + 2)
    rounds = 1000
    for _ in range(rounds):
        h = _random_valid_graph(rng)
        k = _random_valid_graph(rng)
        # unit, commutativity
        assert alpha_equiv(add(empty(), h).graph, h) is not None
        assert alpha_equiv(add(h, k).graph, add(k, h).graph) is not None
        # exact self-subtraction
        assert subtract(h, h) == empty()
        # subtraction of a renamed operand via the returned injections
        s = add(h, k)
        assert alpha_equiv(subtract(s.graph, rename_graph(h, s.inj1)), k) \
            is not None
        s2 = add(k, h)
        assert alpha_equiv(subtract(s2.graph, h), k) is not None
    rng3 = random.Random(SEED + 3)
    for _ in range(rounds):
        g = _random_valid_graph(rng3)
        h = _random_valid_graph(rng3)
        k = _random_valid_graph(rng3)
        left = add(add(g, h).graph, k).graph
        right = add(g, add(h, k).graph).graph
        assert alpha_equiv(left, right) is not None
    # Name sensitivity, concrete witnesses: subtracting the unrenamed
    # operand removes the wrong copy...
    h = G("v0:p")
    k = G("v0:p v1:q", "v0>v1")
    survivor = subtract(add(h, k).graph, h)
    assert survivor == G("v1:q v2:p")
    assert alpha_equiv(survivor, k) is None
    # ...and un-renamed right association can leave one side undefined
    # while the other is a graph.
    g = G("v2:p v0:p v1:q")
    lhs = subtract(g, add(h, k).graph)
    assert lhs == empty()
    with pytest.raises(NotASubgraphByName):
        subtract(subtract(g, h), k)
    print(f"\nacceptance algebra-laws: PASS ({rounds} sampled rounds each)")


def test_traversal_contract():
    diamond = G("a b c d", "a>b a>c b>d c>d")
    seq = traverse_dfs(lambda v, acc: (Action.CONTINUE, acc + [str(v)]),
                       diamond, V("d"), [])
    assert seq == ["d", "b", "a", "c", "a"]

    def stop_at(name):
        def f(v, acc):
            acc = acc + [str(v)]
            return (Action.STOP if str(v) == name else Action.CONTINUE), acc
        return f

    assert traverse_dfs(stop_at("b"), diamond, V("d"), []) == ["d", "b"]

    def skip_at(name):
        def f(v, acc):
            acc = acc + [str(v)]
            return (Action.SKIP if str(v) == name else Action.CONTINUE), acc
        return f

    assert traverse_dfs(skip_at("b"), diamond, V("d"), []) == ["d", "b", "c", "a"]
    cyclic = G("u:p w:p", "u>w w>u")
    assert fold_reachable(lambda v, n: n + 1, cyclic, V("u"), 0) == 2
    print("\nacceptance traversal: PASS")


def _chain(n):
    verts = [VertexId(f"n{i:06d}") for i in range(n)]
    labelling = {v: L("a") for v in verts}
    edges = [(verts[i], verts[i + 1]) for i in range(n - 1)]
    return validate(RawGraph(labelling, edges)), verts[-1]


def _best_of(repeats, fn):
    import gc
    best = None
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            started = time.perf_counter()
            fn()
            took = time.perf_counter() - started
            best = took if best is None else min(best, took)
    finally:
        if enabled:
            gc.enable()
    return best


def test_linear_scaling_of_assumptions_and_subtraction(tmp_path):
    sizes = [1_000, 3_162, 10_000, 31_623, 100_000]
    rows = []
    for n in sizes:
        g, last = _chain(n)
        tail = RawGraph({last: g.labelling[last]}, [])
        t_fag = _best_of(3, lambda: full_assumption_graph(g, last))
        t_sub = _best_of(3, lambda: subtract(g, tail))
        rows.append((n, t_fag, t_sub))
    biggest = rows[-1]
    assert biggest[1] < 1.0, f"full_assumption_graph at 1e5: {biggest[1]:.3f}s"
    assert biggest[2] < 1.0, f"subtract at 1e5: {biggest[2]:.3f}s"
    # Near-linear growth: the fitted log-log slope stays well clear of the
    # quadratic regime.  Hash-table locality makes the per-vertex constant
    # creep up across two decades, so allow up to 1.6 where a genuinely
    # quadratic implementation would sit at 2.
    import math
    upper = [(n, a, b) for n, a, b in rows if n >= 10_000]
    for column in (1, 2):
        xs = [math.log(r[0]) for r in upper]
        ys = [math.log(r[column]) for r in upper]
        n = len(xs)
        slope = (n * sum(x * y for x, y in zip(xs, ys)) - sum(xs) * sum(ys)) \
            / (n * sum(x * x for x in xs) - sum(xs) ** 2)
        assert 0.4 < slope < 1.6, f"log-log slope {slope:.2f}"
    plot_path = None
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
        fig, ax = plt.subplots()
        ax.loglog([r[0] for r in rows], [r[1] for r in rows], "o-",
                  label="full_assumption_graph")
        ax.loglog([r[0] for r in rows], [r[2] for r in rows], "s-",
                  label="subtract")
        ax.set_xlabel("chain length (vertices)")
        ax.set_ylabel("seconds")
        ax.legend()
        ax.grid(True, which="both", alpha=0.3)
        plot_path = os.path.join(os.path.dirname(__file__), "..",
                                 "build_artifacts")
        os.makedirs(plot_path, exist_ok=True)
        plot_path = os.path.abspath(os.path.join(plot_path, "linearity.png"))
        fig.savefig(plot_path, dpi=120)
        plt.close(fig)
    except ImportError:
        pass
    table = "; ".join(f"n={n}: {a * 1000:.0f}ms/{b * 1000:.0f}ms"
                      for n, a, b in rows)
    print(f"\nacceptance linear-scaling: PASS ({table})"
          + (f"; plot: {plot_path}" if plot_path else ""))


def _labels(n):
    return [L(f"a{i % 5}") for i in range(n)]


def _loglog_slope(sizes, times):
    import math
    xs = [math.log(n) for n in sizes]
    ys = [math.log(t) for t in times]
    k = len(xs)
    return (k * sum(x * y for x, y in zip(xs, ys)) - sum(xs) * sum(ys)) \
        / (k * sum(x * x for x in xs) - sum(xs) ** 2)


def test_to_graph_keeps_no_container_per_vertex():
    # The tracked containers a 1,000-atom flat * chain's graph keeps alive,
    # counted with the collector off so that none is freed meanwhile.  The
    # graph has no edges, so its adjacency is one shared map of empty
    # tuples; two lists per vertex would count about 2 per vertex.
    import gc
    n = 1_000
    f = flat_tensor(_labels(n))
    to_graph(f)  # names and string orders are made once per process
    enabled = gc.isenabled()
    gc.disable()
    try:
        before = len(gc.get_objects())
        g = to_graph(f)
        kept = len(gc.get_objects()) - before
    finally:
        if enabled:
            gc.enable()
    assert len(g) == n
    assert kept < 0.1 * n, f"{kept} tracked containers for {n} vertices"
    print(f"\nacceptance to_graph containers: PASS ({kept} for {n} "
          "vertices)")


def test_linear_scaling_of_to_graph():
    # Formulas are built directly: parse and Formula hashing still recurse.
    sizes = [1_000, 3_162, 10_000, 31_623, 100_000]
    shapes = {"flat *": flat_tensor, "left -o": left_lolli,
              "right -o": right_lolli}
    rows = {name: [] for name in shapes}
    for n in sizes:
        for name, build in shapes.items():
            f = build(_labels(n))
            rows[name].append(_best_of(3, lambda: to_graph(f)))
    for name, times in rows.items():
        assert times[-1] < 1.0, f"to_graph of a {name} chain at 1e5: " \
                                f"{times[-1]:.3f}s"
        slope = _loglog_slope(sizes[2:], times[2:])
        assert 0.4 < slope < 1.6, f"{name}: log-log slope {slope:.2f}"
    table = "; ".join(f"{name}: " + "/".join(f"{t * 1000:.0f}" for t in times)
                      + " ms" for name, times in rows.items())
    print(f"\nacceptance to_graph scaling: PASS (n={sizes}; {table})")


def test_linear_scaling_of_normalize():
    # normalize composes the peel tree from the formula and merges the
    # smaller of two lists into the larger; extending the left one instead
    # made the right-nested tensor quadratic (2.44 s at 4e4 atoms).
    sizes = [10_000, 31_623, 100_000]
    shapes = {"left *": flat_tensor, "right *": right_tensor,
              "left -o": left_lolli, "right -o": right_lolli}
    rows = {name: [] for name in shapes}
    for n in sizes:
        for name, build in shapes.items():
            f = build(_labels(n))
            rows[name].append(_best_of(3, lambda: normalize(f)))
            assert print_formula(normalize(f)) == \
                canonical_key(validate(to_graph(f))), f"{name} at {n}"
    for name, times in rows.items():
        assert times[-1] < 2.0, f"normalize of a {name} chain at 1e5: " \
                                f"{times[-1]:.3f}s"
        slope = _loglog_slope(sizes, times)
        assert 0.4 < slope < 1.6, f"{name}: log-log slope {slope:.2f}"
    table = "; ".join(f"{name}: " + "/".join(f"{t * 1000:.0f}" for t in times)
                      + " ms" for name, times in rows.items())
    print(f"\nacceptance normalize scaling: PASS (n={sizes}; {table})")


def test_normalize_in_the_class_scope_costs_what_plain_normalize_costs():
    # Inside the scope a formula met whole is walked once, as plain
    # normalize walks it; parsing its key and folding the normal form again
    # through the scope's level steps made it quadratic (7.7 s for a left
    # '*' chain of 4,000 atoms).  Each size is checked as it is timed, so a
    # quadratic route fails at the first one.
    sizes = [1_000, 3_162, 10_000]
    shapes = {"left *": flat_tensor, "right *": right_tensor,
              "left -o": left_lolli, "right -o": right_lolli}
    rows = {name: [] for name in shapes}

    def in_scope(f):
        with mill._sharing_classes():
            return normalize(f)

    for n in sizes:
        for name, build in shapes.items():
            f = build(_labels(n))
            assert print_formula(in_scope(f)) == \
                print_formula(normalize(f)), f"{name} at {n}"
            plain = _best_of(3, lambda: normalize(f))
            scoped = _best_of(3, lambda: in_scope(f))
            assert scoped <= 2 * plain + 0.05, f"{name} at {n}: " \
                f"{scoped:.3f}s in the scope, {plain:.3f}s plain"
            rows[name].append(scoped)
    for name, times in rows.items():
        slope = _loglog_slope(sizes, times)
        assert 0.4 < slope < 1.6, f"{name}: log-log slope {slope:.2f}"
    table = "; ".join(f"{name}: " + "/".join(f"{t * 1000:.0f}" for t in times)
                      + " ms" for name, times in rows.items())
    print(f"\nacceptance normalize in the class scope: PASS (n={sizes}; "
          f"{table})")


def test_add_of_a_large_graph_to_itself():
    # Every vertex of the left copy collides with the right copy; a scan
    # upward through the taken names for each of them made this quadratic
    # (16.7 s at n = 8,000).  Most of what is left is building the result
    # graph, so the bound at 1e5 is 2 s and the slope is the sharp test.
    sizes = [10_000, 31_623, 100_000]
    times = []
    for n in sizes:
        g = to_graph(flat_tensor(_labels(n)))
        times.append(_best_of(3, lambda: add(g, g)))
        result = add(g, g)
        assert len(result.graph) == 2 * n
        assert set(result.inj1.values()) == \
            {VertexId(f"v{i}") for i in range(n, 2 * n)}
    assert times[-1] < 2.0, f"add(g, g) at 1e5: {times[-1]:.3f}s"
    slope = _loglog_slope(sizes, times)
    assert 0.4 < slope < 1.6, f"log-log slope {slope:.2f}"
    print(f"\nacceptance add-renaming: PASS (n={sizes}: "
          + "/".join(f"{t * 1000:.0f}" for t in times) + " ms)")


def test_linear_scaling_of_alpha_equiv():
    # Every vertex of a same-label chain has one candidate image, so the
    # search is one pass down the chain; copying the partial map and
    # rebuilding its image set at each vertex made it quadratic (955 ms at
    # 5,000 vertices).
    sizes = [1_000, 3_162, 10_000, 31_623]
    times = []
    for n in sizes:
        g, _ = _chain(n)
        times.append(_best_of(3, lambda: alpha_equiv(g, g)))
        assert alpha_equiv(g, g) == {v: v for v in g.vertices()}
    slope = _loglog_slope(sizes, times)
    assert 0.4 < slope < 1.6, f"log-log slope {slope:.2f}"
    print(f"\nacceptance alpha_equiv scaling: PASS (n={sizes}: "
          + "/".join(f"{t * 1000:.0f}" for t in times) + " ms)")


@pytest.mark.parametrize("labels", [7, 1])
def test_linear_scaling_of_alpha_equiv_on_a_curried_star(labels):
    # a0 -o a1 -o ... -o q is a star: every premise implies q.  Each new
    # premise scanned the premise list of q's image from the start for an
    # unused vertex with its label, so this was quadratic (26.5 s at 32k
    # atoms).  With one label, every premise draws from one cell.
    sizes = [10_000, 31_623, 100_000]
    times = []
    for n in sizes:
        f = right_lolli([L(f"a{i % labels}") for i in range(n - 1)]
                        + [L("q")])
        g = validate(to_graph(f))
        h = validate(from_json(to_json(g)))
        times.append(_best_of(3, lambda: alpha_equiv(g, h)))
        assert alpha_equiv(g, h) == {v: v for v in g.vertices()}
    assert times[-1] < 2.0, f"alpha_equiv of a curried star at 1e5: " \
                            f"{times[-1]:.3f}s"
    slope = _loglog_slope(sizes, times)
    assert 0.4 < slope < 1.6, f"log-log slope {slope:.2f}"
    print(f"\nacceptance alpha_equiv curried-star scaling: PASS (n={sizes}: "
          + "/".join(f"{t * 1000:.0f}" for t in times) + " ms)")


def test_linear_scaling_of_alpha_equiv_on_shared_premises():
    # Premises p_i point to a and b, premises q_i to b and c, all with one
    # label.  The search maps a, then every p_i, then b, whose candidates
    # hold the p_i images, used through a.  A search that rescanned them
    # for every q_i was quadratic (90 s at 32k pairs).
    sizes = [3_000, 10_000, 30_000]
    times = []
    for k in sizes:
        lab = {V(v): L("x") for v in "abc"}
        edges = []
        for i in range(k):
            p, q = V(f"p{i:06d}"), V(f"q{i:06d}")
            lab[p] = lab[q] = L("x")
            edges += [(p, V("a")), (p, V("b")), (q, V("b")), (q, V("c"))]
        g = RawGraph(lab, edges)
        times.append(_best_of(3, lambda: alpha_equiv(g, g)))
        assert alpha_equiv(g, g) == {v: v for v in g.vertices()}
    assert times[-1] < 2.0, f"alpha_equiv of shared premises at 3e4: " \
                            f"{times[-1]:.3f}s"
    slope = _loglog_slope(sizes, times)
    assert 0.4 < slope < 1.6, f"log-log slope {slope:.2f}"
    print(f"\nacceptance alpha_equiv shared-premise scaling: PASS (k={sizes}: "
          + "/".join(f"{t * 1000:.0f}" for t in times) + " ms)")


def test_vertex_match_perms_with_every_member_mapped():
    # Each mapped member's image was looked up in the target list, with a
    # Python-level __eq__ per element, so this was quadratic (1.99 s at
    # 4,000 members).
    sizes = [1_000, 2_000, 4_000, 8_000]
    times = []
    for n in sizes:
        verts = [VertexId(f"u{i}") for i in range(n)]
        g = RawGraph({v: L("a") for v in verts}, [])
        m = {v: v for v in verts}
        times.append(_best_of(3, lambda: vertex_match_perms(g, verts, g,
                                                            verts, m)))
        assert vertex_match_perms(g, verts, g, verts, m) == [m]
    assert times[-1] < 0.5, f"vertex_match_perms at 8,000: {times[-1]:.3f}s"
    slope = _loglog_slope(sizes, times)
    assert slope < 1.6, f"log-log slope {slope:.2f}"
    print(f"\nacceptance vertex_match_perms scaling: PASS (n={sizes}: "
          + "/".join(f"{t * 1000:.0f}" for t in times) + " ms)")


def _right_tensor(labels):
    """l0 * (l1 * (... * ln)), the shape of one k-atom clique's key."""
    f = Atom(labels[-1])
    for label in reversed(labels[:-1]):
        f = Tensor(Atom(label), f)
    return f


def test_linear_scaling_of_canonical_key_and_print_formula():
    # Text was composed bottom-up, copying both operands at every level, so
    # the key and the printed text of a 10^5-deep formula took seconds.
    # Texts are checked against closed forms: == on deep formulas recurses.
    sizes = [10_000, 31_623, 100_000]
    rows = {}
    for n in sizes:
        labels = _labels(n)
        right = "".join(f"{l} * (" for l in labels[:-2]) + \
            f"{labels[-2]} * {labels[-1]}" + ")" * (n - 2)
        ordered = sorted(labels)
        key = "".join(f"{l} * (" for l in ordered[:-2]) + \
            f"{ordered[-2]} * {ordered[-1]}" + ")" * (n - 2)
        chain = "(" * (n - 2) + f"{labels[0]} -o {labels[1]}" + \
            "".join(f") -o {l}" for l in labels[2:])
        for shape, f, printed, keyed in (
                ("right *", _right_tensor(labels), right, key),
                ("left -o", left_lolli(labels), chain, chain)):
            g = validate(to_graph(f))
            assert print_formula(f) == printed
            assert canonical_key(g) == keyed
            rows.setdefault(f"print_formula {shape}", []).append(
                _best_of(3, lambda: print_formula(f)))
            rows.setdefault(f"canonical_key {shape}", []).append(
                _best_of(3, lambda: canonical_key(g)))
    for name, times in rows.items():
        assert times[-1] < 1.0, f"{name} at 1e5: {times[-1]:.3f}s"
        slope = _loglog_slope(sizes, times)
        assert 0.4 < slope < 1.6, f"{name}: log-log slope {slope:.2f}"
    table = "; ".join(f"{name}: " + "/".join(f"{t * 1000:.0f}" for t in times)
                      + " ms" for name, times in rows.items())
    print(f"\nacceptance key/print scaling: PASS (n={sizes}; {table})")

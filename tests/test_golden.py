"""Golden digests: one sha256 per family of public outputs.

Each family runs fixed, seeded inputs through the package and hashes every
outcome, one JSON line each, so any change to an output, an error message or
an order changes the family's digest.  The refimpl and naive_iso oracles
check that the outputs are right; these digests check that they stay the
same.  A change that alters a digest on purpose regenerates the file and says
which family moved and why:

    PYTHONPATH=src python tests/test_golden.py --write

``python tests/test_golden.py FAMILY`` prints one family's digest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from itertools import product
from pathlib import Path
from unittest import mock

import pytest

import lgraph
from lgraph import (LabelId, RawGraph, VertexId, alpha_equiv_all,
                    enumerate_formulas, mk_graph_iso, normalize,
                    predecessors, print_formula, to_graph, to_json, validate,
                    vertex_match_perms)
from lgraph import cli, mill
from lgraph.core import peel_tree
from lgraph.mill import Atom, Lolli, Tensor, Unit

GOLDEN = Path(__file__).with_name("golden.json")


def _digest(records) -> tuple[int, str]:
    h = hashlib.sha256()
    n = 0
    for record in records:
        h.update(json.dumps(record, ensure_ascii=False).encode() + b"\n")
        n += 1
    return n, h.hexdigest()


def _outcome(call, *args):
    """What call returns, or the type and message of the Error it raises."""
    try:
        return ["ok", call(*args)]
    except lgraph.Error as exc:
        return [type(exc).__name__, str(exc)]


# --- command line ---------------------------------------------------------

_FILES = {
    "g.json": '{"vertices":{"x":"p","y":"q","z":"r"},'
              '"edges":[["x","z"],["y","z"]]}',
    "renamed.json": '{"vertices":{"u":"p","v":"q","w":"r"},'
                    '"edges":[["u","w"],["v","w"]]}',
    "twin.json": '{"vertices":{"x":"p","y":"r","z":"q"},'
                 '"edges":[["x","z"],["y","z"]]}',
    "chain.json": '{"vertices":{"x":"p","y":"q","z":"r"},'
                  '"edges":[["x","y"],["y","z"]]}',
    "star.json": '{"vertices":{"c":"q","l1":"p","l2":"p","l3":"p"},'
                 '"edges":[["l1","c"],["l2","c"],["l3","c"]]}',
    "sub.json": '{"vertices":{"x":"p","z":"r"},"edges":[["x","z"]]}',
    "foreign.json": '{"vertices":{"x":"p","k":"r"},"edges":[]}',
    "nwf.json": '{"vertices":{"a":"p","b":"p","c":"p","x":"p","y":"p"},'
                '"edges":[["a","c"],["a","x"],["b","c"],["b","y"]]}',
    "cyclic.json": '{"vertices":{"a":"p","b":"q","c":"r"},'
                   '"edges":[["a","b"],["b","c"],["c","a"]]}',
    "unknown.json": '{"vertices":{"a":"p"},"edges":[["a","zz"]]}',
    "schema.json": '{"vertices":["a"],"edges":[]}',
    "empty-end.json": '{"vertices":{"a":"p"},"edges":[["a",""]]}',
    "surrogate.json": '{"vertices":{"a":"p","\\ud800":"p"},"edges":[]}',
    "label.json": '{"vertices":{"v":"p * q"},"edges":[]}',
    "quote.json": '{"vertices":{"a\\"b":"p\\\\q","c":"r"},'
                  '"edges":[["a\\"b","c"]]}',
    "formula.txt": "p2 -o (p1 -o q)\n",
    "bad-formula.txt": "p -o\n",
}

_ENUM = ["enumerate", "--atoms"]

_ARGVS = [
    [],
    ["parse"],
    ["parse", "p * (q -o r) -o s"],
    ["parse", "((p)) * 1"],
    ["parse", "@formula.txt"],
    ["parse", "@bad-formula.txt"],
    ["parse", "@missing.txt"],
    ["parse", "p q $"],
    ["parse", "(p * q"],
    ["parse", "p * 2"],
    ["parse", "p", "--wat"],
    ["to-graph", "p * q -o r"],
    ["to-graph", "(p -o q) -o r", "-o", "out.json"],
    ["to-graph", "1"],
    ["to-formula", "g.json"],
    ["to-formula", "label.json"],
    ["to-formula", "nwf.json"],
    ["to-formula", "cyclic.json"],
    ["to-formula", "undecodable.json"],
    ["normalize", "p2 -o (p1 -o q)"],
    ["normalize", "(p2 * p1) -o q"],
    ["normalize", "p -o (a -o b) * c"],
    ["normalize", "1 * p"],
    ["equiv", "p * q -o r", "q -o p -o r"],
    ["equiv", "p * q -o r", "p -o r"],
    ["equiv", "@formula.txt", "@g.json"],
    ["equiv", "@cyclic.json", "@cyclic.json"],
    ["iso", "g.json", "renamed.json"],
    ["iso", "--count", "g.json", "renamed.json"],
    ["iso", "--all", "star.json", "star.json"],
    ["iso", "--count", "star.json", "star.json"],
    ["iso", "g.json", "twin.json"],
    ["iso", "--count", "g.json", "twin.json"],
    ["iso", "--count", "--all", "g.json", "g.json"],
    ["iso", "cyclic.json", "cyclic.json"],
    ["check", "g.json"],
    ["check", "nwf.json"],
    ["check", "cyclic.json"],
    ["check", "unknown.json"],
    ["check", "schema.json"],
    ["check", "empty-end.json"],
    ["check", "missing.json"],
    ["add", "g.json", "chain.json"],
    ["add", "g.json", "g.json", "-o", "out.json"],
    ["implies", "chain.json", "star.json"],
    ["implies", "g.json", "nwf.json", "-o", "out.json"],
    ["subtract", "g.json", "sub.json"],
    ["subtract", "g.json", "sub.json", "-o", "out.json"],
    ["subtract", "g.json", "foreign.json"],
    ["conclusions", "star.json"],
    ["conclusions", "surrogate.json"],
    ["dot", "g.json"],
    ["dot", "quote.json"],
    [*_ENUM, "p,q", "--max-connectives", "2"],
    [*_ENUM, "p", "--max-connectives", "3", "--classes"],
    [*_ENUM, " p , q ,, ", "--max-connectives", "1", "--classes"],
    [*_ENUM, "1", "--max-connectives", "1"],
    [*_ENUM, "p,q r", "--max-connectives", "1"],
    [*_ENUM, "p", "--max-connectives", "-1"],
    [*_ENUM, "p", "--max-connectives", "1", "--max-count", "-1"],
    [*_ENUM, "p", "--max-connectives", "x"],
    [*_ENUM, "p,q,r", "--max-connectives", "6"],
    [*_ENUM, "p", "--max-connectives", "3", "--max-count", "10"],
    ["enumerate", "--max-connectives", "1"],
]


def _fault(f):
    raise RuntimeError("fault")


def _run_cli(argv: list[str]) -> list:
    """stdout, stderr and exit code of one in-process run, and any -o file."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv)
        except SystemExit as exc:  # --help and -h print, then exit
            code = exc.code
    written = None
    if os.path.exists("out.json"):
        written = Path("out.json").read_bytes().decode()
        os.remove("out.json")
    return [argv, code, out.getvalue(), err.getvalue(), written]


@contextlib.contextmanager
def _in_fixture_dir():
    """A fresh working directory holding _FILES, so paths in messages are
    the same relative names on every run."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, text in _FILES.items():
                Path(name).write_text(text + "\n", encoding="utf-8")
            Path("undecodable.json").write_bytes(b'{"vertices": "\xff"}')
            yield
        finally:
            os.chdir(cwd)


def family_cli():
    with _in_fixture_dir():
        for argv in _ARGVS:
            yield _run_cli(argv)
        # The last resort: any other exception is one error:internal line.
        with mock.patch.object(mill, "_key_text", _fault):
            yield _run_cli([*_ENUM, "p", "--max-connectives", "1",
                            "--classes"])


_COMMANDS = ["parse", "to-graph", "to-formula", "normalize", "equiv", "iso",
             "check", "add", "implies", "subtract", "conclusions", "dot",
             "enumerate"]


def family_cli_help():
    """``lg --help`` and each ``lg <command> -h``, as argparse renders them
    at 80 columns."""
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        yield _run_cli(["--help"])
        for command in _COMMANDS:
            yield _run_cli([command, "-h"])


# --- translation ----------------------------------------------------------

def family_translation():
    for f in enumerate_formulas([LabelId("p"), LabelId("q")], 3):
        normal = _outcome(lambda: print_formula(normalize(f)))
        yield [print_formula(f), to_json(to_graph(f)), normal]


# --- peel -----------------------------------------------------------------

_FOUR = [VertexId(name) for name in "abcd"]
_PAIRS = list(product(_FOUR, repeat=2))


def _peel_outcome(g: RawGraph) -> list:
    try:
        return ["tree", peel_tree(validate(g))]
    except lgraph.CyclicEdges as exc:
        return ["CyclicEdges", str(exc), exc.cycle]
    except lgraph.NotWellFormed as exc:
        return ["NotWellFormed", str(exc), exc.witness]


def family_peel():
    """Every one-label digraph on 4 vertices, self-loops included."""
    labelling = dict.fromkeys(_FOUR, LabelId("p"))
    for mask in range(1 << len(_PAIRS)):
        edges = [e for i, e in enumerate(_PAIRS) if mask >> i & 1]
        yield [mask, _peel_outcome(RawGraph(labelling, edges))]


# --- search ---------------------------------------------------------------

def _random_formula(rng: random.Random, atoms: str, connectives: int):
    if connectives == 0:
        if rng.random() < 0.1:
            return Unit()
        return Atom(LabelId(rng.choice(atoms)))
    left = rng.randrange(connectives)
    kind = rng.choice((Tensor, Lolli))
    return kind(_random_formula(rng, atoms, left),
                _random_formula(rng, atoms, connectives - 1 - left))


def _star(leaves: int) -> RawGraph:
    centre = VertexId("c")
    tips = [VertexId(f"l{i}") for i in range(leaves)]
    lab = {centre: LabelId("q"), **dict.fromkeys(tips, LabelId("p"))}
    return RawGraph(lab, [(t, centre) for t in tips])


def _renamed(rng: random.Random, g: RawGraph) -> RawGraph:
    fresh = [VertexId(f"w{i}") for i in range(len(g.labelling))]
    rng.shuffle(fresh)
    m = dict(zip(g.vertices(), fresh))
    return RawGraph({m[v]: l for v, l in g.labelling.items()},
                    [(m[s], m[d]) for s, d in g.edges])


def _twin(rng: random.Random, g: RawGraph) -> RawGraph:
    """Two vertices' labels swapped, or else one edge moved to a new head."""
    verts = list(g.vertices())
    lab = dict(g.labelling)
    distinct = [(v, w) for v in verts for w in verts if lab[v] < lab[w]]
    if distinct:
        v, w = rng.choice(distinct)
        lab[v], lab[w] = lab[w], lab[v]
        return RawGraph(lab, g.edges)
    edges = sorted(g.edges)
    if edges and len(verts) > 2:
        s, d = edges.pop(rng.randrange(len(edges)))
        edges.append((s, rng.choice([v for v in verts if v not in (s, d)])))
    return RawGraph(lab, edges)


def _search_graphs():
    rng = random.Random(2024)
    graphs = [_star(k) for k in range(1, 7)]
    for i in range(240):
        f = _random_formula(rng, "pq" if i % 3 else "p", 1 + i % 7)
        graphs.append(to_graph(f))
    for g in graphs:
        for h in (g, _renamed(rng, g), _twin(rng, g)):
            yield g, h


def _items(m: dict) -> list:
    return sorted(m.items())


def family_search():
    for g, h in _search_graphs():
        maps = _outcome(alpha_equiv_all, g, h)
        if maps[0] == "ok":
            maps[1] = [_items(m) for m in maps[1]]
        yield [to_json(g), to_json(h), maps]
        for v, w in product(g.vertices(), h.vertices()):
            if g.labelling[v] != h.labelling[w]:
                continue
            embeddings = [_items(m) for m in mk_graph_iso(g, v, h, w)]
            matches = [_items(m) for m in vertex_match_perms(
                g, predecessors(g, v), h, predecessors(h, w), {v: w})]
            yield [v, w, embeddings, matches]


FAMILIES = {
    "cli": family_cli,
    "cli-help": family_cli_help,
    "translation": family_translation,
    "peel": family_peel,
    "search": family_search,
}


def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("family", FAMILIES)
def test_family_keeps_its_digest(family):
    assert _digest(FAMILIES[family]())[1] == _golden()[family]


@pytest.mark.parametrize("seed", ["1", "2"])
def test_digest_does_not_depend_on_the_hash_seed(seed):
    package_root = str(Path(lgraph.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=package_root)
    out = subprocess.run([sys.executable, __file__, "search"], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == _golden()["search"]


def _main(args: list[str]) -> None:
    if args == ["--write"]:
        digests = {name: _digest(make())[1] for name, make in FAMILIES.items()}
        GOLDEN.write_text(json.dumps(digests, indent=2) + "\n",
                          encoding="utf-8")
    elif len(args) == 1 and args[0] in FAMILIES:
        print(_digest(FAMILIES[args[0]]())[1])
    else:
        sys.exit(f"usage: {sys.argv[0]} --write | {' | '.join(FAMILIES)}")


if __name__ == "__main__":
    _main(sys.argv[1:])

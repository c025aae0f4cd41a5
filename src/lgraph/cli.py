"""Command-line front end.

Formulas arrive inline (or from a file via @path); graphs cross the
boundary as JSON files in the canonical format.  Results go to stdout,
diagnostics to stderr.  Exit codes: 0 for success or a true answer, 1 for a
well-formed "no" (not equivalent, not isomorphic, graph rejected by check),
2 for errors, each reported as one line ``error:<kind>: detail``.
"""

from __future__ import annotations

import argparse
import re
import sys
from functools import cache

from . import algebra, core, iso, mill, oracle
from .core import CyclicEdges, NotASubgraphByName, NotWellFormed, UnknownVertex
from .mill import NotInFragment, ParseError
from .oracle import BoundsTooLarge


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _fail(kind: str, message: str) -> int:
    print(f"error:{kind}: {message}", file=sys.stderr)
    return 2


def _read_text(path: str) -> str:
    """A file's UTF-8 text; bytes that do not decode are an OSError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise OSError(f"{path}: {exc}") from None


def _read_formula_arg(arg: str) -> mill.Formula:
    return mill.parse(_read_text(arg[1:]) if arg.startswith("@") else arg)


def _read_graph_file(path: str) -> core.RawGraph:
    return core.from_json(_read_text(path))


def _read_operand(arg: str) -> core.RawGraph:
    """A formula (inline) or, after @, a file holding a graph or a formula."""
    if arg.startswith("@"):
        text = _read_text(arg[1:])
        if text.lstrip().startswith("{"):
            return core.from_json(text)
        return mill.to_graph(mill.parse(text))
    return mill.to_graph(mill.parse(arg))


def _emit_graph(g: core.RawGraph, out: str | None) -> None:
    text = core.to_json(g) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _dot_quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _dot(g: core.RawGraph) -> str:
    lines = ["digraph {"]
    for v in g.vertices():
        lines.append(f"  {_dot_quote(v.name)} [label="
                     f"{_dot_quote(g.labelling[v].name)}];")
    for s, d in g._sorted_edges:
        lines.append(f"  {_dot_quote(s.name)} -> {_dot_quote(d.name)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _format_map(m: iso.VMap) -> str:
    pairs = sorted(m.items(), key=lambda p: p[0].name)
    return " ".join(f"{v.name}->{w.name}" for v, w in pairs)


# Built once per process: building costs more than most commands take, and
# parse_args leaves the parser as it was.
@cache
def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="lg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a formula and print it back")
    p.add_argument("formula")

    p = sub.add_parser("to-graph", help="translate a formula to a graph file")
    p.add_argument("formula")
    p.add_argument("-o", "--output")

    p = sub.add_parser("to-formula", help="read a graph file back as a formula")
    p.add_argument("graph")

    p = sub.add_parser("normalize", help="canonicalise a formula")
    p.add_argument("formula")

    p = sub.add_parser("equiv", help="decide alpha-equivalence of two operands")
    p.add_argument("first")
    p.add_argument("second")

    p = sub.add_parser("iso", help="find isomorphisms between two graph files")
    p.add_argument("first")
    p.add_argument("second")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--count", action="store_true")
    group.add_argument("--all", action="store_true")

    p = sub.add_parser("check", help="validate a graph file")
    p.add_argument("graph")

    for name in ("add", "implies", "subtract"):
        p = sub.add_parser(name, help=f"{name} two graph files")
        p.add_argument("first")
        p.add_argument("second")
        p.add_argument("-o", "--output")

    p = sub.add_parser("conclusions", help="print the minimal vertices")
    p.add_argument("graph")

    p = sub.add_parser("dot", help="emit graphviz dot for a graph file")
    p.add_argument("graph")

    p = sub.add_parser("enumerate", help="enumerate formulas over given atoms")
    p.add_argument("--atoms", required=True,
                   help="comma-separated atom names")
    p.add_argument("--max-connectives", type=int, required=True)
    p.add_argument("--classes", action="store_true",
                   help="group by canonical form instead of listing")
    p.add_argument("--max-count", type=int, default=2_000_000)
    return parser


def _cmd_equiv(args) -> int:
    g1 = _read_operand(args.first)
    g2 = _read_operand(args.second)
    if iso.alpha_equiv(g1, g2) is not None:
        print("equivalent")
        return 0
    print("not-equivalent")
    return 1


def _cmd_iso(args) -> int:
    g1 = _read_graph_file(args.first)
    g2 = _read_graph_file(args.second)
    count = 0
    for m in iso._isomorphisms(g1, g2):  # streamed: no list of every map
        count += 1
        if not args.count:
            print(_format_map(m))
            if not args.all:  # the first map only
                break
    if args.count:
        print(count)
    return 0 if count else 1


def _cmd_check(args) -> int:
    g = _read_graph_file(args.graph)
    try:
        core.validate(g)
    except (CyclicEdges, NotWellFormed) as exc:
        kind = "cyclic" if isinstance(exc, CyclicEdges) else "not-well-formed"
        print(f"{kind}: {exc}", file=sys.stderr)
        return 1
    print("ok")
    return 0


def _cmd_enumerate(args) -> int:
    names = [name.strip() for name in args.atoms.split(",") if name.strip()]
    bad = [name for name in names if not re.fullmatch(mill._ATOM_NAME, name)]
    if bad:  # a name the syntax would not read back as that atom
        return _fail("usage", f"--atoms: {bad[0]!r} is not an atom name "
                     "(a letter, then letters, digits or _)")
    if args.max_connectives < 0:
        return _fail("usage", "--max-connectives must not be negative")
    if args.max_count < 0:
        return _fail("usage", "--max-count must not be negative")
    formulas = oracle.enumerate_formulas(list(map(core.LabelId, names)),
                                         args.max_connectives,
                                         max_count=args.max_count)
    if not args.classes:
        for f in formulas:
            print(mill.print_formula(f))
        return 0
    # The formulas are built from earlier ones, so the scope lets normalize
    # compose each class from its operands' classes, and it hands back one
    # formula per class: tally by identity and print each once.
    tally: dict[int, list] = {}  # id -> [normal form, count]
    skipped = 0
    with mill._sharing_classes():
        for f in formulas:
            try:
                normal = mill.normalize(f)
            except NotInFragment:
                skipped += 1
                continue
            tally.setdefault(id(normal), [normal, 0])[1] += 1
    for key, n in sorted((mill.print_formula(normal), n)
                         for normal, n in tally.values()):
        print(f"{key}\t{n}")
    if skipped:
        print(f"skipped {skipped} formulas outside the fragment",
              file=sys.stderr)
    return 0


def run(argv: list[str]) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as exc:
        return _fail("usage", str(exc))

    try:
        if args.command == "parse":
            print(mill.print_formula(_read_formula_arg(args.formula)))
            return 0
        if args.command == "to-graph":
            _emit_graph(mill.to_graph(_read_formula_arg(args.formula)),
                        args.output)
            return 0
        if args.command == "to-formula":
            g = core.validate(_read_graph_file(args.graph))
            print(mill._formula_key(g))
            return 0
        if args.command == "normalize":
            print(mill._key_text(_read_formula_arg(args.formula)))
            return 0
        if args.command == "equiv":
            return _cmd_equiv(args)
        if args.command == "iso":
            return _cmd_iso(args)
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "add":
            result = algebra.add(_read_graph_file(args.first),
                                 _read_graph_file(args.second))
            _emit_graph(result.graph, args.output)
            return 0
        if args.command == "implies":
            result = algebra.implies(_read_graph_file(args.first),
                                     _read_graph_file(args.second))
            _emit_graph(result.graph, args.output)
            return 0
        if args.command == "subtract":
            _emit_graph(algebra.subtract(_read_graph_file(args.first),
                                         _read_graph_file(args.second)),
                        args.output)
            return 0
        if args.command == "conclusions":
            for v in core.conclusions(_read_graph_file(args.graph)):
                print(v.name)
            return 0
        if args.command == "dot":
            sys.stdout.write(_dot(_read_graph_file(args.graph)))
            return 0
        if args.command == "enumerate":
            return _cmd_enumerate(args)
    except ParseError as exc:
        return _fail("syntax", str(exc))
    except NotInFragment as exc:
        return _fail("not-in-fragment", str(exc))
    except UnknownVertex as exc:
        return _fail("unknown-vertex", str(exc))
    except CyclicEdges as exc:
        return _fail("cyclic", str(exc))
    except NotWellFormed as exc:
        return _fail("not-well-formed", str(exc))
    except NotASubgraphByName as exc:
        return _fail("not-a-subgraph", str(exc))
    except BoundsTooLarge as exc:
        return _fail("bounds-too-large", str(exc))
    except OSError as exc:
        return _fail("io", str(exc))
    except core.Error as exc:
        return _fail("schema", str(exc))
    except Exception as exc:  # last resort: still one line and exit code 2
        return _fail("internal", f"{type(exc).__name__}: {exc}")
    raise AssertionError(f"unhandled command {args.command!r}")


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

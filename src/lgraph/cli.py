"""Command-line front end.

Formulas arrive inline (or from a file via @path); graphs cross the
boundary as JSON files in the canonical format.  Results go to stdout,
diagnostics to stderr.  Exit codes: 0 for success or a true answer, 1 for a
well-formed "no" (not equivalent, not isomorphic, graph rejected by check),
2 for errors, each reported as one line ``error:<kind>: detail``.

``_COMMANDS`` is the one list of commands: each row's name, help, arguments
and handler both build the parser and dispatch.  ``_ERROR_KINDS`` is the one
list of error kinds, read by ``run`` and by ``lg check``.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

from . import algebra, core, iso, mill, oracle
from .core import CyclicEdges, NotASubgraphByName, NotWellFormed, UnknownVertex
from .mill import NotInFragment, ParseError
from .oracle import BoundsTooLarge


class _UsageError(core.Error):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# Each error's kind, the first row whose class it is an instance of: the
# subclasses come before core.Error, their base.
_ERROR_KINDS = [
    (ParseError, "syntax"),
    (NotInFragment, "not-in-fragment"),
    (UnknownVertex, "unknown-vertex"),
    (CyclicEdges, "cyclic"),
    (NotWellFormed, "not-well-formed"),
    (NotASubgraphByName, "not-a-subgraph"),
    (BoundsTooLarge, "bounds-too-large"),
    (_UsageError, "usage"),
    (core.Error, "schema"),
]


def _kind(exc: core.Error) -> str:
    return next(kind for cls, kind in _ERROR_KINDS if isinstance(exc, cls))


def _read_text(path: str) -> str:
    """A file's UTF-8 text; bytes that do not decode are an OSError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise OSError(f"{path}: {exc}") from None


def _arg_text(arg: str) -> str:
    """The argument itself or, after @, the text of the file it names."""
    return _read_text(arg[1:]) if arg.startswith("@") else arg


def _read_formula_arg(arg: str) -> mill.Formula:
    return mill.parse(_arg_text(arg))


def _read_graph_file(path: str) -> core.RawGraph:
    return core.from_json(_read_text(path))


def _read_operand(arg: str) -> core.RawGraph:
    """A formula (inline) or, after @, a file holding a graph or a formula."""
    text = _arg_text(arg)
    if arg.startswith("@") and text.lstrip().startswith("{"):
        return core.from_json(text)
    return mill.to_graph(mill.parse(text))


def _emit_graph(g: core.RawGraph, out: str | None) -> None:
    text = core.to_json(g) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _dot_quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _cmd_dot(args) -> None:
    g = _read_graph_file(args.graph)
    lines = ["digraph {"]
    for v in g.vertices():
        lines.append(f"  {_dot_quote(v.name)} [label="
                     f"{_dot_quote(g.labelling[v].name)}];")
    for s, d in g._sorted_edges:
        lines.append(f"  {_dot_quote(s.name)} -> {_dot_quote(d.name)};")
    lines.append("}")
    sys.stdout.write("\n".join(lines) + "\n")


def _format_map(m: iso.VMap) -> str:
    pairs = sorted(m.items(), key=lambda p: p[0].name)
    return " ".join(f"{v.name}->{w.name}" for v, w in pairs)


def _cmd_equiv(args) -> int:
    g1 = _read_operand(args.first)
    g2 = _read_operand(args.second)
    equivalent = iso.alpha_equiv(g1, g2) is not None
    print("equivalent" if equivalent else "not-equivalent")
    return 0 if equivalent else 1


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


def _cmd_check(args) -> int | None:
    g = _read_graph_file(args.graph)
    try:
        core.validate(g)
    except (CyclicEdges, NotWellFormed) as exc:
        print(f"{_kind(exc)}: {exc}", file=sys.stderr)
        return 1
    print("ok")


def _cmd_combine(args) -> None:
    """add, implies or subtract: the algebra function of the command's name."""
    result = getattr(algebra, args.command)(_read_graph_file(args.first),
                                            _read_graph_file(args.second))
    _emit_graph(getattr(result, "graph", result), args.output)


def _cmd_conclusions(args) -> None:
    for v in core.conclusions(_read_graph_file(args.graph)):
        print(v.name)


def _cmd_enumerate(args) -> None:
    names = [name.strip() for name in args.atoms.split(",") if name.strip()]
    bad = [name for name in names if not mill._is_atom_name(name)]
    if bad:  # a name the syntax would not read back as that atom
        raise _UsageError(f"--atoms: {bad[0]!r} {mill._NOT_AN_ATOM_NAME}")
    if args.max_connectives < 0:
        raise _UsageError("--max-connectives must not be negative")
    if args.max_count < 0:
        raise _UsageError("--max-count must not be negative")
    formulas = oracle.enumerate_formulas(list(map(core.LabelId, names)),
                                         args.max_connectives,
                                         max_count=args.max_count)
    if not args.classes:
        for f in formulas:
            print(mill.print_formula(f))
        return
    # The formulas are built from earlier ones, so the scope lets normalize
    # compose each class from its operands' classes, and it hands back one
    # formula per class: tally by identity and print each key once.
    tally: dict[int, int] = {}  # id of a normal form -> count
    skipped = 0
    with mill._sharing_classes() as key_of:
        for f in formulas:
            try:
                normal = id(mill.normalize(f))
            except NotInFragment:
                skipped += 1
                continue
            tally[normal] = tally.get(normal, 0) + 1
        rows = sorted((key_of(normal), n) for normal, n in tally.items())
    for key, n in rows:
        print(f"{key}\t{n}")
    if skipped:
        print(f"skipped {skipped} formulas outside the fragment",
              file=sys.stderr)


# An argument is a positional's name, a tuple of an option's flags and its
# add_argument keywords, or a list of options that exclude each other.
_OUTPUT = ("-o", "--output", {})
_FLAG = {"action": "store_true"}
_COMBINE = ["first", "second", _OUTPUT]
_COMMANDS = [
    ("parse", "parse a formula and print it back", ["formula"],
     lambda args: print(mill.print_formula(_read_formula_arg(args.formula)))),
    ("to-graph", "translate a formula to a graph file", ["formula", _OUTPUT],
     lambda args: _emit_graph(mill.to_graph(_read_formula_arg(args.formula)),
                              args.output)),
    ("to-formula", "read a graph file back as a formula", ["graph"],
     lambda args: print(mill._formula_key(
         core.validate(_read_graph_file(args.graph))))),
    ("normalize", "canonicalise a formula", ["formula"],
     lambda args: print(mill._key_text(_read_formula_arg(args.formula)))),
    ("equiv", "decide alpha-equivalence of two operands", ["first", "second"],
     _cmd_equiv),
    ("iso", "find isomorphisms between two graph files",
     ["first", "second", [("--count", _FLAG), ("--all", _FLAG)]], _cmd_iso),
    ("check", "validate a graph file", ["graph"], _cmd_check),
    ("add", "add two graph files", _COMBINE, _cmd_combine),
    ("implies", "implies two graph files", _COMBINE, _cmd_combine),
    ("subtract", "subtract two graph files", _COMBINE, _cmd_combine),
    ("conclusions", "print the minimal vertices", ["graph"],
     _cmd_conclusions),
    ("dot", "emit graphviz dot for a graph file", ["graph"], _cmd_dot),
    ("enumerate", "enumerate formulas over given atoms",
     [("--atoms", {"required": True, "help": "comma-separated atom names"}),
      ("--max-connectives", {"type": int, "required": True}),
      ("--classes", {**_FLAG,
                     "help": "group by canonical form instead of listing"}),
      ("--max-count", {"type": int, "default": 2_000_000})],
     _cmd_enumerate),
]


def _add_arguments(parser, arguments) -> None:
    for arg in arguments:
        if isinstance(arg, str):
            parser.add_argument(arg)
        elif isinstance(arg, list):
            _add_arguments(parser.add_mutually_exclusive_group(), arg)
        else:
            *flags, options = arg
            parser.add_argument(*flags, **options)


# Built once per process: building costs more than most commands take, and
# parse_args leaves the parser as it was.
@cache
def _build_parser() -> _ArgumentParser:
    # The help shows the contract, not the docstring's last note (none: -OO).
    contract = __doc__ and __doc__.rsplit("\n\n", 1)[0]
    parser = _ArgumentParser(prog="lg", description=contract)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, summary, arguments, handler in _COMMANDS:
        p = sub.add_parser(name, help=summary)
        _add_arguments(p, arguments)
        p.set_defaults(handler=handler)
    return parser


def _fail(kind: str, message: str) -> int:
    print(f"error:{kind}: {message}", file=sys.stderr)
    return 2


def run(argv: list[str]) -> int:
    """Run the command argv names; its exit code (a handler's None is 0)."""
    try:
        args = _build_parser().parse_args(argv)
        return args.handler(args) or 0
    except core.Error as exc:
        return _fail(_kind(exc), str(exc))
    except OSError as exc:
        return _fail("io", str(exc))
    except Exception as exc:  # last resort: still one line and exit code 2
        return _fail("internal", f"{type(exc).__name__}: {exc}")


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

"""Command-line front end.

Pattern and graph arguments accept either a file path or the literal text
(inline patterns use '/' between rows, inline graphs ';' between lines).
Sequences are short enough to always pass inline.  Output is JSON by
default, one document per result and one line per streamed result; tsv is
available for spreadsheets.  Exit status: 0 success, 1 invalid input, 2 when
--require-exact is set and a search returned an inexact value.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Any, Iterable

from .cache import CacheStore
from .errors import InvalidInputError
from .extremal import ex_branch_bound, growth_records, growth_report_from_records
from .ordered_graphs import (
    Bipartition,
    go_family,
    og_bipartite_reduce,
    og_contains,
    og_ex_exact,
    og_insert_isolated,
    og_insert_split_vertex,
    og_key,
    og_reduce_smallest,
    parse_ordered_graph,
)
from .patterns import (
    canonical_key,
    contains,
    insert_split_column,
    insert_zero_line,
    parse_pattern,
    reduce_leftmost,
    scan_reduction,
)
from .pipeline import (
    _check_k,
    _col_range,
    _count_bound,
    candidate_documents,
    enumerate_og_candidates,
    known_mnl_2row,
)
from .records import DEFAULT_NODE_BUDGET
from .sequences import (
    ABABA,
    Sequence,
    format_sequence,
    insert_repeat,
    mnl_seq_candidates,
    parse_sequence,
    seq_contains,
    seq_ex_exact,
)

DEFAULT_ENUM_K_CAP = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def _load_text(value: str) -> str:
    if os.path.exists(value):
        return Path(value).read_text(encoding="utf-8")
    return value


def _load_pattern(value: str):
    return parse_pattern(_load_text(value))


def _load_graph(value: str):
    return parse_ordered_graph(_load_text(value))


def _parse_symbol(value: str) -> int:
    if value.isdigit():
        return int(value)
    if len(value) == 1 and "a" <= value <= "z":
        return ord(value) - 96
    raise InvalidInputError(f"bad symbol {value!r}: use a letter a-z or a positive integer")


def _cell(value: Any) -> str:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return str(value)
    return json.dumps(value)


def _emit(docs: Iterable[dict[str, Any]], fmt: str, out) -> None:
    if fmt == "json":
        for doc in docs:
            print(json.dumps(doc), file=out)
        return
    header: list[str] | None = None
    for doc in docs:
        if header is None:
            header = list(doc)
            print("\t".join(header), file=out)
        print("\t".join(_cell(doc.get(col)) for col in header), file=out)


def _resolve_cache(args: argparse.Namespace) -> CacheStore:
    path = args.cache or os.environ.get("MNL_CACHE") or "./mnl-cache.jsonl"
    return CacheStore(path)


def _default_seq_cap(args) -> int:
    _check_k(args.k)
    if args.cap is not None:
        return args.cap
    if args.k > DEFAULT_ENUM_K_CAP:
        raise InvalidInputError(
            f"--cap is required for k > {DEFAULT_ENUM_K_CAP} (computing the alternation cap gets expensive)"
        )
    record = seq_ex_exact(Sequence(ABABA), args.k, args.budget)
    if not record.exact:
        raise InvalidInputError("budget too small to compute the default cap; pass --cap")
    return record.value


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def _solver(kind: str, operand: str, load, key, solve):
    """ex, seq-ex and og-ex: answer from a cached exact record, else run the
    solver and cache what it found."""
    def operation(a) -> list[dict[str, Any]]:
        target = load(getattr(a, operand))
        store = _resolve_cache(a)
        hit = store.get(key(target), kind, a.n)
        if hit is not None and hit.exact:
            record, source = hit, "cache"
        else:
            record, source = solve(a.n, target, a.budget), "computed"
            store.put(record)
            if hit is not None and not record.exact and hit.value >= record.value:
                record, source = hit, "cache"
        a.exact = record.exact
        return [{**record.to_json_dict(), "source": source}]
    return operation


def _classify(a) -> list[dict[str, Any]]:
    p = _load_pattern(a.pattern)
    records = growth_records(p, a.n_max, a.budget)
    a.exact = all(rec.exact for rec in records)
    return [growth_report_from_records(canonical_key(p), records).to_json_dict()]


def _reduce_og_bipartite(args) -> list[dict[str, Any]]:
    g = _load_graph(args.graph)
    try:
        part_u = frozenset(int(tok) for tok in args.part_u.split(",") if tok.strip())
    except ValueError as exc:
        raise InvalidInputError(f"bad vertex list {args.part_u!r}") from exc
    part_v = frozenset(range(1, g.num_vertices + 1)) - part_u
    return [{"graph": str(og_bipartite_reduce(g, Bipartition(part_u, part_v)))}]


def _enum_candidates(args) -> Iterable[dict[str, Any]]:
    lo, hi = _col_range(args.k)
    col_min = args.col_min if args.col_min is not None else lo
    col_max = args.col_max if args.col_max is not None else hi
    if col_min > col_max:
        raise InvalidInputError(f"enum {args.mode}: --col-min {col_min} exceeds --col-max {col_max}")
    # a range outside [lo, hi] is refused by the enumeration itself
    if _count_bound(args.mode, args.k, max(col_min, lo), min(col_max, hi), args.budget) is None:
        raise InvalidInputError(
            f"enum {args.mode} --k {args.k}: the count bound over columns "
            f"[{col_min}, {col_max}] exceeds --budget {args.budget}"
        )
    if args.mode == "matrix":
        return candidate_documents(args.k, col_min, col_max)
    return (rep.to_json_dict() for rep in enumerate_og_candidates(args.k, col_min, col_max))


def _bounds(args) -> list[dict[str, Any]]:
    """The counting bound, refused once its partial sum has more decimal
    digits than Python converts to text."""
    if args.mode == "seq":
        first, last, flag = 1, _default_seq_cap(args), "--cap"
    else:
        (first, last), flag = _col_range(args.k), "--k"
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    value = _count_bound(args.mode, args.k, first, last, 10**digits - 1 if digits else None)
    if value is None:
        raise InvalidInputError(f"bounds {args.mode} --k {args.k}: the bound has more than {digits} digits; lower {flag}")
    return [{"mode": args.mode, "k": args.k, "bound": value}]


# Every command, one row per leaf in `mnl --help` order: (command, leaf,
# flags, operation).  A row with no leaf is a command of its own.  A leaf
# takes exactly its row's flags, besides --cache and --format, and prints the
# documents its operation builds from them.  The solvers look the engines up
# by name at call time, so a caller that rebinds mnl.cli.ex_branch_bound (say,
# to trace it) reaches the CLI.
_OPERATIONS = (
    ("contains", "matrix", "--haystack --needle",
     lambda a: [{"mode": a.mode, "contains": contains(_load_pattern(a.haystack), _load_pattern(a.needle))}]),
    ("contains", "seq", "--haystack --needle",
     lambda a: [{"mode": a.mode, "contains": seq_contains(parse_sequence(a.haystack), parse_sequence(a.needle))}]),
    ("contains", "og", "--haystack --needle",
     lambda a: [{"mode": a.mode, "contains": og_contains(_load_graph(a.haystack), _load_graph(a.needle))}]),
    ("ex", None, "--pattern --n --budget --require-exact", _solver(
        "matrix", "pattern", _load_pattern, canonical_key, lambda n, p, budget: ex_branch_bound(n, p, budget))),
    ("seq-ex", None, "--sequence --n --budget --require-exact", _solver(
        "sequence", "sequence", parse_sequence, format_sequence, lambda n, u, budget: seq_ex_exact(u, n, budget))),
    ("og-ex", None, "--graph --n --budget --require-exact", _solver(
        "ordered-graph", "graph", _load_graph, og_key, lambda n, g, budget: og_ex_exact(n, g, budget))),
    ("reduce", "leftmost", "--pattern",
     lambda a: [{"pattern": str(reduce_leftmost(_load_pattern(a.pattern)))}]),
    ("reduce", "scan", "--pattern",
     lambda a: [{"sequence": format_sequence(scan_reduction(_load_pattern(a.pattern)))}]),
    ("reduce", "og-smallest", "--graph",
     lambda a: [{"graph": str(og_reduce_smallest(_load_graph(a.graph)))}]),
    ("reduce", "og-bipartite", "--graph --part-u", _reduce_og_bipartite),
    ("transform", "split-column", "--pattern --row --col",
     lambda a: [{"pattern": str(insert_split_column(_load_pattern(a.pattern), a.row, a.col))}]),
    ("transform", "zero-line", "--pattern --axis --index",
     lambda a: [{"pattern": str(insert_zero_line(_load_pattern(a.pattern), a.axis, a.index))}]),
    ("transform", "insert-repeat", "--sequence --symbol --gap",
     lambda a: [{"sequence": format_sequence(
         insert_repeat(parse_sequence(a.sequence), _parse_symbol(a.symbol), a.gap))}]),
    ("transform", "split-vertex", "--graph --left --neighbor",
     lambda a: [{"graph": str(og_insert_split_vertex(_load_graph(a.graph), a.left, a.neighbor))}]),
    ("transform", "isolated", "--graph --position",
     lambda a: [{"graph": str(og_insert_isolated(_load_graph(a.graph), a.position))}]),
    ("enum", "matrix", "--k --col-min --col-max --budget", _enum_candidates),
    ("enum", "seq", "--k --cap --budget",
     lambda a: ({"sequence": format_sequence(u)} for u in mnl_seq_candidates(a.k, _default_seq_cap(a)))),
    ("enum", "og", "--k --col-min --col-max --budget", _enum_candidates),
    ("bounds", "matrix", "--k", _bounds),
    ("bounds", "seq", "--k --cap --budget", _bounds),
    ("bounds", "og", "--k", _bounds),
    ("classify", None, "--pattern --n-max --budget --require-exact", _classify),
    ("go-family", None, "--pattern",
     lambda a: ({"graph": str(g)} for g in sorted(go_family(_load_pattern(a.pattern)), key=str))),
    ("known", None, "", lambda a: (
        {"pattern": str(p)} for p in sorted(known_mnl_2row(), key=lambda p: (p.num_rows, p.num_cols, str(p))))),
    ("compact", None, "", lambda a: [{"kept": _resolve_cache(a).compact()}]),
)

# Each command's line in `mnl --help`, and for a command with leaves the
# attribute that holds the leaf's name.
_COMMANDS = {
    "contains": ("containment test", "mode"),
    "ex": ("matrix extremal value", None),
    "seq-ex": ("sequence extremal length", None),
    "og-ex": ("ordered-graph extremal edge count", None),
    "reduce": ("structural reductions", "kind"),
    "transform": ("pattern transformations", "kind"),
    "enum": ("candidate streams", "mode"),
    "bounds": ("counting bound formulas", "mode"),
    "classify": ("growth report", None),
    "go-family": ("bipartite realizations of a pattern", None),
    "known": ("the seven known 2-row matrices", None),
    "compact": ("rewrite the cache keeping best records", None),
}

# Flags are required and taken as text unless listed here.
_OPERAND_OPTIONS = {
    "--part-u": {"help": "comma-separated vertices of the first part"},
    "--axis": {"choices": ("row", "column")},
    "--cap": {"type": int, "required": False, "help": "run cap for sequence enumeration"},
    "--budget": {
        "type": int, "required": False, "default": DEFAULT_NODE_BUDGET,
        "help": "search node budget; enum matrix|og refuses a candidate-count bound above it",
    },
    "--require-exact": {"action": "store_true", "required": False, "help": "exit 2 if a result is inexact"},
    **dict.fromkeys(("--col-min", "--col-max"), {"type": int, "required": False}),
    **dict.fromkeys(
        ("--k", "--n", "--n-max", "--row", "--col", "--index", "--gap", "--left", "--neighbor", "--position"),
        {"type": int},
    ),
}


def _cmd_operation(args, out) -> int:
    """Print the documents of the operation argv named; exit 2 when
    --require-exact is set and a search lowered args.exact."""
    _emit(args.operation(args), args.format, out)
    return 2 if args.require_exact and not args.exact else 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _reached(argv: list[str]) -> tuple[str, str | None] | None:
    """The (command, leaf) row argv names in its first words, or None when it
    names none (help, a usage error)."""
    command = argv[0] if argv else None
    has_leaves = command in _COMMANDS and _COMMANDS[command][1] is not None
    row = command, argv[1] if has_leaves and len(argv) > 1 else None
    return row if any(row == (c, leaf) for c, leaf, _, _ in _OPERATIONS) else None


def build_parser(argv: list[str] | None = None) -> _Parser:
    """The parser of every command.  Given an argv that names one row of
    _OPERATIONS, only the parsers on that row's path are built: the other
    commands and leaves are registered by name alone, so usage lines read
    the same, and argparse only ever looks up the parser argv names.  Any
    other argv gets the full tree, so help pages and the errors of unknown
    names come from it."""
    target = None if argv is None else _reached(argv)
    common = _Parser(add_help=False)
    common.add_argument("--cache", default=None, help="cache path (default $MNL_CACHE or ./mnl-cache.jsonl)")
    common.add_argument("--format", choices=("json", "tsv"), default="json")

    parser = _Parser(prog="mnl", description=__doc__)
    parser.set_defaults(exact=True, require_exact=False)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    leaves = {}
    for command, leaf, flags, operation in _OPERATIONS:
        about, dest = _COMMANDS[command]
        if target is not None and command != target[0]:
            sub.choices.setdefault(command, None)
            continue
        if leaf is None:
            sp = sub.add_parser(command, parents=[common], help=about)
        else:
            if command not in leaves:
                leaves[command] = sub.add_parser(command, help=about).add_subparsers(
                    dest=dest, required=True, parser_class=_Parser)
            if target is not None and leaf != target[1]:
                leaves[command].choices[leaf] = None
                continue
            sp = leaves[command].add_parser(leaf, parents=[common])
        for flag in flags.split():
            sp.add_argument(flag, **{"required": True, **_OPERAND_OPTIONS.get(flag, {})})
        sp.set_defaults(operation=operation)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return _cmd_operation(args, sys.stdout)
    except (InvalidInputError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

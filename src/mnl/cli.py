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
    _col_range,
    _count_bound,
    enumerate_candidates,
    enumerate_og_candidates,
    known_mnl_2row,
    matrix_count_bound,
    og_count_bound,
    seq_count_bound,
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


def _emit_one(doc: dict[str, Any], fmt: str, out) -> None:
    _emit([doc], fmt, out)


def _resolve_cache(args: argparse.Namespace) -> CacheStore:
    path = args.cache or os.environ.get("MNL_CACHE") or "./mnl-cache.jsonl"
    return CacheStore(path)


def _default_seq_cap(args) -> int:
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
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_contains(args, out) -> int:
    if args.mode == "matrix":
        result = contains(_load_pattern(args.haystack), _load_pattern(args.needle))
    elif args.mode == "seq":
        result = seq_contains(parse_sequence(args.haystack), parse_sequence(args.needle))
    else:
        result = og_contains(_load_graph(args.haystack), _load_graph(args.needle))
    _emit_one({"mode": args.mode, "contains": result}, args.format, out)
    return 0


def _cmd_solve(args, out) -> int:
    """ex, seq-ex and og-ex: answer from a cached exact record, else run the
    subcommand's solver and cache what it found."""
    target = args.load(args.target)
    key = args.key(target)
    store = _resolve_cache(args)
    hit = store.get(key, args.kind, args.n)
    if hit is not None and hit.exact:
        record, source = hit, "cache"
    else:
        record, source = args.solve(args.n, target, args.budget), "computed"
        store.put(record)
        if hit is not None and not record.exact and hit.value >= record.value:
            record, source = hit, "cache"
    _emit_one({**record.to_json_dict(), "source": source}, args.format, out)
    return 2 if args.require_exact and not record.exact else 0


def _parse_vertex_list(text: str) -> frozenset[int]:
    try:
        return frozenset(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise InvalidInputError(f"bad vertex list {text!r}") from exc


def _cmd_reduce(args, out) -> int:
    if args.kind == "leftmost":
        result = {"pattern": str(reduce_leftmost(_load_pattern(args.pattern)))}
    elif args.kind == "scan":
        result = {"sequence": format_sequence(scan_reduction(_load_pattern(args.pattern)))}
    elif args.kind == "og-smallest":
        result = {"graph": str(og_reduce_smallest(_load_graph(args.graph)))}
    else:  # og-bipartite
        g = _load_graph(args.graph)
        part_u = _parse_vertex_list(args.part_u)
        part_v = frozenset(range(1, g.num_vertices + 1)) - part_u
        result = {"graph": str(og_bipartite_reduce(g, Bipartition(part_u, part_v)))}
    _emit_one(result, args.format, out)
    return 0


def _cmd_transform(args, out) -> int:
    if args.kind == "split-column":
        p = insert_split_column(_load_pattern(args.pattern), args.row, args.col)
        result = {"pattern": str(p)}
    elif args.kind == "zero-line":
        p = insert_zero_line(_load_pattern(args.pattern), args.axis, args.index)
        result = {"pattern": str(p)}
    elif args.kind == "insert-repeat":
        u = insert_repeat(parse_sequence(args.sequence), _parse_symbol(args.symbol), args.gap)
        result = {"sequence": format_sequence(u)}
    elif args.kind == "split-vertex":
        g = og_insert_split_vertex(_load_graph(args.graph), args.left, args.neighbor)
        result = {"graph": str(g)}
    else:  # isolated
        g = og_insert_isolated(_load_graph(args.graph), args.position)
        result = {"graph": str(g)}
    _emit_one(result, args.format, out)
    return 0


def _cmd_enum(args, out) -> int:
    if args.mode == "seq":
        cap = _default_seq_cap(args)
        docs = (
            {"sequence": format_sequence(u)} for u in mnl_seq_candidates(args.k, cap)
        )
        _emit(docs, args.format, out)
        return 0
    lo, hi = _col_range(args.k)
    col_min = args.col_min if args.col_min is not None else lo
    col_max = args.col_max if args.col_max is not None else hi
    # a range outside [lo, hi] is refused by the enumeration itself.  Each
    # term of the bound is at least 2^(i-1), so a range starting past the
    # budget's bit length is refused before its huge terms are computed.
    first, last = max(col_min, lo), min(col_max, hi)
    if first <= last and (
        first > args.budget.bit_length()
        or _count_bound(args.k, first, last, args.mode == "og") > args.budget
    ):
        raise InvalidInputError(
            f"enum {args.mode} --k {args.k}: the count bound over columns "
            f"[{col_min}, {col_max}] exceeds --budget {args.budget}"
        )
    if args.mode == "matrix":
        reports = enumerate_candidates(args.k, col_min, col_max)
    else:
        reports = enumerate_og_candidates(args.k, col_min, col_max)
    _emit((rep.to_json_dict() for rep in reports), args.format, out)
    return 0


def _cmd_bounds(args, out) -> int:
    if args.mode == "matrix":
        value = matrix_count_bound(args.k)
    elif args.mode == "og":
        value = og_count_bound(args.k)
    else:
        value = seq_count_bound(args.k, _default_seq_cap(args))
    _emit_one({"mode": args.mode, "k": args.k, "bound": value}, args.format, out)
    return 0


def _cmd_classify(args, out) -> int:
    p = _load_pattern(args.pattern)
    records = growth_records(p, args.n_max, args.budget)
    report = growth_report_from_records(canonical_key(p), records)
    _emit_one(report.to_json_dict(), args.format, out)
    if args.require_exact and not all(rec.exact for rec in records):
        return 2
    return 0


def _cmd_go_family(args, out) -> int:
    members = go_family(_load_pattern(args.pattern))
    _emit(({"graph": str(g)} for g in sorted(members, key=str)), args.format, out)
    return 0


def _cmd_known(args, out) -> int:
    members = sorted(known_mnl_2row(), key=lambda p: (p.num_rows, p.num_cols, str(p)))
    _emit(({"pattern": str(p)} for p in members), args.format, out)
    return 0


def _cmd_compact(args, out) -> int:
    kept = _resolve_cache(args).compact()
    _emit_one({"kept": kept}, args.format, out)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--cache", default=None, help="cache path (default $MNL_CACHE or ./mnl-cache.jsonl)")
    common.add_argument(
        "--budget", type=int, default=DEFAULT_NODE_BUDGET,
        help="search node budget; enum matrix|og refuses a candidate-count bound above it",
    )
    common.add_argument("--format", choices=("json", "tsv"), default="json")
    common.add_argument("--require-exact", action="store_true", help="exit 2 if a result is inexact")

    parser = _Parser(prog="mnl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sp = sub.add_parser("contains", parents=[common], help="containment test")
    sp.add_argument("mode", choices=("matrix", "seq", "og"))
    sp.add_argument("--haystack", required=True)
    sp.add_argument("--needle", required=True)
    sp.set_defaults(handler=_cmd_contains)

    # The solvers look the engines up by name at call time, so a caller that
    # rebinds mnl.cli.ex_branch_bound (say, to trace it) reaches the CLI.
    for name, flag, kind, load, key, solve, about in (
        ("ex", "--pattern", "matrix", _load_pattern, canonical_key,
         lambda n, p, budget: ex_branch_bound(n, p, budget), "matrix extremal value"),
        ("seq-ex", "--sequence", "sequence", parse_sequence, format_sequence,
         lambda n, u, budget: seq_ex_exact(u, n, budget), "sequence extremal length"),
        ("og-ex", "--graph", "ordered-graph", _load_graph, og_key,
         lambda n, g, budget: og_ex_exact(n, g, budget), "ordered-graph extremal edge count"),
    ):
        sp = sub.add_parser(name, parents=[common], help=about)
        sp.add_argument(flag, dest="target", metavar=flag[2:].upper(), required=True)
        sp.add_argument("--n", type=int, required=True)
        sp.set_defaults(handler=_cmd_solve, kind=kind, load=load, key=key, solve=solve)

    sp = sub.add_parser("reduce", parents=[common], help="structural reductions")
    sp.add_argument("kind", choices=("leftmost", "scan", "og-smallest", "og-bipartite"))
    sp.add_argument("--pattern")
    sp.add_argument("--graph")
    sp.add_argument("--part-u", help="comma-separated vertices of the first part")
    sp.set_defaults(handler=_cmd_reduce)

    sp = sub.add_parser("transform", parents=[common], help="pattern transformations")
    sp.add_argument("kind", choices=("split-column", "zero-line", "insert-repeat", "split-vertex", "isolated"))
    sp.add_argument("--pattern")
    sp.add_argument("--graph")
    sp.add_argument("--sequence")
    sp.add_argument("--row", type=int)
    sp.add_argument("--col", type=int)
    sp.add_argument("--axis", choices=("row", "column"))
    sp.add_argument("--index", type=int)
    sp.add_argument("--symbol")
    sp.add_argument("--gap", type=int)
    sp.add_argument("--left", type=int)
    sp.add_argument("--neighbor", type=int)
    sp.add_argument("--position", type=int)
    sp.set_defaults(handler=_cmd_transform)

    sp = sub.add_parser("enum", parents=[common], help="candidate streams")
    sp.add_argument("mode", choices=("matrix", "seq", "og"))
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--col-min", type=int, default=None)
    sp.add_argument("--col-max", type=int, default=None)
    sp.add_argument("--cap", type=int, default=None, help="run cap for sequence enumeration")
    sp.set_defaults(handler=_cmd_enum)

    sp = sub.add_parser("bounds", parents=[common], help="counting bound formulas")
    sp.add_argument("mode", choices=("matrix", "seq", "og"))
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--cap", type=int, default=None)
    sp.set_defaults(handler=_cmd_bounds)

    sp = sub.add_parser("classify", parents=[common], help="growth report")
    sp.add_argument("--pattern", required=True)
    sp.add_argument("--n-max", type=int, required=True)
    sp.set_defaults(handler=_cmd_classify)

    sp = sub.add_parser("go-family", parents=[common], help="bipartite realizations of a pattern")
    sp.add_argument("--pattern", required=True)
    sp.set_defaults(handler=_cmd_go_family)

    sp = sub.add_parser("known", parents=[common], help="the seven known 2-row matrices")
    sp.set_defaults(handler=_cmd_known)

    sp = sub.add_parser("compact", parents=[common], help="rewrite the cache keeping best records")
    sp.set_defaults(handler=_cmd_compact)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return args.handler(args, sys.stdout)
    except (InvalidInputError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

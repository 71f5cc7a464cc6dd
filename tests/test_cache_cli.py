import argparse
import contextlib
import io
import json
import multiprocessing
import re
import shlex
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import mnl.automaton
import mnl.cli
from mnl.cache import CacheStore
from mnl.cli import main
from mnl.ordered_graphs import parse_ordered_graph
from mnl.patterns import parse_pattern
from mnl.pipeline import enumerate_candidates, known_mnl_2row, matrix_count_bound, og_count_bound, seq_count_bound
from mnl.records import ExRecord
from mnl.sequences import parse_sequence

from oracles import naive_cache_get, naive_contains


def rec(key="1/1", kind="matrix", n=3, value=3, exact=True, nodes=10, ms=1):
    return ExRecord(key, kind, n, value, exact, nodes, ms)


def _slow_exact_put(path, value, start, outcomes):
    """One writer of a contradicting exact value, its lookups slowed so that
    writers that looked before another appended would all land."""
    lookup = CacheStore.get

    def slow_get(self, *key):
        found = lookup(self, *key)
        time.sleep(0.2)
        return found

    CacheStore.get = slow_get
    start.wait()
    try:
        CacheStore(path).put(rec(value=value, exact=True))
        outcomes.put("landed")
    except ValueError:
        outcomes.put("refused")


def _slow_compact(path, start):
    """Compact with a pause between reading the file and rewriting it."""
    scan = CacheStore._iter_records

    def slow_scan(self):
        records = list(scan(self))
        time.sleep(0.5)
        yield from records

    CacheStore._iter_records = slow_scan
    start.wait()
    CacheStore(path).compact()


def _late_put(path, start):
    start.wait()
    time.sleep(0.1)  # lands while the compaction pauses
    CacheStore(path).put(rec(n=4, value=4))


class TestCacheStore:
    def test_put_then_get(self, tmp_path):
        store = CacheStore(tmp_path / "c.jsonl")
        store.put(rec())
        got = store.get("1/1", "matrix", 3)
        assert got == rec()

    def test_exact_preferred_over_lower_bound(self, tmp_path):
        store = CacheStore(tmp_path / "c.jsonl")
        store.put(rec(value=3, exact=False))
        store.put(rec(value=5, exact=True, n=3))
        got = store.get("1/1", "matrix", 3)
        assert got.value == 5 and got.exact

    def test_get_empty(self, tmp_path):
        store = CacheStore(tmp_path / "c.jsonl")
        assert store.get("x", "matrix", 1) is None

    def test_larger_lower_bound_wins(self, tmp_path):
        store = CacheStore(tmp_path / "c.jsonl")
        store.put(rec(value=2, exact=False))
        store.put(rec(value=4, exact=False))
        assert store.get("1/1", "matrix", 3).value == 4

    def test_corrupt_line_skipped_with_warning(self, tmp_path, capsys):
        path = tmp_path / "c.jsonl"
        store = CacheStore(path)
        store.put(rec())
        with open(path, "a") as fh:
            fh.write("{not json\n")
        store.put(rec(n=4, value=4))
        assert store.get("1/1", "matrix", 3) == rec()
        assert "corrupt cache line" in capsys.readouterr().err

    @pytest.mark.parametrize("field,bad", [
        ("exact", "false"), ("exact", 1), ("exact", None),
        ("value", 3.9), ("value", "3"), ("value", True),
        ("n", 3.0), ("nodes_explored", "10"), ("elapsed_ms", False),
        ("key", 11), ("kind", ["matrix"]),
    ])
    def test_line_with_a_coerced_field_skipped_with_warning(self, tmp_path, capsys, field, bad):
        path = tmp_path / "c.jsonl"
        doc = dict(rec().to_json_dict(), **{field: bad})
        path.write_text(json.dumps(doc) + "\n")
        store = CacheStore(path)
        assert store.get("1/1", "matrix", 3) is None
        assert store.put(rec(value=2)) == rec(value=2)
        assert store.get("1/1", "matrix", 3) == rec(value=2)
        assert store.compact() == 1
        assert f"field {field!r} must be" in capsys.readouterr().err

    def test_invalid_line_of_another_key_silent_to_lookups_dropped_by_compact(self, tmp_path, capsys):
        path = tmp_path / "c.jsonl"
        store = CacheStore(path)
        store.put(rec())
        over = dict(rec(key="11/11", n=2, value=4).to_json_dict(), value=5)  # 5 > n^2
        with open(path, "a") as fh:
            fh.write(json.dumps(over) + "\n")
        assert store.get("1/1", "matrix", 3) == rec()
        assert store.put(rec(n=4, value=4)) == rec(n=4, value=4)
        assert capsys.readouterr().err == ""
        assert store.compact() == 2
        assert "corrupt cache line 2" in capsys.readouterr().err
        assert [json.loads(line)["key"] for line in path.read_text().splitlines()] == ["1/1", "1/1"]

    def test_concurrent_contradicting_exact_puts(self, tmp_path):
        ctx = multiprocessing.get_context("spawn")
        path = tmp_path / "c.jsonl"
        start, outcomes = ctx.Barrier(4), ctx.Queue()
        writers = [
            ctx.Process(target=_slow_exact_put, args=(path, value, start, outcomes))
            for value in (3, 4, 5, 6)
        ]
        for w in writers:
            w.start()
        got = sorted(outcomes.get(timeout=60) for _ in writers)
        for w in writers:
            w.join(10)
            assert not w.is_alive()
        assert got == ["landed", "refused", "refused", "refused"]
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert CacheStore(path).get("1/1", "matrix", 3).value == json.loads(lines[0])["value"]

    def test_put_during_compact_is_kept(self, tmp_path):
        ctx = multiprocessing.get_context("spawn")
        path = tmp_path / "c.jsonl"
        CacheStore(path).put(rec(n=3))
        start = ctx.Barrier(2)
        workers = [ctx.Process(target=job, args=(path, start)) for job in (_slow_compact, _late_put)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(60)
            assert w.exitcode == 0
        store = CacheStore(path)
        assert store.get("1/1", "matrix", 3) == rec(n=3)
        assert store.get("1/1", "matrix", 4) == rec(n=4, value=4)

    def test_put_after_torn_line_is_kept(self, tmp_path):
        path = tmp_path / "c.jsonl"
        store = CacheStore(path)
        store.put(rec(n=3))
        text = path.read_text()
        path.write_text(text[: len(text) // 2])  # an append cut off mid-line
        store.put(rec(n=4, value=4))
        assert store.get("1/1", "matrix", 4) == rec(n=4, value=4)

    def test_exact_conflict_refused(self, tmp_path):
        store = CacheStore(tmp_path / "c.jsonl")
        store.put(rec(value=3, exact=True))
        with pytest.raises(ValueError, match="conflict"):
            store.put(rec(value=4, exact=True))

    def test_duplicate_exact_not_appended(self, tmp_path):
        path = tmp_path / "c.jsonl"
        store = CacheStore(path)
        store.put(rec())
        store.put(rec())
        assert len(path.read_text().splitlines()) == 1

    def test_compact_keeps_best(self, tmp_path):
        path = tmp_path / "c.jsonl"
        store = CacheStore(path)
        store.put(rec(value=2, exact=False))
        store.put(rec(value=3, exact=False))
        store.put(rec(value=5, exact=True))
        kept = store.compact()
        assert kept == 1
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["value"] == 5


# keys that overlap as text (1/1 in 11/11, ab in aba) or need escapes in JSON
CACHE_KEYS = ("11/11", "1/1", "11/11/11", "ab", "aba", 'a"b', "a\\b", "\u00e9/1")
BAD_FIELDS = {
    "exact": ("false", 1, None),
    "n": (2.0, "2", True),
    "value": (3.9, "3", False),
    "nodes_explored": (1.5,),
    "elapsed_ms": ("1",),
    "key": (11,),
    "kind": (["matrix"],),
}
GARBAGE = ("garbage", "{not json", "[1, 2]", "null", "{}", '"11/11"', "}{", "{")


def spell_record(doc, spelling, compact):
    """The record's JSON text with its key spelled one of several ways that
    all decode to the same key."""
    comma, colon = (",", ":") if compact else (", ", ": ")
    key = doc["key"]
    text = json.dumps(key)
    if isinstance(key, str):
        if spelling == "slash":
            text = text.replace("/", "\\/")
        elif spelling == "unicode" and key[0].isascii():  # a letter or digit
            text = '"\\u%04x' % ord(key[0]) + text[2:]
        elif spelling == "raw":
            text = json.dumps(key, ensure_ascii=False)
    rest = json.dumps({k: v for k, v in doc.items() if k != "key"}, separators=(comma, colon))
    return '{"key"' + colon + text + comma + rest[1:]


@st.composite
def cache_file(draw):
    """A query (key, kind, n) and cache lines around it: records under it and
    under other keys in several spellings, records with a bad field, torn
    halves, garbage and blank lines."""
    triple = st.tuples(st.sampled_from(CACHE_KEYS), st.sampled_from(("matrix", "sequence")), st.integers(1, 3))
    query = draw(triple)
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        key, kind, n = query if draw(st.booleans()) else draw(triple)
        doc = ExRecord(key, kind, n, draw(st.integers(0, n * n)), draw(st.booleans()), 1, 0).to_json_dict()
        shape = draw(st.sampled_from(("record", "record", "bad-field", "over-bound", "torn", "garbage", "blank")))
        if shape == "bad-field":
            field = draw(st.sampled_from(sorted(BAD_FIELDS)))
            doc[field] = draw(st.sampled_from(BAD_FIELDS[field]))
        elif shape == "over-bound":
            doc.update(kind="matrix", value=n * n + 1)
        spelling = draw(st.sampled_from(("plain", "slash", "unicode", "raw")))
        line = spell_record(doc, spelling, compact=draw(st.booleans()))
        if shape == "torn":
            cut = draw(st.integers(1, len(line) - 1))
            line = draw(st.sampled_from((line[:cut], line[cut:])))
        elif shape == "garbage":
            line = draw(st.sampled_from(GARBAGE))
        elif shape == "blank":
            line = draw(st.sampled_from(("", "   ")))
        lines.append(line)
    return query, lines


class TestFilteredLookup:
    @settings(derandomize=True, deadline=None, database=None, max_examples=400)
    @given(cache_file(), st.booleans())
    def test_get_matches_full_decode_and_warns_on_torn_lines(self, case, final_newline):
        (key, kind, n), lines = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.jsonl"
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write("\n".join(lines) + ("\n" if final_newline else ""))
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                got = CacheStore(path).get(key, kind, n)
            assert got == naive_cache_get(path, key, kind, n)
        warned = {int(m) for m in re.findall(r"corrupt cache line (\d+) in", err.getvalue())}
        stripped = {lineno: line.strip() for lineno, line in enumerate(lines, start=1)}
        not_braced = {i for i, t in stripped.items() if t and not (t[0] == "{" and t[-1] == "}")}
        assert not_braced <= warned
        for lineno in warned:
            with pytest.raises((KeyError, TypeError, ValueError)):
                ExRecord.from_json_dict(json.loads(stripped[lineno]))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cache_args(tmp_path):
    return ("--cache", str(tmp_path / "cache.jsonl"))


@pytest.fixture
def digit_limit():
    """Python's default limit on int-to-text conversion, 4300 digits."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter converts ints of any length")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


class TestCliBasics:
    def test_ex_identity(self, tmp_path, capsys):
        pfile = tmp_path / "p.txt"
        pfile.write_text("11\n")
        code, out, _ = run_cli(capsys, "ex", "--pattern", str(pfile), "--n", "5", *cache_args(tmp_path))
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == 5 and doc["exact"] and doc["source"] == "computed"

    def test_warm_cache_marks_source(self, tmp_path, capsys):
        args = ("ex", "--pattern", "11", "--n", "4", *cache_args(tmp_path))
        run_cli(capsys, *args)
        code, out, _ = run_cli(capsys, *args)
        doc = json.loads(out)
        assert code == 0 and doc["source"] == "cache" and doc["value"] == 4

    def test_cached_string_exact_not_trusted(self, tmp_path, capsys):
        path = tmp_path / "cache.jsonl"
        doc = dict(rec(key="11/11", n=3, value=9).to_json_dict(), exact="false")
        path.write_text(json.dumps(doc) + "\n")
        code, out, err = run_cli(capsys, "ex", "--pattern", "11/11", "--n", "3", "--cache", str(path))
        assert code == 0 and "corrupt cache line 1" in err
        doc = json.loads(out)
        assert (doc["value"], doc["exact"], doc["source"]) == (6, True, "computed")

    def test_bounds(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "bounds", "matrix", "--k", "2", *cache_args(tmp_path))
        assert code == 0
        assert json.loads(out)["bound"] == 579

    def test_known_roundtrip(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "known", *cache_args(tmp_path))
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 7
        for line in lines:
            text = json.loads(line)["pattern"]
            assert str(parse_pattern(text)) == text

    def test_contains_modes(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "contains", "matrix", "--haystack", "1010/0101", "--needle", "101/011", *cache_args(tmp_path)
        )
        assert code == 0 and json.loads(out)["contains"] is False
        code, out, _ = run_cli(
            capsys, "contains", "seq", "--haystack", "ababa", "--needle", "abab", *cache_args(tmp_path)
        )
        assert json.loads(out)["contains"] is True
        code, out, _ = run_cli(
            capsys, "contains", "og", "--haystack", "n=4;1 3;2 4", "--needle", "n=4;1 2;3 4", *cache_args(tmp_path)
        )
        assert json.loads(out)["contains"] is False

    def test_reduce_and_transform_roundtrip(self, tmp_path, capsys):
        _, out, _ = run_cli(capsys, "reduce", "scan", "--pattern", "1010/0101", *cache_args(tmp_path))
        assert json.loads(out)["sequence"] == "abab"
        _, out, _ = run_cli(capsys, "reduce", "leftmost", "--pattern", "101/011", *cache_args(tmp_path))
        assert json.loads(out)["pattern"] == "001/001"
        _, out, _ = run_cli(
            capsys, "transform", "split-column", "--pattern", "11/11", "--row", "1", "--col", "1", *cache_args(tmp_path)
        )
        assert parse_pattern(json.loads(out)["pattern"]) == parse_pattern("111/101")
        _, out, _ = run_cli(
            capsys, "transform", "insert-repeat", "--sequence", "abab", "--symbol", "b", "--gap", "2", *cache_args(tmp_path)
        )
        assert json.loads(out)["sequence"] == "abbab"
        _, out, _ = run_cli(
            capsys, "transform", "isolated", "--graph", "n=2;1 2", "--position", "1", *cache_args(tmp_path)
        )
        assert parse_ordered_graph(json.loads(out)["graph"]) == parse_ordered_graph("n=3;1 3")
        _, out, _ = run_cli(
            capsys, "reduce", "og-bipartite", "--graph", "n=4;1 2;1 4;3 4", "--part-u", "1,3", *cache_args(tmp_path)
        )
        assert parse_ordered_graph(json.loads(out)["graph"]) == parse_ordered_graph("n=4;1 4")

    def test_seq_and_og_ex(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "seq-ex", "--sequence", "abab", "--n", "3", *cache_args(tmp_path))
        assert json.loads(out)["value"] == 5
        code, out, _ = run_cli(capsys, "og-ex", "--graph", "n=2;1 2", "--n", "6", *cache_args(tmp_path))
        assert json.loads(out)["value"] == 0

    def test_classify(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "classify", "--pattern", "11", "--n-max", "6", *cache_args(tmp_path))
        doc = json.loads(out)
        assert code == 0
        assert doc["classification"] == "apparently-linear"
        assert doc["increments"] == [1, 1, 1, 1, 1]

    def test_go_family(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "go-family", "--pattern", "11", *cache_args(tmp_path))
        lines = out.strip().splitlines()
        assert len(lines) == 3
        for line in lines:
            text = json.loads(line)["graph"]
            assert str(parse_ordered_graph(text)) == text

    def test_enum_matrix_stream(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "enum", "matrix", "--k", "2", *cache_args(tmp_path))
        assert code == 0
        docs = [json.loads(line) for line in out.strip().splitlines()]
        assert any(d["verdict"] == "known-mnl" and d["pattern"] == "11/11" for d in docs)
        for d in docs[:5]:
            assert {"pattern", "checks", "verdict"} <= set(d)
            assert all({"name", "status", "detail"} == set(c) for c in d["checks"])

    def test_enum_seq_stream(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "enum", "seq", "--k", "2", "--cap", "4", *cache_args(tmp_path))
        words = [json.loads(line)["sequence"] for line in out.strip().splitlines()]
        assert "abab" in words and "ababa" in words
        for w in words:
            assert str(parse_sequence(w)) == w

    @pytest.mark.parametrize("k, col_min, col_max", [(2, 1, 6), (3, 2, 10), (4, 2, 5)])
    def test_enum_matrix_documents_equal_library_reports(self, tmp_path, capsys, k, col_min, col_max):
        # the CLI writes each survivor's document from its column masks
        docs = [r.to_json_dict() for r in enumerate_candidates(k, col_min, col_max)]
        argv = ["enum", "matrix", "--k", str(k), "--col-min", str(col_min), "--col-max", str(col_max)]
        code, out, _ = run_cli(capsys, *argv, *cache_args(tmp_path))
        assert code == 0 and out.splitlines() == [json.dumps(d) for d in docs]
        code, out, _ = run_cli(capsys, *argv, "--format", "tsv", *cache_args(tmp_path))
        expected = io.StringIO()
        mnl.cli._emit(docs, "tsv", expected)
        assert code == 0 and out == expected.getvalue()

    def test_enum_matrix_level_cap_ends_the_stream(self, tmp_path, capsys, monkeypatch):
        _, out, _ = run_cli(capsys, "enum", "matrix", "--k", "3", *cache_args(tmp_path))
        full = out.splitlines()
        monkeypatch.setattr(mnl.automaton, "MAX_MEMO_ENTRIES", 200)
        code, out, err = run_cli(capsys, "enum", "matrix", "--k", "3", *cache_args(tmp_path))
        assert code == 1
        # the levels hold 7, 39, 134, 306, ... prefixes, so level 4 is the first too large
        assert err.strip() == (
            "error: more than 200 prefixes of 4 columns; the candidate stream is complete only through 3 columns"
        )
        # every report of 2 and 3 columns was printed, in order, and no other
        width = [len(json.loads(line)["pattern"].split("/")[0]) for line in full]
        assert out.splitlines() == [line for line, cols in zip(full, width) if cols <= 3]
        assert sorted(set(width)) == list(range(2, 11)) and width.count(2) + width.count(3) == 113

    def test_enum_seq_level_cap_ends_the_stream(self, tmp_path, capsys, monkeypatch):
        _, out, _ = run_cli(capsys, "enum", "seq", "--k", "3", *cache_args(tmp_path))
        full = [json.loads(line)["sequence"] for line in out.splitlines()]
        monkeypatch.setattr(mnl.automaton, "MAX_MEMO_ENTRIES", 100)
        code, out, err = run_cli(capsys, "enum", "seq", "--k", "3", *cache_args(tmp_path))
        assert code == 1
        match = re.search(r"complete only through (\d+) letters$", err.strip())
        assert match, err
        last = int(match.group(1))
        words = [json.loads(line)["sequence"] for line in out.splitlines()]
        # no word longer than the last complete length was printed, and
        # every word up to it was, in order
        assert max(map(len, words)) <= last
        assert words == [w for w in full if len(w) <= last]
        assert max(map(len, full)) > last

    def test_enum_k_cap(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "enum", "matrix", "--k", "5", *cache_args(tmp_path))
        assert code == 1 and "--budget" in err

    # a prefix holds one byte per column, so a budget past the counting
    # bound still gets no 9-row stream
    @pytest.mark.parametrize("mode", ["matrix", "og"])
    def test_enum_more_than_8_rows_refused(self, tmp_path, capsys, mode):
        argv = ["enum", mode, "--k", "9", "--budget", str(10**80)]
        code, out, err = run_cli(capsys, *argv, *cache_args(tmp_path))
        assert code == 1 and out == ""
        assert err.strip() == "error: the matrix construction takes at most 8 rows, got k=9"

    # k=100000 is refused before its bound, with terms of millions of digits, is built
    @pytest.mark.parametrize("mode, k", [("matrix", "4"), ("og", "3"), ("og", "100000")])
    def test_enum_count_bound_above_budget_refused(self, tmp_path, capsys, mode, k):
        code, out, err = run_cli(capsys, "enum", mode, "--k", k, *cache_args(tmp_path))
        assert code == 1 and out == "" and "--budget 100000000" in err

    def test_enum_empty_column_range_refused(self, tmp_path, capsys):
        for mode in ("matrix", "og"):
            code, out, err = run_cli(
                capsys, "enum", mode, "--k", "3", "--col-min", "5", "--col-max", "4", *cache_args(tmp_path)
            )
            assert code == 1 and out == ""
            assert "--col-min 5 exceeds --col-max 4" in err

    # the full k=3 range; filtering every construction pattern gives the same 2,129
    def test_enum_matrix_k3_full_stream(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "enum", "matrix", "--k", "3", *cache_args(tmp_path))
        assert code == 0
        patterns = [parse_pattern(json.loads(line)["pattern"]) for line in out.splitlines()]
        assert len(patterns) == 2129 and len(set(patterns)) == 2129
        assert not any(naive_contains(p, m) for p in patterns for m in known_mnl_2row())

    def test_enum_budget_bounds_the_requested_columns(self, tmp_path, capsys):
        # k=2 over columns 1..3 may screen 27 candidates (579 over all columns)
        argv = ["enum", "matrix", "--k", "2", "--col-max", "3", *cache_args(tmp_path)]
        assert run_cli(capsys, *argv, "--budget", "26")[0] == 1
        code, out, _ = run_cli(capsys, *argv, "--budget", "27")
        assert code == 0 and out

    def test_compact_subcommand(self, tmp_path, capsys):
        run_cli(capsys, "ex", "--pattern", "11", "--n", "3", *cache_args(tmp_path))
        run_cli(capsys, "ex", "--pattern", "11", "--n", "4", *cache_args(tmp_path))
        code, out, _ = run_cli(capsys, "compact", *cache_args(tmp_path))
        assert code == 0 and json.loads(out)["kept"] == 2

    def test_cache_env_default(self, tmp_path, capsys, monkeypatch):
        target = tmp_path / "env-cache.jsonl"
        monkeypatch.setenv("MNL_CACHE", str(target))
        run_cli(capsys, "ex", "--pattern", "11", "--n", "3")
        assert target.exists()

    def test_tsv_format(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "bounds", "og", "--k", "2", "--format", "tsv", *cache_args(tmp_path))
        lines = out.strip().splitlines()
        assert lines[0].split("\t") == ["mode", "k", "bound"]
        assert lines[1].split("\t") == ["og", "2", "13959"]

    def test_remaining_reduce_and_transform_kinds(self, tmp_path, capsys):
        _, out, _ = run_cli(capsys, "reduce", "og-smallest", "--graph", "n=3;1 2;2 3", *cache_args(tmp_path))
        assert parse_ordered_graph(json.loads(out)["graph"]).edges == frozenset()
        _, out, _ = run_cli(
            capsys, "transform", "zero-line", "--pattern", "11", "--axis", "column", "--index", "1", *cache_args(tmp_path)
        )
        assert json.loads(out)["pattern"] == "101"
        _, out, _ = run_cli(
            capsys, "transform", "split-vertex", "--graph", "n=3;1 3;2 3", "--left", "1", "--neighbor", "3", *cache_args(tmp_path)
        )
        assert parse_ordered_graph(json.loads(out)["graph"]) == parse_ordered_graph("n=4;1 4;2 4;3 4")

    def test_enum_og_stream(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "enum", "og", "--k", "2", "--col-min", "2", "--col-max", "2", *cache_args(tmp_path)
        )
        assert code == 0
        docs = [json.loads(line) for line in out.strip().splitlines()]
        assert docs
        for d in docs:
            g = parse_ordered_graph(d["pattern"])
            assert str(g) == d["pattern"]

    def test_enum_matrix_patterns_reparse(self, tmp_path, capsys):
        _, out, _ = run_cli(capsys, "enum", "matrix", "--k", "2", "--col-max", "3", *cache_args(tmp_path))
        for line in out.strip().splitlines():
            text = json.loads(line)["pattern"]
            assert str(parse_pattern(text)) == text

    def test_classify_require_exact(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "--pattern", "11/11", "--n-max", "4", "--budget", "20",
            "--require-exact", *cache_args(tmp_path)
        )
        assert code == 2
        assert json.loads(out)["classification"] == "inconclusive"

    def test_bounds_seq_computes_default_cap(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "bounds", "seq", "--k", "2", *cache_args(tmp_path))
        assert code == 0 and json.loads(out)["bound"] == 60

    def test_seq_cap_required_above_default_k(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "bounds", "seq", "--k", "5", *cache_args(tmp_path))
        assert code == 1 and "--cap" in err

    # Refused before the whole bound is summed: summing it for --k 10^6
    # would not finish.
    @pytest.mark.parametrize("argv, flag", [
        ("matrix --k 420", "--k"), ("og --k 420", "--k"), ("matrix --k 1000000", "--k"),
        ("seq --k 2 --cap 20000", "--cap"), ("seq --k 2 --cap 14283", "--cap"),
    ])
    def test_bounds_too_long_to_print_refused(self, tmp_path, capsys, monkeypatch, digit_limit, argv, flag):
        count_bound = mnl.cli._count_bound

        def limited(mode, k, first, last, limit=None):
            if limit is None:
                pytest.fail("the bound was summed without a limit")
            return count_bound(mode, k, first, last, limit)

        monkeypatch.setattr(mnl.cli, "_count_bound", limited)
        code, out, err = run_cli(capsys, "bounds", *argv.split(), *cache_args(tmp_path))
        assert code == 1 and out == "" and f"lower {flag}" in err

    # the largest k (or cap) whose bound has at most 4300 digits is still printed
    @pytest.mark.parametrize("mode, k, bound", [
        ("matrix", 327, matrix_count_bound), ("og", 305, og_count_bound), ("seq", "2 --cap 14282", seq_count_bound),
    ])
    def test_bounds_at_the_digit_limit_printed(self, tmp_path, capsys, digit_limit, mode, k, bound):
        operands = f"--k {k}".split()
        code, out, _ = run_cli(capsys, "bounds", mode, *operands, *cache_args(tmp_path))
        assert code == 0 and json.loads(out)["bound"] == bound(*map(int, operands[1::2]))

    # --k is checked before the default cap runs a search on it
    @pytest.mark.parametrize("argv", ["enum seq --k -3", "bounds seq --k 0"])
    def test_seq_k_below_two_refused(self, tmp_path, capsys, argv):
        code, out, err = run_cli(capsys, *argv.split(), *cache_args(tmp_path))
        assert code == 1 and out == "" and "k must be >= 2" in err and "n must be" not in err


class TestCliExitCodes:
    def test_unknown_subcommand(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 1
        assert "usage" in err

    def test_missing_required_flag(self, capsys):
        code, _, err = run_cli(capsys, "ex", "--pattern", "11")
        assert code == 1

    # Each leaf requires its operands: a missing one is a usage error, not an
    # exception raised out of main.
    @pytest.mark.parametrize("argv", [
        "reduce leftmost",
        "reduce scan",
        "reduce og-smallest",
        'reduce og-bipartite --graph "n=4;1 3;2 4"',
        "transform split-column --row 1 --col 1",
        "transform split-column --pattern 11/11",
        "transform zero-line --pattern 11 --axis column",
        "transform insert-repeat --sequence abab --gap 2",
        "transform split-vertex --left 1 --neighbor 3",
        "transform isolated --position 1",
    ])
    def test_missing_operand_refused(self, tmp_path, capsys, argv):
        code, out, err = run_cli(capsys, *shlex.split(argv), *cache_args(tmp_path))
        assert code == 1 and out == "" and "error" in err

    @pytest.mark.parametrize("argv", [
        'transform isolated --graph "n=2;1 2" --position 1 --row 7',
        "enum matrix --k 2 --cap 3",
        "bounds matrix --k 2 --cap 9",
        "known --budget 5",
        "go-family --pattern 11 --require-exact",
        "contains matrix --haystack 11 --needle 1 --require-exact",
        "bounds matrix --k 2 --budget 9",
        "compact --budget 1",
    ])
    def test_flag_of_another_operation_refused(self, tmp_path, capsys, argv):
        code, out, err = run_cli(capsys, *shlex.split(argv), *cache_args(tmp_path))
        assert code == 1 and out == "" and "unrecognized arguments" in err

    # main builds only the parsers its argv reaches; every help page and
    # usage error it prints must read as the full tree prints it
    HELP_PAGES = sorted({
        argv for command, leaf, _, _ in mnl.cli._OPERATIONS
        for argv in ((command, "--help"), (command, leaf, "--help") if leaf else (command, "-h"))
    }) + [("--help",)]
    USAGE_ERRORS = [
        (), ("frobnicate",), ("enum",), ("enum", "nope"), ("enum", "matrix"), ("reduce", "leftmost"),
        ("ex", "--pattern", "11"), ("enum", "matrix", "--k", "2", "--cap", "3"), ("known", "--budget", "5"),
        ("enum", "matrix", "--k", "x"), ("known", "extra"), ("--cache", "c.jsonl", "known"),
        ("transform", "zero-line", "--pattern", "11", "--axis", "diagonal", "--index", "1"),
    ]

    @pytest.mark.parametrize("argv", HELP_PAGES + USAGE_ERRORS, ids=" ".join)
    def test_text_equals_the_full_parser(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        full_out, full_err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(full_out), contextlib.redirect_stderr(full_err):
            try:
                mnl.cli.build_parser().parse_args(list(argv))
            except mnl.cli._UsageError as exc:
                print(f"error: {exc}", file=sys.stderr)
            except SystemExit:
                pass
        assert (out, err) == (full_out.getvalue(), full_err.getvalue())
        assert code == (0 if argv in self.HELP_PAGES else 1)
        assert (out if code == 0 else err).startswith("usage: mnl")

    def test_main_builds_only_the_parsers_argv_reaches(self, tmp_path, capsys, monkeypatch):
        built = []
        init = mnl.cli._Parser.__init__
        monkeypatch.setattr(mnl.cli._Parser, "__init__", lambda self, **kw: built.append(kw) or init(self, **kw))
        code, out, _ = run_cli(capsys, "enum", "matrix", "--k", "2", "--col-max", "2", *cache_args(tmp_path))
        assert code == 0 and out
        # the shared flags, mnl, enum and enum matrix
        assert len(built) == 4

    # a leaf takes its row's flags and the two every command accepts
    def test_each_leaf_takes_exactly_its_flags(self):
        def choices(parser):
            return next(a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))

        commands = choices(mnl.cli.build_parser())
        for command, leaf, flags, _ in mnl.cli._OPERATIONS:
            sp = commands[command] if leaf is None else choices(commands[command])[leaf]
            got = {opt for action in sp._actions for opt in action.option_strings}
            assert got == {*flags.split(), "--cache", "--format", "-h", "--help"}, (command, leaf)

    def test_invalid_pattern_text(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "ex", "--pattern", "1x", "--n", "3", *cache_args(tmp_path))
        assert code == 1 and "error" in err

    def test_require_exact_budget(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "ex", "--pattern", "11/11", "--n", "4", "--budget", "5",
            "--require-exact", *cache_args(tmp_path)
        )
        assert code == 2
        assert json.loads(out)["exact"] is False

    def test_transform_error_is_invalid_input(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "transform", "split-column", "--pattern", "11/01", "--row", "2", "--col", "1", *cache_args(tmp_path)
        )
        assert code == 1 and "no one at" in err

import json
import re
from collections import Counter
from functools import cache
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import mnl.pipeline
from mnl.errors import InvalidInputError
from mnl.ordered_graphs import (
    Bipartition,
    check_bipartition,
    go_family,
    go_realizations,
    parse_ordered_graph,
    realizing_bipartitions,
)
from mnl.patterns import Pattern01, canonical_key, parse_pattern
from mnl.pipeline import (
    _PrefixScreen,
    _col_range,
    _construction,
    _count_bound,
    _known_og_members,
    _known_og_table,
    construction_patterns,
    enumerate_candidates,
    enumerate_og_candidates,
    known_mnl_2row,
    matrix_count_bound,
    og_count_bound,
    og_structural_filter,
    seq_count_bound,
    structural_filter,
)

from oracles import (
    naive_contains,
    naive_og_contains,
    naive_realizing_bipartitions,
    naive_seq_contains,
    sum_matrix_bound,
    sum_og_bound,
    sum_seq_bound,
)

P = parse_pattern
G = parse_ordered_graph


def check_status(report, name):
    return next(c.status for c in report.checks if c.name == name)


def assert_hands_back_unique_bipartitions(p):
    """go_realizations(p) maps each member of go_family(p) to the only
    bipartition the subset oracle finds realizing p."""
    realizations = go_realizations(p)
    assert go_family(p) == frozenset(realizations)
    for g, parts in realizations.items():
        assert naive_realizing_bipartitions(g, p) == [parts], (str(p), str(g))


class TestKnownSet:
    def test_exactly_seven(self):
        assert len(known_mnl_2row()) == 7

    def test_block_member(self):
        assert P("11/11") in known_mnl_2row()

    def test_vertical_reflection_member(self):
        assert P("0101/1010") in known_mnl_2row()

    def test_expected_roster(self):
        expected = {"11/11", "101/011", "011/101", "101/110", "110/101", "1010/0101", "0101/1010"}
        assert {str(p) for p in known_mnl_2row()} == expected


class TestStructuralFilter:
    def test_diag_trips_scan_exception(self):
        rep = structural_filter(P("1010/0101"))
        assert rep.verdict == "known-mnl"
        assert check_status(rep, "scan-word") == "exception"
        assert check_status(rep, "strict-2row-containment") == "pass"
        assert [c.status for c in rep.checks[:4]] == ["pass"] * 4

    def test_triple_run_rejected(self):
        rep = structural_filter(P("1110/0001"))
        assert rep.verdict == "rejected"
        assert check_status(rep, "scan-word") == "fail"

    def test_plain_candidate(self):
        rep = structural_filter(P("110/011"))
        assert rep.verdict == "structural-candidate"
        assert all(c.status == "pass" for c in rep.checks)

    def test_all_seven_known(self):
        for m in known_mnl_2row():
            assert structural_filter(m).verdict == "known-mnl"

    # the checks each known matrix does not pass, with the detail they report
    def test_known_reports_pinned(self):
        leftmost = ("leftmost-reduction", "exception", "multi-one column allowed for this exceptional matrix")
        scan = ("scan-word", "exception", "abab scan word allowed for this exceptional matrix")
        expected = {
            "11/11": [leftmost], "101/011": [leftmost], "011/101": [leftmost],
            "1010/0101": [scan], "0101/1010": [scan], "101/110": [], "110/101": [],
        }
        for m in known_mnl_2row():
            rep = structural_filter(m)
            got = [(c.name, c.status, c.detail) for c in rep.checks if c.status != "pass"]
            assert got == expected[str(m)], str(m)

    def test_zero_line_skips_derived_checks(self):
        rep = structural_filter(P("10/10"))
        assert rep.verdict == "rejected"
        assert check_status(rep, "zero-lines") == "fail"
        assert check_status(rep, "leftmost-reduction") == "exception"
        assert check_status(rep, "scan-word") == "exception"

    def test_column_range_rejection(self):
        rep = structural_filter(P("1111111/1111111"))
        assert check_status(rep, "column-range") == "fail"
        assert rep.verdict == "rejected"

    def test_leftmost_exception_only_for_named_matrices(self):
        rep = structural_filter(P("11/11"))
        assert check_status(rep, "leftmost-reduction") == "exception"
        rep = structural_filter(P("111/111"))
        assert check_status(rep, "leftmost-reduction") == "fail"

    def test_strict_containment_rejection(self):
        # two stacked all-ones rows of width 3 strictly contain the block
        rep = structural_filter(P("111/111"))
        assert check_status(rep, "strict-2row-containment") == "fail"
        assert rep.verdict == "rejected"


class TestEnumerate:
    def test_range_validation(self):
        with pytest.raises(InvalidInputError):
            list(enumerate_candidates(2, 0, 6))
        with pytest.raises(InvalidInputError):
            list(enumerate_candidates(2, 1, 7))
        with pytest.raises(InvalidInputError):
            list(enumerate_candidates(1, 1, 2))

    def test_emits_all_seven_for_k2(self):
        reports = list(enumerate_candidates(2, 1, 6))
        known = {str(r.pattern) for r in reports if r.verdict == "known-mnl"}
        assert known == {str(m) for m in known_mnl_2row()}

    def test_emitted_bounds(self):
        for rep in enumerate_candidates(2, 1, 6):
            p = rep.pattern
            assert 1 <= p.num_cols <= 6
            assert 2 <= len(p.ones) <= 7
            assert rep.verdict != "rejected"

    # the stream writes its survivors' reports from what the screen proved;
    # each must be the report structural_filter gives
    def test_reports_are_reproducible(self):
        for k, col_min, col_max in ((2, 1, 4), (3, 2, 10)):
            for rep in enumerate_candidates(k, col_min, col_max):
                assert structural_filter(rep.pattern) == rep

    def test_k4_counts_per_column(self):
        counts = Counter(r.pattern.num_cols for r in enumerate_candidates(4, 2, 5))
        assert counts == {2: 46, 3: 479, 4: 2430, 5: 7720}

    def test_levels_and_screen_advances_pinned(self, monkeypatch):
        # k = 3, columns 2..7: each prefix is extended once, and the
        # patterns of L columns are the level-L prefixes that started every
        # row.  Rebuilding the construction for every column count visited
        # 3,206 prefixes and made 10,368 advances.
        sizes, advances = [], []
        levels, advance = mnl.pipeline._levels, _PrefixScreen.advance

        def counted_levels(*args):
            for level in levels(*args):
                sizes.append(len(level))
                yield level

        def counted_advance(self, state, mask):
            advances.append(mask)
            return advance(self, state, mask)

        monkeypatch.setattr(mnl.pipeline, "_levels", counted_levels)
        monkeypatch.setattr(_PrefixScreen, "advance", counted_advance)
        assert sum(1 for _ in enumerate_candidates(3, 2, 7)) == 1805
        # the last level holds only the 7-column patterns
        assert sizes == [7, 39, 134, 306, 483, 543, 432]
        # the empty prefix and every level but the last were extended
        assert (1 + sum(sizes[:-1]), len(advances)) == (1513, 4819)

    def test_stream_deterministic(self):
        a = [str(r.pattern) for r in enumerate_candidates(2, 1, 6)]
        b = [str(r.pattern) for r in enumerate_candidates(2, 1, 6)]
        assert a == b

    def test_k3_slice_ones_bound(self):
        for rep in enumerate_candidates(3, 2, 4):
            p = rep.pattern
            assert len(p.ones) <= 12
            if p not in known_mnl_2row():
                assert len(p.ones) <= p.num_rows + p.num_cols - 1

    # The stream as it was defined before prefixes were cut: every
    # construction pattern (for k = 2 with the known seven) through
    # structural_filter, sorted by row string, rejected reports dropped.
    # The screened construction alone keeps exactly the constructed
    # patterns that are not rejected, less the known seven: each contains
    # itself, so the screen cuts it.
    @pytest.mark.parametrize("k, col_min, col_max", [(2, 1, 6), (3, 2, 6), (3, 2, 7), (4, 2, 3)])
    def test_stream_equals_filtered_construction(self, k, col_min, col_max):
        screen = _PrefixScreen(k)
        expected = []
        for i in range(col_min, col_max + 1):
            constructed = set(construction_patterns(k, i))
            batch = constructed | {m for m in known_mnl_2row() if k == 2 and m.num_cols == i}
            reports = [structural_filter(p) for p in sorted(batch, key=str)]
            kept = [r for r in reports if r.verdict != "rejected"]
            expected += [json.dumps(r.to_json_dict()) for r in kept]
            (survivors,) = _construction(k, i, i, screen)
            screened = [P(text) for text, _ in survivors]
            assert len(set(screened)) == len(screened)
            assert set(screened) == ({r.pattern for r in kept} & constructed) - known_mnl_2row()
        got = [json.dumps(r.to_json_dict()) for r in enumerate_candidates(k, col_min, col_max)]
        assert got == expected

    def test_construction_injective_and_within_term(self):
        for k, i in ((2, 2), (2, 3), (2, 6), (3, 2), (3, 4)):
            pats = list(construction_patterns(k, i))
            term = (i**k - (i - 1) ** k) * k ** (i - 1)
            assert len(set(pats)) == len(pats)
            assert len(pats) <= term

    def test_prefilter_total_within_bound_k2(self):
        total = set()
        for i in range(1, 7):
            total.update(construction_patterns(2, i))
        total.update(known_mnl_2row())
        assert len(total) <= matrix_count_bound(2)

    @staticmethod
    def _construction_count(k, i):
        """Arithmetic mirror of construction_patterns: number of generated
        patterns, without materializing them (generation is injective)."""
        total = 0
        for profile in product(range(1, i + 1), repeat=k):
            if 1 not in profile:
                continue
            combos = 1
            for c in range(2, i + 1):
                opts = sum(1 for row in range(k) if profile[row] < c)
                if c in profile:
                    opts += 1
                combos *= opts
            total += combos
        return total

    def test_prefilter_total_within_bound_k3(self):
        # full-range pre-filter count for k=3; the count formula is checked
        # against materialized generation on two slices first
        for i in (3, 4):
            assert self._construction_count(3, i) == len(set(construction_patterns(3, i)))
        total = sum(self._construction_count(3, i) for i in range(2, 11))
        assert total <= matrix_count_bound(3)

    def test_rejects_empty_pattern(self):
        with pytest.raises(InvalidInputError):
            structural_filter(Pattern01(2, 2, frozenset()))


@cache
def shared_screen(k):
    return _PrefixScreen(k)


class TestPrefixScreen:
    # Every example at one k steps the same screen, so an answer its memo
    # kept from an earlier example, if stale, fails here.
    @settings(derandomize=True, deadline=None, database=None, max_examples=400)
    @given(st.integers(2, 4).flatmap(
        lambda k: st.tuples(st.just(k), st.lists(st.integers(1, (1 << k) - 1), min_size=1, max_size=8))
    ))
    def test_cut_at_the_first_failing_column(self, case):
        """A prefix of columns is cut exactly where its raw scan letters first
        have a run of 3 or an abab, or it first contains a known 2-row
        matrix."""
        k, masks = case
        letters = []
        expected = None
        for c, mask in enumerate(masks, 1):
            rows = [r for r in range(1, k + 1) if mask >> (r - 1) & 1]
            letters.append(rows[0] if len(rows) == 1 or c == 1 else next(r for r in rows if r != letters[-1]))
            prefix = Pattern01(k, c, frozenset(
                (r, j) for j, m in enumerate(masks[:c], 1) for r in range(1, k + 1) if m >> (r - 1) & 1
            ))
            if (
                letters[-3:] == [letters[-1]] * 3
                or naive_seq_contains(letters, (1, 2, 1, 2))
                or any(naive_contains(prefix, m) for m in known_mnl_2row())
            ):
                expected = c
                break
        screen = shared_screen(k)
        state, got = screen.start, None
        for c, mask in enumerate(masks, 1):
            state = screen.advance(state, mask)
            if state is None:
                got = c
                break
        assert got == expected


class TestBounds:
    def test_matrix_known_value(self):
        assert matrix_count_bound(2) == 579

    def test_matrix_first_term(self):
        # the i=1 term for two rows contributes exactly one matrix shape
        assert (1**2 - 0**2) * 2**0 == 1

    def test_seq_known_value(self):
        assert seq_count_bound(2, 4) == 60

    def test_seq_single_term(self):
        assert seq_count_bound(2, 1) == 4

    def test_og_known_value(self):
        assert og_count_bound(2) == 13959

    def test_og_binomial_factor(self):
        from math import comb

        assert comb(8, 2) == 28
        assert og_count_bound(2) >= 28 * (6**2 - 5**2) * 2**5

    def test_matches_independent_summation(self):
        for k in (2, 3, 4):
            assert matrix_count_bound(k) == sum_matrix_bound(k)
            assert og_count_bound(k) == sum_og_bound(k)
            for cap in (1, 4, 7):
                assert seq_count_bound(k, cap) == sum_seq_bound(k, cap)

    # the sum with a limit is the exact bound when it fits, else None
    @settings(derandomize=True, deadline=None, database=None, max_examples=200)
    @given(st.sampled_from(("matrix", "og", "seq")), st.integers(2, 5), st.integers(1, 7), st.data())
    def test_limited_sum_matches_oracles(self, mode, k, cap, data):
        if mode == "seq":
            value, first, last = sum_seq_bound(k, cap), 1, cap
        else:
            value = (sum_og_bound if mode == "og" else sum_matrix_bound)(k)
            first, last = _col_range(k)
        limit = data.draw(st.sampled_from((value - 1, value, value + 1, 0)) | st.integers(0, 2 * value))
        expected = value if value <= limit else None
        assert _count_bound(mode, k, first, last, limit) == expected
        assert _count_bound(mode, k, first, last) == value

    def test_limited_sum_edges(self):
        # one column: the bound is 1, and its one term reaches the limit's bit length
        assert _count_bound("matrix", 2, 1, 1, limit=1) == 1
        assert _count_bound("matrix", 2, 1, 1, limit=0) is None
        # an empty range sums to 0, whatever the limit
        assert _count_bound("matrix", 2, 7, 6, limit=-1) == 0

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            matrix_count_bound(1)
        with pytest.raises(InvalidInputError):
            seq_count_bound(2, 0)
        with pytest.raises(InvalidInputError):
            og_count_bound(1)


class TestOgStructuralFilter:
    def test_k22_trips_exceptions(self):
        g = G("n=4;1 3;1 4;2 3;2 4")
        rep = og_structural_filter(g, Bipartition(frozenset({1, 2}), frozenset({3, 4})))
        assert rep.verdict == "known-mnl"
        assert check_status(rep, "edge-count-bipartite") == "exception"
        assert check_status(rep, "bipartite-reduction") == "exception"

    def test_single_edge_candidate(self):
        rep = og_structural_filter(
            G("n=2;1 2"), Bipartition(frozenset({1}), frozenset({2}))
        )
        assert rep.verdict == "structural-candidate"
        assert all(c.status == "pass" for c in rep.checks)

    def test_diag_member_known(self):
        diag = P("1010/0101")
        g = G("n=6;1 3;1 5;2 4;2 6")
        parts = realizing_bipartitions(g, diag)[0]
        assert {len(parts.part_u), len(parts.part_v)} == {2, 4}
        rep = og_structural_filter(g, parts)
        assert rep.verdict == "known-mnl"
        assert check_status(rep, "part-ratio") == "pass"

    def test_bad_bipartition_raises(self):
        with pytest.raises(InvalidInputError):
            og_structural_filter(
                G("n=3;1 2"), Bipartition(frozenset({1, 2}), frozenset({3}))
            )

    def test_bad_bipartition_raises_the_check_message(self):
        g = G("n=4;1 3;2 4")
        for u, v in (({1, 2}, {2, 3, 4}), ({1, 2}, {3}), ({1, 3}, {2, 4})):
            parts = Bipartition(frozenset(u), frozenset(v))
            with pytest.raises(InvalidInputError) as expected:
                check_bipartition(g, parts)
            with pytest.raises(InvalidInputError, match=f"^{re.escape(str(expected.value))}$"):
                og_structural_filter(g, parts)

    def test_containment_detail_matches_oracle(self):
        # every realization of the k=3, 2..3-column candidates: the report
        # names the first known member, in _known_og_members() order, that
        # the naive oracle finds strictly inside the graph
        members = list(_known_og_members())
        seen = set()
        rejected = several = 0
        for report in enumerate_candidates(3, 2, 3):
            p = report.pattern
            for g in go_family(p) - seen:
                seen.add(g)
                hits = [m for m in members if m != g and naive_og_contains(g, m)]
                rep = og_structural_filter(g, realizing_bipartitions(g, p)[0])
                check = next(c for c in rep.checks if c.name == "strict-known-containment")
                if hits:
                    assert (check.status, check.detail) == ("fail", f"strictly contains {hits[0]}")
                    assert rep.verdict == "rejected"
                else:
                    assert check.status == "pass"
                rejected += bool(hits)
                several += len(hits) > 1
        assert (len(seen), rejected, several) == (980, 441, 50)

    def test_unbalanced_parts_rejected(self):
        # a star with one center and four leaves: parts 1 and 4 exceed 4*1-2
        g = G("n=5;1 2;1 3;1 4;1 5")
        rep = og_structural_filter(
            g, Bipartition(frozenset({1}), frozenset({2, 3, 4, 5}))
        )
        assert check_status(rep, "part-ratio") == "fail"
        assert rep.verdict == "rejected"


class TestOgEnumeration:
    def test_stream_covers_known_families(self):
        reports = list(enumerate_og_candidates(2, 1, 6))
        known = {str(r.pattern) for r in reports if r.verdict == "known-mnl"}
        expected = set()
        for m in known_mnl_2row():
            expected.update(str(g) for g in go_family(m))
        assert known == expected

    def test_stream_counts(self):
        verdicts = Counter(r.verdict for r in enumerate_og_candidates(2, 1, 6))
        assert verdicts == {"structural-candidate": 519, "known-mnl": 73}
        assert sum(1 for _ in enumerate_og_candidates(3, 2, 3)) == 539

    @pytest.mark.parametrize("k, col_min, col_max", [(2, *_col_range(2)), (3, 2, 4)])
    def test_go_family_same_across_each_orbit(self, k, col_min, col_max):
        # why the stream expands only an orbit's first candidate
        patterns = [r.pattern for r in enumerate_candidates(k, col_min, col_max)]
        families = {}
        for p in patterns:
            family = go_family(p)
            assert families.setdefault(canonical_key(p), family) == family, str(p)
        assert len(families) < len(patterns)

    @pytest.mark.parametrize("k, col_min, col_max", [(2, *_col_range(2)), (3, 2, 4)])
    def test_go_realizations_hand_back_the_unique_bipartition(self, k, col_min, col_max):
        # every orbit the stream expands, whose bipartitions it no longer
        # recomputes
        firsts = {}
        for r in enumerate_candidates(k, col_min, col_max):
            firsts.setdefault(canonical_key(r.pattern), r.pattern)
        for p in firsts.values():
            assert_hands_back_unique_bipartitions(p)

    @pytest.mark.parametrize("text", ["10/01", "1010/0101", "100/001/010"])
    def test_go_realizations_of_disconnected_patterns(self, text):
        assert_hands_back_unique_bipartitions(parse_pattern(text))

    def test_og_contains_calls_pinned(self, monkeypatch):
        # og_structural_filter screens each graph against the 73 known
        # members at once (43 distinct vertex demands, and their counts of
        # edge pairs of each order type) and calls og_contains only on the
        # members that screen keeps: 998 calls at k = 2, where one call per
        # member would make 43,143
        table = _known_og_table()
        assert table.members == tuple(_known_og_members())
        assert (len(table.members), len(table.demands)) == (73, 43)
        calls = []
        real = mnl.pipeline.og_contains

        def counted(h, g):
            calls.append(g)
            return real(h, g)

        monkeypatch.setattr(mnl.pipeline, "og_contains", counted)
        reports = list(enumerate_og_candidates(2, *_col_range(2)))
        assert (len(reports), len(calls)) == (592, 998)

    def test_no_duplicates(self):
        reports = list(enumerate_og_candidates(2, 2, 4))
        names = [str(r.pattern) for r in reports]
        assert len(names) == len(set(names))

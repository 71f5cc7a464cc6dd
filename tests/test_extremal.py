import gc
import tracemalloc

import pytest

from mnl.errors import InvalidInputError
from mnl.extremal import (
    equal_columns,
    ex_branch_bound,
    ex_on_member,
    growth_report,
    search_member,
)
from mnl.patterns import (
    Pattern01,
    canonical_key,
    contains,
    insert_split_column,
    insert_zero_line,
    parse_pattern,
    rotate90,
    symmetry_variants,
)
from mnl.records import DEFAULT_NODE_BUDGET, ExRecord

from oracles import naive_ex, tree_ex

P = parse_pattern


class TestExhaustive:
    """The brute-force oracle the search is checked against, on known values."""

    def test_row_pair(self):
        assert naive_ex(3, P("11")) == 3

    def test_tiny_board(self):
        assert naive_ex(1, P("11")) == 1

    def test_all_ones_block(self):
        assert naive_ex(2, P("11/11")) == 3

    def test_matches_independent_oracle(self):
        # every board against the memo-free branch and bound
        for text in ("11", "111", "11/11", "101/011", "1010/0101"):
            for n in (2, 3):
                assert naive_ex(n, P(text)) == tree_ex(n, P(text))


class TestBranchBound:
    def test_row_pair_identity(self):
        rec = ex_branch_bound(5, P("11"))
        assert rec.value == 5 and rec.exact

    def test_one_by_three(self):
        rec = ex_branch_bound(4, P("111"))
        assert rec.value == 8 and rec.exact

    def test_block_matches_oracle(self):
        rec = ex_branch_bound(4, P("11/11"))
        assert rec.value == naive_ex(4, P("11/11")) == 9

    def test_oracle_equivalence_sample(self, suite_patterns):
        for p in suite_patterns[:4]:
            for n in range(1, 4):
                rec = ex_branch_bound(n, p)
                assert rec.exact
                assert rec.value == naive_ex(n, p)

    def test_monotone_in_n(self, suite_patterns):
        for p in suite_patterns:
            values = [ex_branch_bound(n, p).value for n in range(1, 5)]
            assert values == sorted(values)

    def test_containment_monotonicity(self, suite_patterns):
        pool = suite_patterns
        for p in pool:
            for q in pool:
                if contains(q, p):
                    for n in (2, 3):
                        assert ex_branch_bound(n, p).value <= ex_branch_bound(n, q).value

    def test_symmetry_invariance(self):
        for text in ("11", "101/011", "11/10"):
            p = P(text)
            base = [ex_branch_bound(n, p).value for n in (2, 3, 4)]
            for image in symmetry_variants(p):
                assert [ex_on_member(n, image).value for n in (2, 3, 4)] == base

    def test_zero_line_monotonicity(self):
        for text in ("11", "11/11", "101/011"):
            p = P(text)
            for axis, index in (("row", 0), ("column", p.num_cols)):
                bigger = insert_zero_line(p, axis, index)
                for n in range(1, 5):
                    assert ex_branch_bound(n, p).value <= ex_branch_bound(n, bigger).value

    def test_budget_exhaustion(self):
        rec = ex_branch_bound(4, P("11/11"), node_budget=10)
        assert not rec.exact
        assert rec.value <= 9
        assert rec.nodes_explored == 10

    @pytest.mark.parametrize("budget", [DEFAULT_NODE_BUDGET, 20_000])
    def test_memo_freed_without_the_cycle_collector(self, budget):
        # the recursive search closure and its memo form a reference cycle
        gc.disable()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ex_branch_bound(6, P("101/011"), budget)
            # the memo alone would keep about 80 KB here
            assert tracemalloc.get_traced_memory()[0] - before < 1 << 15
        finally:
            tracemalloc.stop()
            gc.enable()

    def test_record_shape(self):
        rec = ex_branch_bound(3, P("11"))
        assert rec.kind == "matrix"
        assert rec.pattern_key == canonical_key(P("11"))
        assert rec.value <= 9

    def test_rejects_empty_pattern(self):
        with pytest.raises(InvalidInputError):
            ex_branch_bound(3, Pattern01(2, 2, frozenset()))

    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_n_below_one(self, n):
        with pytest.raises(InvalidInputError, match="n must be >= 1"):
            ex_branch_bound(n, P("11/11"))

    def test_single_row_bound_agrees_with_general_path(self):
        # a single-row needle runs on one track per board row, its rotation
        # on one track per set of rows; both must agree on square boards
        for text in ("11", "101", "1011"):
            p = P(text)
            for n in range(1, 6):
                assert ex_on_member(n, p).value == ex_on_member(n, rotate90(p)).value


class TestSortedColumns:
    """The board's columns are taken in sorted order exactly when the
    searched orbit member has all columns equal, decided from the pattern."""

    @pytest.mark.parametrize("text", ["11/11", "111/111", "11/00/11", "101/101"])
    def test_equal_column_orbits_take_sorted_columns(self, text):
        p = P(text)
        for n in range(1, 5):
            assert equal_columns(search_member(p, n))
            rec = ex_branch_bound(n, p)
            assert rec.exact and rec.value == naive_ex(n, p)

    @pytest.mark.parametrize("text", ["11/10", "111/110", "010/010/000"])
    def test_one_differing_column_keeps_column_order(self, text):
        # 010/010/000 reads 7 instead of 8 at n=3 if its board columns are sorted
        p = P(text)
        for n in range(1, 5):
            assert not equal_columns(search_member(p, n))
            rec = ex_branch_bound(n, p)
            assert rec.exact and rec.value == naive_ex(n, p)

    @pytest.mark.parametrize(
        "text, n, searched",
        [
            # equal-column and one-row members first, fewest table entries first
            ("1/1/1", 8, "111"),
            ("11111", 4, "1/1/1/1/1"),
            ("1011", 6, "1/0/1/1"),
            ("1/1/0/1", 7, "1011"),
            ("101/101", 7, "11/00/11"),
        ],
    )
    def test_member_choice(self, text, n, searched):
        assert search_member(P(text), n) == P(searched)

    def test_canonical_representative_searched_without_equal_columns(self):
        for text in ("101/011", "1010/0101", "0010/0101"):
            assert str(search_member(P(text), 6)) == canonical_key(P(text))


class TestAnchors:
    def test_zarankiewicz_2(self):
        for n, z in enumerate((1, 3, 6, 9, 12, 16, 21), start=1):
            rec = ex_branch_bound(n, P("11/11"))
            assert rec.exact and rec.value == z, n

    @pytest.mark.parametrize(
        "text, value", [("101/011", 20), ("1010/0101", 24), ("0010/0101", 21), ("11/11", 16)]
    )
    def test_n6_exact_within_default_budget(self, text, value):
        rec = ex_branch_bound(6, P(text))
        assert rec.exact and rec.value == value

    def test_n7_alternating_block(self):
        rec = ex_branch_bound(7, P("0101/1010"))
        assert rec.exact and rec.value == 29

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_0010_0101_is_4n_minus_3(self, n):
        rec = ex_branch_bound(n, P("0010/0101"))
        assert rec.exact and rec.value == 4 * n - 3


class TestSplitColumnSandwich:
    def test_sandwich_small_n(self, suite_patterns):
        for p in suite_patterns:
            spots = [
                (r, c)
                for (r, c) in p.ones
                if (r, c + 1) in p.ones
            ]
            for r, c in spots:
                bigger = insert_split_column(p, r, c)
                for n in range(1, 5):
                    low = ex_branch_bound(n, p).value
                    high = ex_branch_bound(n, bigger).value
                    assert low <= high <= 2 * low


class TestGrowthReport:
    def test_row_pair_linear(self):
        rep = growth_report(P("11"), 6)
        assert rep.increments == (1, 1, 1, 1, 1)
        assert rep.classification == "apparently-linear"

    def test_single_one_all_zero(self):
        rep = growth_report(P("1"), 3)
        assert [v for _, v in rep.values] == [0, 0, 0]
        assert rep.classification == "apparently-linear"

    def test_block_values(self):
        rep = growth_report(P("11/11"), 5)
        assert [v for _, v in rep.values] == [1, 3, 6, 9, 12]

    def test_inexact_forces_inconclusive(self):
        rep = growth_report(P("11/11"), 4, node_budget=20)
        assert rep.classification == "inconclusive"

    def test_n_max_validation(self):
        with pytest.raises(InvalidInputError):
            growth_report(P("11"), 2)


class TestExRecord:
    def test_json_round_trip(self):
        rec = ex_branch_bound(3, P("11"))
        assert ExRecord.from_json_dict(rec.to_json_dict()) == rec

    def test_value_cap_matrix(self):
        with pytest.raises(ValueError):
            ExRecord("x", "matrix", 2, 5, True, 0, 0)

    def test_value_cap_graph(self):
        with pytest.raises(ValueError):
            ExRecord("x", "ordered-graph", 3, 4, True, 0, 0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ExRecord("x", "widget", 2, 1, True, 0, 0)

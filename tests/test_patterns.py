import random
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from mnl.errors import InvalidInputError, InvalidTransformationError
from mnl.patterns import (
    Pattern01,
    canonical_key,
    contains,
    format_pattern,
    insert_split_column,
    insert_zero_line,
    parse_pattern,
    reduce_leftmost,
    reflect_horizontal,
    reflect_vertical,
    rotate90,
    scan_reduction,
    symmetry_keys,
    symmetry_variants,
)

from oracles import naive_contains

P = parse_pattern


def random_pattern(rng, max_rows=5, max_cols=5, density=0.5):
    rows = rng.randint(1, max_rows)
    cols = rng.randint(1, max_cols)
    ones = frozenset(
        (r, c)
        for r in range(1, rows + 1)
        for c in range(1, cols + 1)
        if rng.random() < density
    )
    return Pattern01(rows, cols, ones)


class TestParsing:
    def test_round_trip(self):
        text = "1010\n0101\n"
        assert format_pattern(P(text)) == text

    def test_slash_variant(self):
        assert P("101/011") == P("101\n011\n")

    def test_str_reparses(self):
        p = P("110/011")
        assert P(str(p)) == p

    def test_rejects_ragged(self):
        with pytest.raises(InvalidInputError):
            P("10\n011\n")

    def test_rejects_bad_chars(self):
        with pytest.raises(InvalidInputError):
            P("10\n2x\n")

    def test_rejects_empty(self):
        with pytest.raises(InvalidInputError):
            P("")

    def test_zero_dimension_rejected(self):
        with pytest.raises(InvalidInputError):
            Pattern01(0, 2, frozenset())

    def test_out_of_range_one(self):
        with pytest.raises(InvalidInputError):
            Pattern01(1, 1, frozenset({(1, 2)}))


class TestContains:
    def test_every_row_has_two_ones(self):
        assert contains(P("11/11"), P("11"))

    def test_no_row_has_two_ones(self):
        assert not contains(P("10/01"), P("11"))

    def test_diag_does_not_contain_q(self):
        # no column of the haystack has two ones
        assert not contains(P("1010/0101"), P("101/011"))

    def test_reflexive(self, suite_patterns):
        for p in suite_patterns:
            assert contains(p, p)

    def test_one_deletion_monotone(self, suite_patterns):
        rng = random.Random(7)
        for needle in suite_patterns:
            hay = random_pattern(rng)
            if not contains(hay, needle):
                continue
            for pos in needle.ones:
                weaker = Pattern01(needle.num_rows, needle.num_cols, needle.ones - {pos})
                assert contains(hay, weaker)

    def test_matches_naive_enumeration(self):
        rng = random.Random(20250808)
        for _ in range(300):
            hay = random_pattern(rng)
            needle = random_pattern(rng, max_rows=3, max_cols=3)
            assert contains(hay, needle) == naive_contains(hay, needle)

    def test_symmetry_equivariance(self):
        rng = random.Random(99)
        for _ in range(60):
            hay = random_pattern(rng, max_rows=4, max_cols=4)
            needle = random_pattern(rng, max_rows=2, max_cols=3)
            base = contains(hay, needle)
            for f in (rotate90, reflect_horizontal, reflect_vertical):
                assert contains(f(hay), f(needle)) == base


@st.composite
def small_patterns(draw, max_rows=4, max_cols=5):
    rows, cols = draw(st.integers(1, max_rows)), draw(st.integers(1, max_cols))
    cells = list(product(range(1, rows + 1), range(1, cols + 1)))
    return Pattern01(rows, cols, frozenset(draw(st.sets(st.sampled_from(cells)))))


class TestSymmetry:
    @settings(max_examples=400, deadline=None)
    @given(small_patterns())
    @example(P("1"))
    @example(P("1010/0101"))
    @example(Pattern01(4, 5, frozenset({(1, 2), (4, 5)})))
    def test_keys_are_the_orbits_column_masks(self, p):
        assert symmetry_keys(p) == {(q.num_rows, q.num_cols, q.col_masks) for q in symmetry_variants(p)}

    def test_orbit_collapse(self):
        assert symmetry_variants(P("11")) == frozenset({P("11"), P("1/1")})

    def test_fixed_point(self):
        assert symmetry_variants(P("1")) == frozenset({P("1")})

    def test_full_orbit(self):
        assert len(symmetry_variants(P("101/011"))) == 8

    def test_key_same_orbit(self):
        assert canonical_key(P("11")) == canonical_key(P("1/1"))
        assert canonical_key(P("101/011")) == canonical_key(P("011/101"))

    def test_key_different_orbits(self):
        assert canonical_key(P("10/01")) != canonical_key(P("11/11"))

    def test_key_reparses_to_orbit_member(self):
        p = P("1010/0101")
        assert P(canonical_key(p)) in symmetry_variants(p)


class TestSplitColumn:
    def test_row_pair(self):
        assert insert_split_column(P("11"), 1, 1) == P("111")

    def test_missing_one_named(self):
        with pytest.raises(InvalidTransformationError, match=r"\(2, 1\)"):
            insert_split_column(P("11/01"), 2, 1)

    def test_all_ones_block(self):
        assert insert_split_column(P("11/11"), 1, 1) == P("111/101")


class TestZeroLine:
    def test_column_middle(self):
        assert insert_zero_line(P("11"), "column", 1) == P("101")

    def test_row_prepend(self):
        assert insert_zero_line(P("1"), "row", 0) == P("0/1")

    def test_column_append(self):
        assert insert_zero_line(P("11/11"), "column", 2) == P("110/110")

    def test_bad_index(self):
        with pytest.raises(InvalidInputError):
            insert_zero_line(P("11"), "column", 3)

    def test_bad_axis(self):
        with pytest.raises(InvalidInputError):
            insert_zero_line(P("11"), "diagonal", 0)


class TestReduceLeftmost:
    def test_q(self):
        assert reduce_leftmost(P("101/011")) == P("001/001")

    def test_block(self):
        assert reduce_leftmost(P("11/11")) == P("01/01")

    def test_diag(self):
        assert reduce_leftmost(P("1010/0101")) == P("0010/0001")

    def test_empty_row_rejected(self):
        with pytest.raises(InvalidInputError, match="row 2"):
            reduce_leftmost(P("11/00"))

    def test_removes_one_per_row_and_empties_column_one(self, suite_patterns):
        for p in suite_patterns:
            if any(not any(r == row for r, _ in p.ones) for row in range(1, p.num_rows + 1)):
                continue
            reduced = reduce_leftmost(p)
            assert len(reduced.ones) == len(p.ones) - p.num_rows
            assert not any(c == 1 for _, c in reduced.ones)


class TestScanReduction:
    def test_single_one_columns(self):
        assert scan_reduction(P("1010/0101")).letters == (1, 2, 1, 2)

    def test_multi_one_column_differs(self):
        assert scan_reduction(P("101/011")).letters == (1, 2, 1)

    def test_block(self):
        assert scan_reduction(P("11/11")).letters == (1, 2)

    def test_zero_column_rejected(self):
        with pytest.raises(InvalidInputError, match="column 2"):
            scan_reduction(P("101/100"))

    def test_length_and_multi_column_rule(self):
        rng = random.Random(5)
        for _ in range(200):
            p = random_pattern(rng, max_rows=4, max_cols=5, density=0.7)
            if any(not any(c == col for _, c in p.ones) for col in range(1, p.num_cols + 1)):
                continue
            word = scan_reduction(p)
            assert len(word.letters) == p.num_cols
            for col in range(2, p.num_cols + 1):
                rows = [r for r, c in p.ones if c == col]
                if len(rows) > 1:
                    assert word.letters[col - 1] != word.letters[col - 2]

"""The subsequence-automaton kernel against the naive oracles, the
level-by-level prefix driver against a plain breadth-first walk, and the
up-front refusal of tables too large to build."""
import tracemalloc
from math import comb

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import mnl.automaton
from mnl.automaton import (
    DEAD,
    MAX_TABLE_ENTRIES,
    completion_table,
    completion_term,
    matrix_automaton,
    matrix_table_entries,
    prefix_levels,
    sequence_automaton,
)
from mnl.cli import main
from mnl.errors import InvalidInputError
from mnl.extremal import ex_branch_bound, ex_on_member, search_member
from mnl.patterns import Pattern01, parse_pattern, symmetry_variants
from mnl.sequences import Sequence, parse_sequence, seq_ex_exact

from oracles import (
    naive_completion,
    naive_contains,
    naive_ex,
    naive_prefix_levels,
    naive_seq_contains,
    naive_seq_ex,
    tree_ex,
)

CHECK = settings(derandomize=True, deadline=None, database=None, max_examples=200)
SEARCH = settings(derandomize=True, deadline=None, database=None, max_examples=100)


@st.composite
def matrices(draw, max_rows, max_cols, nonempty=False):
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    cells = [(r, c) for r in range(1, rows + 1) for c in range(1, cols + 1)]
    ones = draw(st.sets(st.sampled_from(cells), min_size=1 if nonempty else 0))
    return Pattern01(rows, cols, frozenset(ones))


def words(min_size, max_size):
    return st.lists(st.integers(1, 3), min_size=min_size, max_size=max_size)


def run_kernel(tracks, at, letters, m):
    """Feed a whole board to the packed tracks; True iff one matches all m
    positions.  A track that matched the whole needle stays in the top field."""
    state = (1 << tracks) - 1
    for x in letters:
        moved = state & at[x]
        state = state ^ moved | moved << tracks
    return state >> (tracks * m) != 0


@CHECK
@given(matrices(3, 4), matrices(4, 5))
def test_matrix_kernel_matches_naive_contains(needle, board):
    tracks, at = matrix_automaton(needle.col_masks, needle.num_rows, board.num_rows)
    got = run_kernel(tracks, at, board.col_masks, needle.num_cols)
    assert got == naive_contains(board, needle)


@CHECK
@given(words(1, 5), words(0, 9))
def test_sequence_kernel_matches_naive_seq_contains(needle, board):
    v = Sequence.normalized(needle).letters
    tracks, at = sequence_automaton(v, 3)
    assert run_kernel(tracks, at, board, len(v)) == naive_seq_contains(board, v)


@SEARCH
@given(matrices(3, 3, nonempty=True), st.integers(1, 3))
def test_ex_branch_bound_matches_naive_ex(p, n):
    rec = ex_branch_bound(n, p)
    assert rec.exact and rec.value == naive_ex(n, p)


@settings(derandomize=True, deadline=None, database=None, max_examples=35)
@given(matrices(3, 3, nonempty=True), st.integers(1, 4))
def test_every_orbit_member_matches_naive_ex(p, n):
    # each image is searched as handed, sorted columns or not; ex_branch_bound
    # itself searches one member whichever image it is handed
    want = naive_ex(n, p)
    assert ex_branch_bound(n, p).value == want
    for image in symmetry_variants(p):
        rec = ex_on_member(n, image)
        assert rec.exact and rec.value == want, str(image)


@st.composite
def full_shape_needles(draw):
    """A 3x3 or 2x4 needle, any of its cells a one, zero lines allowed."""
    rows, cols = draw(st.sampled_from([(3, 3), (2, 4)]))
    cells = [(r, c) for r in range(1, rows + 1) for c in range(1, cols + 1)]
    bits = draw(st.integers(1, (1 << len(cells)) - 1))
    return Pattern01(rows, cols, frozenset(c for i, c in enumerate(cells) if bits >> i & 1))


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(full_shape_needles(), st.integers(4, 5))
def test_memo_search_matches_oracles_on_every_image(p, n):
    # the memoized search on each image as handed, against naive_ex at n=4
    # and against the memo-free tree search of the oracles at n=5
    want = naive_ex(n, p) if n == 4 else tree_ex(n, p)
    for image in symmetry_variants(p):
        rec = ex_on_member(n, image)
        assert rec.exact and rec.value == want, str(image)


@pytest.mark.parametrize("text", ["1011", "11111", "0101/1010", "11/00/11"])
def test_members_searched_only_on_large_boards_match_naive_ex(text):
    # the one-row members of 1011 and 11111, 0101/1010 and 101/101 are what
    # search_member takes once the other members' tables grow too large
    images = symmetry_variants(parse_pattern(text))
    for n in range(1, 5):
        want = naive_ex(n, parse_pattern(text))
        for image in images:
            rec = ex_on_member(n, image)
            assert rec.exact and rec.value == want, (n, str(image))
    values = {ex_on_member(5, image).value for image in images}
    assert len(values) == 1


@CHECK
@given(matrices(3, 3), st.integers(1, 3))
def test_completion_table_matches_naive_completion(needle, n):
    k, m = needle.num_rows, needle.num_cols
    assume(k <= n)
    comp = completion_table(needle.col_masks, k, n)
    assert len(comp) == n + 1
    for t, row in enumerate(comp):
        assert len(row) == m
        for s in range(m):
            want = naive_completion(needle.col_masks, k, t, s)
            assert row[s] == (DEAD if want is None else want), (t, s)
            if s + 1 < m:
                assert row[s + 1] <= row[s]


@CHECK
@given(matrices(3, 3), st.integers(1, 5), st.data())
def test_completion_term_sums_comp_over_tracks(needle, rows, data):
    k, m = needle.num_rows, needle.num_cols
    comp = completion_table(needle.col_masks, k, rows)
    t = data.draw(st.integers(0, rows))
    term = completion_term(comp, t, rows, k, 7)
    if rows < k:  # no track: each row takes at most t more ones
        assert term == (7, rows * t, [0] * (m - 1), 1)
        return
    # a state the board columns reach without completing the needle
    tracks, at = matrix_automaton(needle.col_masks, k, rows)
    state = (1 << tracks) - 1
    for x in data.draw(st.lists(st.integers(0, (1 << rows) - 1), max_size=4)):
        moved = state & at[x]
        nxt = state ^ moved | moved << tracks
        if not nxt >> (tracks * m):
            state = nxt
    field = [next(j for j in range(m) if state >> (j * tracks + i) & 1) for i in range(tracks)]
    new, base, weights, per_row = term
    counts = [(state >> (j * tracks)) % (1 << tracks) for j in range(1, m)]
    got = new + (base + sum(c.bit_count() * w for c, w in zip(counts, weights))) // per_row
    assert per_row == comb(rows - 1, k - 1)
    assert got == 7 + sum(comp[t][s] for s in field) // per_row


@SEARCH
@given(words(1, 5), st.integers(1, 4))
def test_seq_ex_exact_matches_naive_seq_ex(letters, n):
    # a symbol used thrice at n=4 (or four times at n=3) lets the avoiding
    # words grow past what the naive oracle enumerates in seconds
    assume(max(map(letters.count, letters)) <= (2 if n == 4 else 3))
    u = Sequence.normalized(letters)
    rec = seq_ex_exact(u, n)
    assert rec.exact and rec.value == naive_seq_ex(u.letters, n)


@st.composite
def needles(draw):
    """A normalized needle on r = 2..4 letters and at most 7 positions: the
    r letters in some order with up to three more put in."""
    r = draw(st.integers(2, 4))
    letters = list(draw(st.permutations(range(1, r + 1))))
    for at, x in draw(st.lists(st.tuples(st.integers(0, 6), st.integers(1, r)), max_size=3)):
        letters.insert(at, x)
    return tuple(letters)


@SEARCH
@given(needles(), st.integers(1, 4))
@example((1, 2, 1, 2, 3), 4)  # u's last letter occurs once in u
@example((1, 2, 3, 2, 1, 4), 4)
@example((1, 2, 3, 1, 3, 2, 3), 2)  # n < r: only words shorter than r
@example((1, 2, 3, 4, 1), 3)
def test_seq_ex_exact_on_two_to_four_letters_matches_naive_seq_ex(letters, n):
    # the dead-symbol ceilings come from the boards on 1..n-1 symbols; the
    # letter counts are capped as in the test above, for the oracle's sake
    assume(max(map(letters.count, letters)) <= (2 if n == 4 else 3))
    u = Sequence.normalized(letters)
    rec = seq_ex_exact(u, n)
    assert rec.exact and rec.value == naive_seq_ex(u.letters, n)


@st.composite
def extension_tables(draw):
    """An extend over at most 6 states: per state its steps as (symbol,
    next state), and per state its need; with a start and a last level."""
    n = draw(st.integers(1, 6))
    needs = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    steps = st.lists(st.tuples(st.integers(0, 255), st.integers(0, n - 1)), max_size=4)
    table = draw(st.lists(steps, min_size=n, max_size=n))
    return needs, table, draw(st.integers(0, n - 1)), draw(st.integers(0, 6))


def table_extend(needs, table, calls):
    def extend(state):
        calls.append(state)
        return [(symbol, nxt, needs[nxt]) for symbol, nxt in table[state]]
    return extend


def complete_words(levels):
    return [[word for word, need in level if not need] for level in levels]


@CHECK
@given(extension_tables())
@example(([0], [[(255, 0)]], 0, 3))  # the largest symbol, first and later
# state 1 is met after 1 symbol and after 2, so its steps are reused at
# another length
@example(([0, 1, 1, 0], [[(1, 1), (2, 2)], [(3, 3)], [(4, 1)], []], 0, 3))
def test_prefix_levels_match_breadth_first_walk(case):
    needs, table, start, last = case
    calls, naive_calls = [], []
    # every level is read only after the walk ends, so each must keep its own length
    held = list(prefix_levels(start, table_extend(needs, table, calls), last, "symbols"))
    expected = naive_prefix_levels(start, table_extend(needs, table, naive_calls), last)
    # the same levels in the same order, ending at the first empty level
    assert [list(level) for level in held] == complete_words(expected)
    # extend runs once per state the walk extends
    assert sorted(calls) == sorted(set(naive_calls))


@CHECK
@given(extension_tables(), st.integers(0, 8))
def test_prefix_levels_cap_names_the_last_level_yielded(case, limit):
    needs, table, start, last = case
    expected = naive_prefix_levels(start, table_extend(needs, table, []), last)
    over = [length for length, level in enumerate(expected, 1) if len(level) > limit]
    yielded = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mnl.automaton, "MAX_MEMO_ENTRIES", limit)
        levels = prefix_levels(start, table_extend(needs, table, []), last, "symbols")
        if over:
            with pytest.raises(InvalidInputError) as refused:
                for level in levels:
                    yielded.append(list(level))
            cut = over[0]
            assert str(refused.value) == (
                f"more than {limit} prefixes of {cut} symbols; "
                f"the candidate stream is complete only through {cut - 1} symbols"
            )
        else:
            yielded = [list(level) for level in levels]
    # every level before the cut one, and nothing of it
    assert yielded == complete_words(expected)[:over[0] - 1 if over else None]


@pytest.fixture
def capped_address_space():
    """Run the body under a 512 MB address-space cap, so a broken size check
    fails with MemoryError instead of exhausting the machine."""
    resource = pytest.importorskip("resource")
    try:
        with open("/proc/self/statm") as fh:
            size = int(fh.read().split()[0]) * resource.getpagesize()
    except OSError:
        pytest.skip("needs /proc/self/statm to cap the address space")
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = size + (512 << 20)
    resource.setrlimit(resource.RLIMIT_AS, (cap if hard == resource.RLIM_INFINITY else min(cap, hard), hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


@pytest.fixture
def refused_without_allocating(capped_address_space):
    """Under the address-space cap, assert that the body allocated next to
    nothing."""
    tracemalloc.start()
    try:
        yield
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


def test_large_board_refused(refused_without_allocating):
    with pytest.raises(InvalidInputError, match="table entries"):
        ex_branch_bound(40, parse_pattern("11/11"))


def test_large_alphabet_refused(refused_without_allocating):
    with pytest.raises(InvalidInputError, match="table entries"):
        seq_ex_exact(parse_sequence("abcacbc"), 1000)


def test_large_alphabet_refused_before_any_smaller_board_is_searched(refused_without_allocating):
    # the boards on fewer symbols come first in the search, and a budget of
    # 100 would end there with a record instead of the refusal
    with pytest.raises(InvalidInputError, match="table entries"):
        seq_ex_exact(parse_sequence("abcacbc"), 1000, node_budget=100)


def test_cli_large_board_exits_1(tmp_path, capsys, refused_without_allocating):
    code = main(["ex", "--pattern", "11/11", "--n", "40", "--cache", str(tmp_path / "c.jsonl")])
    assert code == 1 and "table entries" in capsys.readouterr().err


def test_desk_scale_boards_admitted():
    rec = ex_branch_bound(8, parse_pattern("1010/0101"), node_budget=1)
    assert not rec.exact and rec.nodes_explored == 1


@pytest.mark.parametrize(
    "n, text, refused, searched",
    [
        (13, "1010/0101", "01/10/01/10", "0101/1010"),
        (14, "11111", "1/1/1/1/1", "11111"),
        (13, "11/00/11", "11/00/11", "101/101"),
    ],
)
def test_orbit_member_whose_tables_fit_is_admitted(capped_address_space, n, text, refused, searched):
    # the member searched at small n needs more than MAX_TABLE_ENTRIES here
    first = parse_pattern(refused)
    assert search_member(first, 4) == first
    assert matrix_table_entries(first.num_rows, first.num_cols, n) > MAX_TABLE_ENTRIES
    assert search_member(parse_pattern(text), n) == parse_pattern(searched)
    rec = ex_branch_bound(n, parse_pattern(text), node_budget=1)
    assert not rec.exact and rec.nodes_explored == 1

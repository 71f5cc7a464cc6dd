"""Exact computation of the forbidden-pattern extremal value for 0-1 matrices.

ex(n, p) is the maximum number of ones in an n x n 0-1 matrix containing no
copy of p.  Two engines are provided:

- ex_exhaustive: plain enumeration of all 2^(n*n) matrices, restricted to
  n <= 4.  It exists as the independent cross-check for the search engine.
- ex_branch_bound: depth-first search filling the matrix column by column,
  each column a row bitmask, tried in decreasing population count.

ex(n, p) is the same for all 8 dihedral images of p, so ex_branch_bound
searches one member q of p's orbit, whichever image it is handed, and keys
its record on the orbit's canonical_key.  Members whose columns are all
equal, and members with one row, come first, fewest table entries
(automaton.matrix_table_entries) first among them: the former take sorted
columns (below), and a one-row member's tracks are the board rows
themselves, which makes its completion bound exact.  The rest follow in
format_pattern order, so the canonical representative leads an orbit with
neither kind of member.  q is the first whose tables fit MAX_TABLE_ENTRIES
on the board, and only when none fits is the board refused.  ex_on_member
runs the same search on the image it is handed.

The search runs on the subsequence automata of mnl.automaton: one track
per set of k board rows (k = q's row count), each matching q's columns
greedily against the board's columns on those rows, all packed into one int
(automaton.matrix_automaton).  Appending a column steps every track at
once, and a branch dies as soon as a track matches all of q.  A per-state
completion table gives the most ones a track's rows can still take without
completing q; each board row lies in C(n-1, k-1) tracks, so the sum over
tracks divided by that is an admissible bound on the remaining ones, and a
branch that cannot beat the best board found is cut.  When q's columns are
all equal, containment does not depend on the board's column order, so the
board's columns are taken in sorted order: each column's candidate index is
at or after the previous column's, and no column to come has more ones than
the one being placed, which cuts a branch once ones + popcount * remaining
columns cannot beat the best.  Exactness is never at stake, only speed.

The most ones the remaining columns can add depends only on the track
state, the number of columns left and, under sorted columns, the last
column's candidate index, so it is memoized on one int packing the three
(the state without its field 0, which the other fields determine).  A
search from a state is asked to beat alpha = best - ones: what it returns
is exact when above alpha, and otherwise only an upper bound no larger
than alpha, since the cuts above stop it early.  The memo keeps that
value with its exactness; a bound-only entry answers a later visit only
when it cannot beat that visit's alpha either, and the best board is raised
only from exact values, so it always names a board that exists.  A memo
hit costs no node.  The memo holds at most MAX_MEMO_ENTRIES (fewer for a
key longer than MEMO_KEY_BITS) in two generations, as in
sequences.seq_ex_exact.

The search is deterministic and single threaded; records say exact=False
instead of failing when the node budget runs out.
"""
from __future__ import annotations

from itertools import product
from math import comb
from operator import mul

from .automaton import (
    DEAD,
    MAX_TABLE_ENTRIES,
    completion_table,
    matrix_automaton,
    matrix_table_entries,
    memo_capacity,
)
from .errors import InvalidInputError
from .patterns import Pattern01, _embed, canonical_key, format_pattern, symmetry_variants
from .records import (
    DEFAULT_NODE_BUDGET,
    BudgetExhausted,
    ExRecord,
    GrowthReport,
    classify_increments,
    run_search,
)

_ORACLE_MAX_N = 4


def _require_nonempty(p: Pattern01) -> None:
    if not p.ones:
        raise InvalidInputError("pattern with no ones is rejected by extremal operations")


def ex_exhaustive(n: int, p: Pattern01) -> int:
    """Exact ex(n, p) by enumerating every n x n 0-1 matrix.  Only for
    n <= 4; larger boards are the search engine's job."""
    if not 1 <= n <= _ORACLE_MAX_N:
        raise InvalidInputError(
            f"ex_exhaustive enumerates 2^(n^2) matrices and accepts 1 <= n <= {_ORACLE_MAX_N}, got {n}"
        )
    _require_nonempty(p)
    pcs = [bin(m).count("1") for m in range(1 << n)]
    best = 0
    for cols in product(range(1 << n), repeat=n):
        total = sum(pcs[c] for c in cols)
        if total <= best:
            continue
        if not _embed(cols, n, p):
            best = total
    return best


def equal_columns(q: Pattern01) -> bool:
    """True iff all of q's columns are equal."""
    return len(set(q.col_masks)) == 1


def search_member(p: Pattern01, n: int) -> Pattern01:
    """The member of p's dihedral orbit that ex_branch_bound searches on an
    n x n board, in the order the module docstring gives.  When no member's
    tables fit, the first is returned and matrix_automaton refuses it."""
    if n < 1:
        raise InvalidInputError(f"n must be >= 1, got {n}")

    def order(q: Pattern01) -> tuple[int, int, str]:
        if equal_columns(q) or q.num_rows == 1:
            return 0, matrix_table_entries(q.num_rows, q.num_cols, n), format_pattern(q)
        return 1, 0, format_pattern(q)

    members = sorted(symmetry_variants(p), key=order)
    for q in members:
        if matrix_table_entries(q.num_rows, q.num_cols, n) <= MAX_TABLE_ENTRIES:
            return q
    return members[0]


def ex_branch_bound(
    n: int, p: Pattern01, node_budget: int = DEFAULT_NODE_BUDGET
) -> ExRecord:
    """Branch-and-bound ex(n, p).  exact=True iff the tree was exhausted."""
    _require_nonempty(p)
    return ex_on_member(n, search_member(p, n), node_budget)


def ex_on_member(
    n: int, q: Pattern01, node_budget: int = DEFAULT_NODE_BUDGET
) -> ExRecord:
    """ex_branch_bound's search run on q exactly as handed, whichever member
    of its orbit q is, so that every orientation's search can be checked on
    its own.  The record is keyed on canonical_key(q) all the same."""
    _require_nonempty(q)
    k, m = q.num_rows, q.num_cols
    # with all of q's columns equal, containment ignores the board's column
    # order, so the board's columns may be taken in candidate order
    sorted_cols = equal_columns(q)

    def search(budget: int) -> tuple[int, int, bool]:
        tracks, at = matrix_automaton(q.col_masks, k, n)
        if not tracks:
            return n * n, 0, True  # with no k board rows no copy of q fits
        order = sorted(range(1 << n), key=lambda mask: (-mask.bit_count(), mask))
        steps = [at[mask] for mask in order]
        pcs = [mask.bit_count() for mask in order]
        comp = completion_table(q.col_masks, k, n)
        per_row = comb(n - 1, k - 1)  # tracks through any one board row
        full = (1 << tracks) - 1
        done = tracks * m  # a state with a bit from here up holds a copy of q
        shifts = range(0, done, tracks)
        t_bits = n.bit_length()
        # under sorted columns the key carries the last candidate index
        start_bits = n if sorted_cols else 0
        capacity = memo_capacity(done - tracks + t_bits + start_bits)
        # two generations of at most capacity // 2 entries each, as in
        # sequences.seq_ex_exact; an entry is value << 1 | exact
        memo: dict[int, int] = {}
        older: dict[int, int] = {}
        best = nodes = 0

        def rec(ones: int, t: int, state: int, start: int) -> int:
            """The most ones t more columns can add to state, columns drawn
            from candidate start on: exact when above alpha = best - ones at
            the call, otherwise an upper bound no larger than alpha."""
            nonlocal best, nodes, memo, older
            counts = [(state >> shift & full).bit_count() for shift in shifts]
            bound = sum(map(mul, counts, comp[t])) // per_row
            if ones + bound <= best:
                return bound
            # states only grow, so the children's completion is bounded by ours
            room_after = sum(map(mul, counts, comp[t - 1])) // per_row
            longest = DEAD
            for i in range(start, len(steps)):
                if nodes >= budget:
                    raise BudgetExhausted(best, nodes)
                nodes += 1
                pc = pcs[i]
                cut = best - ones - pc  # a child beats best iff it adds more than this
                # candidates sorted by popcount, nothing later can win; with
                # sorted columns no later column has more ones than this one
                if room_after <= cut:
                    return max(longest, pc + room_after)
                if sorted_cols and pc * (t - 1) <= cut:
                    return max(longest, pc * t)
                moved = state & steps[i]
                nxt = state ^ moved | moved << tracks
                if nxt >> done:
                    continue
                if t == 1:
                    value = 0
                    if cut < 0:
                        best = ones + pc
                else:
                    nxt_start = i if sorted_cols else 0
                    key = ((nxt >> tracks) << t_bits | t) << start_bits | nxt_start
                    code = memo.get(key)
                    if code is None:
                        code = older.get(key)
                    # a bound-only entry answers only a call it cannot beat
                    if code is None or not code & 1 and code >> 1 > cut:
                        value = rec(ones + pc, t - 1, nxt, nxt_start)
                        code = value << 1 | (value > cut)
                    else:
                        value = code >> 1
                    if len(memo) >= capacity // 2:
                        older, memo = memo, {}
                    memo[key] = code
                    if value > cut:  # only an exact value comes back above cut
                        best = ones + pc + value
                if pc + value > longest:
                    longest = pc + value
            return longest

        try:
            rec(0, n, full, 0)
        finally:
            # rec and the memo form a cycle; free the memo now
            memo.clear()
            older.clear()
        return best, nodes, True

    return run_search("matrix", canonical_key(q), n, node_budget, search)


def growth_records(
    p: Pattern01, n_max: int, node_budget: int = DEFAULT_NODE_BUDGET
) -> list[ExRecord]:
    """Search records for n = 1..n_max."""
    if n_max < 3:
        raise InvalidInputError(f"n_max must be >= 3, got {n_max}")
    return [ex_branch_bound(n, p, node_budget) for n in range(1, n_max + 1)]


def growth_report_from_records(key: str, records: list[ExRecord]) -> GrowthReport:
    values = tuple((rec.n, rec.value) for rec in records)
    increments = tuple(values[i + 1][1] - values[i][1] for i in range(len(values) - 1))
    classification = classify_increments(increments, all(rec.exact for rec in records))
    return GrowthReport(
        pattern_key=key,
        values=values,
        increments=increments,
        classification=classification,
    )


def growth_report(
    p: Pattern01, n_max: int, node_budget: int = DEFAULT_NODE_BUDGET
) -> GrowthReport:
    """ex(n, p) for n = 1..n_max plus the trend classification.

    Any inexact value forces 'inconclusive'.  The classification is a
    desk-scale heuristic only: a genuine n * alpha(n) growth term is far
    below the resolution of first differences at these sizes and may
    legitimately read as apparently-linear.
    """
    return growth_report_from_records(canonical_key(p), growth_records(p, n_max, node_budget))

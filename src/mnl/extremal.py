"""Exact computation of the forbidden-pattern extremal value for 0-1 matrices.

ex(n, p) is the maximum number of ones in an n x n 0-1 matrix containing no
copy of p.  ex_branch_bound computes it by depth-first search filling the
matrix column by column, each column a row bitmask, tried in decreasing
population count.

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

ex_on_member builds the tables of automaton.track_search, the memoized
search it shares with the ordered-graph vertex search, whose docstring
gives the memo.  There is one track per set of k board rows (k = q's row
count), each matching q's columns greedily against the board's columns on
those rows, all packed into one int (automaton.matrix_automaton), and a
branch dies once a track matches all of q.  Every board column mask is a
candidate.  A per-state completion table gives the most ones a track's
rows can still take without completing q; each board row lies in
C(n-1, k-1) tracks, so the sum over tracks divided by that bounds the
remaining ones (automaton.completion_term).  When q's columns are all
equal, containment does not depend on the board's column order, so the
board's columns are taken in sorted order (track_search's sorted_cols).
Exactness is never at stake, only speed.

The search is deterministic and single threaded; records say exact=False
instead of failing when the node budget runs out.
"""
from __future__ import annotations

from .automaton import (
    MAX_TABLE_ENTRIES,
    column_order,
    completion_table,
    completion_term,
    matrix_automaton,
    matrix_table_entries,
    track_search,
)
from .errors import InvalidInputError
# _embed is not called here; perfbench's traced run rebinds it on this module.
from .patterns import Pattern01, _embed, canonical_key, format_pattern, symmetry_variants  # noqa: F401
from .records import (
    DEFAULT_NODE_BUDGET,
    ExRecord,
    GrowthReport,
    Solve,
    classify_increments,
    run_search,
)


def _require_nonempty(p: Pattern01) -> None:
    if not p.ones:
        raise InvalidInputError("pattern with no ones is rejected by extremal operations")


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

    def prepare() -> Solve:
        tracks, at = matrix_automaton(q.col_masks, k, n)
        if not tracks:
            return lambda *board: (n * n, 0)  # with no k board rows no copy of q fits
        comp = completion_table(q.col_masks, k, n)
        terms = [completion_term(comp, t, n, k, 0) for t in range(n + 1)]
        sorted_cols = equal_columns(q)
        order = enumerate(column_order(n))
        candidates = [(x.bit_count(), at[x], i if sorted_cols else 0) for i, x in order]
        return lambda size, ceiling, best, budget: track_search(
            tracks, tracks * m, [candidates] * (n + 1), terms, best, budget, sorted_cols)

    return run_search("matrix", canonical_key(q), n, node_budget, prepare)


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

"""Exact computation of the forbidden-pattern extremal value for 0-1 matrices.

ex(n, p) is the maximum number of ones in an n x n 0-1 matrix containing no
copy of p.  Two engines are provided:

- ex_exhaustive: plain enumeration of all 2^(n*n) matrices, restricted to
  n <= 4.  It exists as the independent cross-check for the search engine.
- ex_branch_bound: depth-first search filling the matrix column by column,
  each column a row bitmask, tried in decreasing population count.

The search runs on the subsequence automata of mnl.automaton: one track per
set of k board rows (k = p's row count), each carrying how many of p's
columns embed greedily into the board's columns on those rows.  Appending a
column advances every track by table lookup, and the branch dies as soon as
a track matches all of p.  A per-state completion table gives the most ones
a track's rows can still take without completing p; each board row lies in
C(n-1, k-1) tracks, so the sum over tracks divided by that is an admissible
bound on the remaining ones, and a branch that cannot beat the best board
found is cut.  Exactness is never at stake, only speed.

The search is deterministic and single threaded; records say exact=False
instead of failing when the node budget runs out.
"""
from __future__ import annotations

from itertools import product
from math import comb

from .automaton import completion_table, matrix_tables
from .errors import InvalidInputError
from .patterns import Pattern01, _embed, canonical_key
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


def ex_branch_bound(
    n: int, p: Pattern01, node_budget: int = DEFAULT_NODE_BUDGET
) -> ExRecord:
    """Branch-and-bound ex(n, p).  exact=True iff the tree was exhausted."""
    _require_nonempty(p)
    k, m = p.num_rows, p.num_cols

    def search(budget: int) -> tuple[int, int, bool]:
        tables = matrix_tables(p.col_masks, k, n)
        if not tables:
            return n * n, 0, True  # with no k board rows no copy of p fits
        pcs = [bin(mask).count("1") for mask in range(1 << n)]
        candidates = sorted(range(1 << n), key=lambda mask: (-pcs[mask], mask))
        comp = completion_table(p.col_masks, k, n)
        per_row = comb(n - 1, k - 1)  # tracks through any one board row
        best = nodes = 0

        def rec(ones: int, remaining: int, states: list[int]) -> None:
            nonlocal best, nodes
            if remaining == 0:
                if ones > best:
                    best = ones
                return
            if ones + sum(map(comp[remaining].__getitem__, states)) // per_row <= best:
                return
            # states only grow, so the children's completion is bounded by ours
            room_after = sum(map(comp[remaining - 1].__getitem__, states)) // per_row
            rows = [table[s] for table, s in zip(tables, states)]
            for mask in candidates:
                if nodes >= budget:
                    raise BudgetExhausted(best, nodes)
                nodes += 1
                if ones + pcs[mask] + room_after <= best:
                    break  # candidates sorted by popcount, nothing later can win
                new_states = [row[mask] for row in rows]
                if m not in new_states:
                    rec(ones + pcs[mask], remaining - 1, new_states)

        rec(0, n, [0] * len(tables))
        return best, nodes, True

    return run_search("matrix", canonical_key(p), n, node_budget, search)


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

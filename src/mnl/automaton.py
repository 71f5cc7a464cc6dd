"""Subsequence automata: the incremental containment kernel of the engines.

Fix where a needle may land: a k-row matrix needle on k chosen board rows,
a sequence needle through one injective map of its symbols to board
symbols.  Each such choice is a *track*.  On a track the needle occurs iff
its columns (letters) occur as a subsequence of the board's, where a board
letter matches needle position s when it covers the board mask need[s] the
track assigns to s.  Greedy earliest matching decides a subsequence
exactly, so one integer per track, the number of needle positions matched,
is all a search has to carry; the board contains the needle iff some track
reaches the needle length m.

Tables are plain lists built per call, so callers stay thread-safe.  Their
size grows exponentially; builders refuse one above MAX_TABLE_ENTRIES
before allocating anything.
"""
from __future__ import annotations

from itertools import combinations, permutations
from math import comb, perm

from .errors import InvalidInputError

MAX_TABLE_ENTRIES = 1 << 22
# completion value of a state every continuation completes from; far below
# any sum of real values, so one dead track sinks a sum of them
DEAD = -(1 << 62)


def _check_size(entries: int, what: str) -> None:
    if entries > MAX_TABLE_ENTRIES:
        raise InvalidInputError(
            f"{what} needs {entries} table entries, above the limit of {MAX_TABLE_ENTRIES}"
        )


def _tables(needs: list[list[int]], letters) -> list[list[list[int]]]:
    """tables[t][s][i]: state of track t after reading letters[i] in state s."""
    return [
        [[s + ((need & x) == need) for x in letters] for s, need in enumerate(track)]
        for track in needs
    ]


def matrix_table_entries(k: int, m: int, n: int) -> int:
    """Entries of matrix_tables for a k x m needle on n board rows, plus the
    two 2^n-entry lists (popcounts and column order) a search over them
    keeps."""
    return (comb(n, k) * m + 2) << n


def matrix_tables(col_masks: tuple[int, ...], k: int, n: int) -> list[list[list[int]]]:
    """One track per k-subset of the n board rows, indexed by board column
    mask."""
    _check_size(matrix_table_entries(k, len(col_masks), n), f"a board of {n} rows")
    needs = [
        [sum(1 << rows[i] for i in range(k) if col >> i & 1) for col in col_masks]
        for rows in combinations(range(n), k)
    ]
    return _tables(needs, range(1 << n))


def completion_table(col_masks: tuple[int, ...], k: int, n: int) -> list[list[int]]:
    """comp[t][s]: the most ones k fixed board rows can take in t more
    columns from state s without completing the needle, or DEAD.  The same
    for every track, and never larger for a later state.  Only for k <= n:
    matrix_tables' size check covers its 2^k letters only then."""
    m = len(col_masks)
    adv = _tables([list(col_masks)], range(1 << k))[0]
    comp = [[0] * m]
    for _ in range(n):
        prev = comp[-1]
        live = [[b.bit_count() + prev[s2] for b, s2 in enumerate(row) if s2 < m and prev[s2] >= 0] for row in adv]
        comp.append([max(values, default=DEAD) for values in live])
    return comp


def sequence_tables(letters: tuple[int, ...], num_symbols: int) -> list[list[list[int]]]:
    """One track per injective map of the needle's symbols into board symbols
    1..num_symbols, indexed by board symbol (0 unused)."""
    r = len(set(letters))
    _check_size(perm(num_symbols, r) * len(letters) * (num_symbols + 1), f"a board of {num_symbols} symbols")
    needs = [
        [1 << image[x - 1] for x in letters]
        for image in permutations(range(1, num_symbols + 1), r)
    ]
    return _tables(needs, [1 << x for x in range(num_symbols + 1)])

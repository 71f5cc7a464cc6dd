"""Subsequence automata: the incremental containment kernel of the engines.

Fix where a needle may land: a k-row matrix needle on k chosen board rows,
a sequence needle through one injective map of its symbols to board
symbols.  Each such choice is a *track*.  On a track the needle occurs iff
its columns (letters) occur as a subsequence of the board's, where a board
letter matches needle position s when it covers the board mask need[s] the
track assigns to s.  Greedy earliest matching decides a subsequence
exactly, so the number of needle positions a track has matched is all a
search has to carry; the board contains the needle iff some track reaches
the needle length m.

All tracks of a needle are stepped together, bit-parallel in the style of
Shift-And (Baeza-Yates and Gonnet, CACM 1992): their state is one int of m
fields of T bits, T the number of tracks, where field j holds the tracks
that have matched j positions.  A board letter moves the tracks whose next
position it matches one field up, so one letter is a few big-int
operations, and the state is itself a compact memo key.  Each track sits in
exactly one field, so the fields above field 0 determine it.

Tables are plain lists of ints built per call, so callers stay
thread-safe.  Their size grows exponentially; builders refuse one above
MAX_TABLE_ENTRIES before allocating anything.

track_search is the memoized search over such tracks that the matrix
engine and the ordered-graph vertex search share, each with its own tables.
Its docstring states the fail-low memo rules, which the sequence engine's
own search (sequences.seq_ex_exact) follows too.
"""
from __future__ import annotations

from itertools import combinations, islice, permutations
from math import comb, perm
from operator import mul

from .errors import InvalidInputError
from .records import BudgetExhausted

MAX_TABLE_ENTRIES = 1 << 22
# entries a memoized search keeps at most, a key longer than MEMO_KEY_BITS
# counting as several; past it, the oldest are dropped and recomputed
MAX_MEMO_ENTRIES = 1 << 20
MEMO_KEY_BITS = 1 << 10
# completion value of a state every continuation completes from; far below
# any sum of real values, so one dead track sinks a sum of them
DEAD = -(1 << 62)


def memo_capacity(key_bits: int) -> int:
    """Entries a memoized search keeps at most for keys of key_bits bits:
    MAX_MEMO_ENTRIES, fewer in proportion for keys above MEMO_KEY_BITS."""
    return MAX_MEMO_ENTRIES * MEMO_KEY_BITS // max(MEMO_KEY_BITS, key_bits)


def track_search(
    tracks: int, done: int, candidates: list, terms: list, best: int, budget: int,
    sorted_cols: bool = False,
) -> tuple[int, int]:
    """Depth-first search for a board with more than best ones, one column
    at a time, on T = tracks packed tracks from the start state
    (1 << T) - 1, with depth = len(candidates) - 1 columns to come.
    Returns (best, nodes), or raises BudgetExhausted(best, nodes) when the
    budget runs out; best always counts a board that exists.

    With t columns to come, candidates[t] lists the next column's choices
    as (popcount, step, after) by falling popcount.  One steps a state by
    moved = state & step; state ^ moved | moved << T, and a state with a
    bit from done up holds a copy of the needle.  The column after it is
    drawn from candidates[t - 1] on from index after: 0, or its own index
    under sorted_cols, where every list is the same and no column to come
    may have more ones than the one placed.  terms[t] = (new, base,
    weights, per_row) bounds what t more columns add to a state whose
    fields 1.. hold c_1, c_2, ... tracks by new + (base + sum of c_j *
    weights[j - 1]) // per_row; it must be admissible, t = 0 included, and
    never grow as tracks move up.  Each column tried is one node; the
    first that cannot beat best by that bound at t - 1 ends its loop, and
    under sorted_cols so does the first whose popcount times the t columns
    left cannot.

    Memo: what t more columns add depends only on t, the state without
    field 0 (the others determine it) and the index the next column is
    drawn from, memoized on one int packing the three; the width of t
    follows the depth, never the board.  A search asked to beat alpha =
    best - ones returns an exact value when above alpha (fail-low), else
    an upper bound no larger than alpha, and the memo keeps which.  A
    bound-only entry answers a later visit only when it cannot beat that
    visit's alpha either, and best is raised only from exact values.  A
    memo hit costs no node.  The memo holds at most memo_capacity(key
    bits) entries in two generations: when the newer fills, the older is
    dropped, and a dropped value is recomputed when next asked for.
    """
    depth = len(candidates) - 1
    full = (1 << tracks) - 1
    shifts = range(tracks, done, tracks)  # fields 1.. ; field 0 follows from them
    # the key's low bits: t, then under sorted_cols the index drawn from
    start_bits = (max(map(len, candidates)) - 1).bit_length() if sorted_cols else 0
    low_bits = depth.bit_length() + start_bits
    capacity = memo_capacity(done - tracks + low_bits)
    # an entry is value << 1 | exact
    memo: dict[int, int] = {}
    older: dict[int, int] = {}
    nodes = 0

    def rec(ones: int, t: int, state: int, start: int) -> int:
        """The most ones t more columns can add to state, columns drawn
        from candidate start on: exact when above alpha = best - ones at
        the call, otherwise an upper bound no larger than alpha."""
        nonlocal best, nodes, memo, older
        counts = [(state >> shift & full).bit_count() for shift in shifts]
        new, base, weights, per_row = terms[t]
        bound = new + (base + sum(map(mul, counts, weights))) // per_row
        if ones + bound <= best:
            return bound
        # the children's states only grow, so this bounds what each adds
        new, base, weights, per_row = terms[t - 1]
        room_after = new + (base + sum(map(mul, counts, weights))) // per_row
        tag = t << start_bits
        cands = candidates[t]
        longest = DEAD
        # islice only when it skips: its per-item cost shows in a search
        # without sorted_cols, as does an index counted in this loop
        for pc, step, after in islice(cands, start, None) if start else cands:
            if nodes >= budget:
                raise BudgetExhausted(best, nodes)
            nodes += 1
            cut = best - ones - pc  # a child beats best iff it adds more than this
            if room_after <= cut:  # by popcount, nothing later can win
                return max(longest, pc + room_after)
            if sorted_cols and pc * (t - 1) <= cut:
                return max(longest, pc * t)
            moved = state & step
            nxt = state ^ moved | moved << tracks
            if nxt >> done:
                continue
            if t == 1:
                value = 0
                if cut < 0:
                    best = ones + pc
            else:
                key = (nxt >> tracks) << low_bits | (tag | after)
                code = memo.get(key)
                if code is None:
                    code = older.get(key)
                # a bound-only entry answers only a call it cannot beat
                if code is None or not code & 1 and code >> 1 > cut:
                    value = rec(ones + pc, t - 1, nxt, after)
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
        rec(0, depth, full, 0)
    finally:
        # rec and the memo form a cycle; free the memo now
        memo.clear()
        older.clear()
    return best, nodes


def column_order(n: int) -> list[int]:
    """The column masks of n board rows in the order the track searches
    try them: most ones first, then by mask."""
    return sorted(range(1 << n), key=lambda mask: (-mask.bit_count(), mask))


def _check_size(entries: int, what: str) -> None:
    if entries > MAX_TABLE_ENTRIES:
        raise InvalidInputError(
            f"{what} needs {entries} table entries, above the limit of {MAX_TABLE_ENTRIES}"
        )


def matrix_table_entries(k: int, m: int, n: int) -> int:
    """Size of matrix_automaton for a k x m needle on n board rows: T * m
    bits per board column mask, T = C(n, k), plus two entries per mask for
    the candidate list a track_search over it keeps."""
    return (comb(n, k) * m + 2) << n


def matrix_automaton(col_masks: tuple[int, ...], k: int, n: int) -> tuple[int, list[int]]:
    """The tracks of a k-row matrix needle on n board rows, one per k-set of
    board rows, packed bit-parallel like sequence_automaton's.

    Returns (T, at): T = C(n, k) tracks, and per board column mask x an int
    whose field j (bits j*T .. j*T+T-1) holds the tracks whose rows cover
    needle column j wherever x does.  One board column x is

        moved = state & at[x]
        state = state ^ moved | moved << T

    from the start state (1 << T) - 1, and the board contains the needle iff
    state >> (T * len(col_masks)) != 0.
    """
    m = len(col_masks)
    _check_size(matrix_table_entries(k, m, n), f"a board of {n} rows")
    tracks = comb(n, k)
    # at[y] first holds the (track, position) bits whose board mask is y;
    # a zeta transform over the n rows then ORs in every y inside x
    at = [0] * (1 << n)
    for t, rows in enumerate(combinations(range(n), k)):
        for j, col in enumerate(col_masks):
            at[sum(1 << rows[i] for i in range(k) if col >> i & 1)] |= 1 << (j * tracks + t)
    for row in range(n):
        bit = 1 << row
        for x in range(1 << n):
            if x & bit:
                at[x] |= at[x ^ bit]
    return tracks, at


def completion_table(col_masks: tuple[int, ...], k: int, n: int) -> list[list[int]]:
    """comp[t][s]: the most ones k fixed board rows can take in t more
    columns from state s without completing the needle, or DEAD.  The same
    for every track, and never larger for a later state.  Only for k <= n:
    matrix_automaton's size check covers its 2^k letters only then."""
    m = len(col_masks)
    # adv[s][b]: the state after letter b over the k rows in state s
    adv = [[s + (need & b == need) for b in range(1 << k)] for s, need in enumerate(col_masks)]
    comp = [[0] * m]
    for _ in range(n):
        prev = comp[-1]
        live = [[b.bit_count() + prev[s2] for b, s2 in enumerate(row) if s2 < m and prev[s2] >= 0] for row in adv]
        comp.append([max(values, default=DEAD) for values in live])
    return comp


def completion_term(
    comp: list[list[int]], t: int, rows: int, k: int, new: int
) -> tuple[int, int, list[int], int]:
    """track_search's bound term for t more columns on the tracks of the
    k-sets of rows board rows, comp their completion_table: new plus the
    sum over those tracks of comp[t][state], divided by the C(rows-1, k-1)
    tracks through any one row.  Field 0 holds the tracks the other fields
    leave, so the sum is C(rows, k) * comp[t][0] plus each field's count
    times comp[t][j] - comp[t][0].  With fewer than k rows there is no
    track, and each row takes at most t more ones."""
    per_row = comb(rows - 1, k - 1)
    c = comp[t]
    if not per_row:
        return new, rows * t, [0] * (len(c) - 1), 1
    return new, comb(rows, k) * c[0], [cj - c[0] for cj in c[1:]], per_row


def sequence_automaton(letters: tuple[int, ...], num_symbols: int) -> tuple[int, list[int]]:
    """The tracks of a sequence needle over board symbols 1..num_symbols,
    one per injective map of its symbols into them, packed bit-parallel.

    Returns (T, at): T tracks, and per board symbol x (index 0 unused) an
    int whose field j (bits j*T .. j*T+T-1) holds the tracks that map needle
    position j to x.  From the start state (1 << T) - 1, one letter x is

        moved = state & at[x]
        state = state ^ moved | moved << T

    and the board contains the needle iff state >> (T * len(letters)) != 0.
    """
    r, m = len(set(letters)), len(letters)
    _check_size(perm(num_symbols, r) * m * (num_symbols + 1), f"a board of {num_symbols} symbols")
    images = list(permutations(range(1, num_symbols + 1), r))
    tracks = len(images)
    bits = [bytearray((tracks * m + 7) // 8) for _ in range(num_symbols + 1)]
    for t, image in enumerate(images):
        for j, x in enumerate(letters):
            pos = j * tracks + t
            bits[image[x - 1]][pos >> 3] |= 1 << (pos & 7)
    return tracks, [int.from_bytes(b, "little") for b in bits]

"""Generalized Davenport-Schinzel machinery.

A sequence is a word over symbols 1..s kept in normalized form: the first
occurrence of symbol t+1 comes after the first occurrence of t (a restricted
growth string).  Containment, block structure, exact extremal lengths, the
repeat-insertion transformation, and the candidate stream for minimally
non-linear sequences all live here.

The exact search and the candidate stream grow words one letter at a time
and check avoidance incrementally with the subsequence automata of
mnl.automaton: one track per injective map of the needle's symbols into the
board's, all of them packed into one int and stepped together, a copy found
as soon as one track matches the whole needle.  The exact search memoizes
the longest continuation of a word on what decides it: the track state, the
last r-1 letters and the largest symbol used.  Once a track is one letter
short of a copy, the symbol that would complete it is dead for good, so a
word's continuation is at most Ex(u, L) long, L the symbols still live; the
search solves the boards on fewer symbols first for these ceilings, and its
memo keeps the bounds that cut subtrees give apart from exact values, under
automaton.track_search's fail-low rules.  The candidate stream grows
its words level by level, all valid prefixes of one length at a time, and
steps each prefix once; it holds two levels, and ends with
InvalidInputError rather than hold one of more than MAX_MEMO_ENTRIES
prefixes.

Text format: lowercase letters a-z (a=1, b=2, ...) for alphabets up to 26,
comma-separated positive integers otherwise.  Parsing normalizes, so "bab"
and "aba" denote the same value.
"""
from __future__ import annotations

from dataclasses import dataclass
from heapq import merge
from typing import Iterable, Iterator

from .automaton import MAX_MEMO_ENTRIES, memo_capacity, sequence_automaton
from .errors import InvalidInputError, InvalidTransformationError
from .records import DEFAULT_NODE_BUDGET, BudgetExhausted, ExRecord, run_search

ABABA = (1, 2, 1, 2, 1)


@dataclass(frozen=True)
class Sequence:
    letters: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.letters:
            raise InvalidInputError("empty sequence")
        top = 0
        for x in self.letters:
            if not isinstance(x, int) or x < 1:
                raise InvalidInputError(f"bad symbol {x!r}")
            if x > top + 1:
                raise InvalidInputError(
                    f"not normalized: symbol {x} appears before {top + 1}"
                )
            if x > top:  # so x == top + 1
                top = x

    @property
    def alphabet_size(self) -> int:
        return max(self.letters)

    @classmethod
    def normalized(cls, letters: Iterable[int]) -> "Sequence":
        """Rename symbols by first occurrence so the result is normalized."""
        mapping: dict[int, int] = {}
        out = []
        for x in letters:
            if x not in mapping:
                mapping[x] = len(mapping) + 1
            out.append(mapping[x])
        return cls(tuple(out))

    def __str__(self) -> str:
        return format_sequence(self)


@dataclass(frozen=True)
class BlockDecomposition:
    """Maximal runs of equal adjacent letters, as (symbol, run_length)."""

    runs: tuple[tuple[int, int], ...]

    @property
    def num_runs(self) -> int:
        return len(self.runs)


def parse_sequence(text: str) -> Sequence:
    s = text.strip()
    if not s:
        raise InvalidInputError("empty sequence text")
    if "," in s or s.isdigit():
        try:
            letters = [int(tok) for tok in s.split(",")]
        except ValueError as exc:
            raise InvalidInputError(f"bad sequence text {text!r}") from exc
        if any(x < 1 for x in letters):
            raise InvalidInputError("sequence symbols must be positive")
    else:
        if not all("a" <= ch <= "z" for ch in s):
            raise InvalidInputError(f"bad sequence text {text!r}")
        letters = [ord(ch) - 96 for ch in s]
    return Sequence.normalized(letters)


_LETTERS = bytes.maketrans(bytes(range(1, 27)), b"abcdefghijklmnopqrstuvwxyz")


def format_sequence(u: Sequence) -> str:
    return format_letters(u.letters)


def format_letters(letters: tuple[int, ...]) -> str:
    """The text of a normalized sequence's letters: a-z, or comma-separated
    numbers over more than 26 letters."""
    if max(letters) <= 26:
        return bytes(letters).translate(_LETTERS).decode()
    return ",".join(str(x) for x in letters)


def seq_contains(u: Sequence, v: Sequence) -> bool:
    """True iff some subsequence of u is isomorphic to v.

    Backtracks over an injective symbol map v-symbol -> u-symbol; positions
    are matched greedily at the earliest feasible occurrence, which is
    complete for subsequence matching.
    """
    lu, lv = u.letters, v.letters
    m, big = len(lv), len(lu)
    if m > big or v.alphabet_size > u.alphabet_size:
        return False
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def rec(i: int, j: int) -> bool:
        if i == m:
            return True
        limit = big - (m - i)  # last start index leaving room for the rest
        vs = lv[i]
        if vs in mapping:
            target = mapping[vs]
            for jj in range(j, limit + 1):
                if lu[jj] == target:
                    return rec(i + 1, jj + 1)
            return False
        tried: set[int] = set()
        for jj in range(j, limit + 1):
            us = lu[jj]
            if us in used or us in tried:
                continue
            tried.add(us)
            mapping[vs] = us
            used.add(us)
            if rec(i + 1, jj + 1):
                del mapping[vs]
                used.discard(us)
                return True
            del mapping[vs]
            used.discard(us)
        return False

    return rec(0, 0)


def blocks(u: Sequence) -> BlockDecomposition:
    runs: list[tuple[int, int]] = []
    for x in u.letters:
        if runs and runs[-1][0] == x:
            runs[-1] = (x, runs[-1][1] + 1)
        else:
            runs.append((x, 1))
    return BlockDecomposition(tuple(runs))


def seq_ex_exact(u: Sequence, n: int, node_budget: int = DEFAULT_NODE_BUDGET) -> ExRecord:
    """Exact maximum length of a u-avoiding sequence over at most n symbols
    in which every r consecutive letters are distinct (r = u's alphabet).

    Depth-first extension over normalized sequences; normalization breaks
    the symbol-renaming symmetry, which is sound because both the window
    constraint and containment are isomorphism-invariant.  The window is
    checked only once r-1 letters are placed, so a shorter word may repeat
    a letter.

    Dead symbols: a track in field m-1 (m = |u|) has matched all of u but
    its last letter, so the symbol x it maps that letter to would complete
    the copy (top & kill[x], top the tracks in field m-1 and kill[x] those
    mapping u's last letter to x).  A track never leaves field m-1, so x
    can never be appended again.  Dead symbols are counted only when some
    track is in field m-1.

    Ceiling: the continuation of a word is itself a word whose r-windows
    are distinct and which avoids u, over the L symbols not dead, so it is
    at most Ex(u, L) letters long.  The boards L = 1..n-1 are solved first,
    smallest first, in the same call and on the same node budget, each
    with the ceilings of the smaller ones, as og_ex_exact solves its
    smaller boards; a word whose length plus Ex(u, L) cannot beat the best
    length found returns Ex(u, L) as a bound.  A word over L < n symbols
    is also one over n, so each board starts from the last one's value,
    and a board that runs out of budget raises BudgetExhausted with its
    best, a real lower bound, and the call's nodes; that value never
    becomes a ceiling.  The n-symbol board's table-size check runs before
    any board is searched, so an oversized board is refused at once.

    Memo: the longest continuation of a word depends only on its track
    state, its window code (the last r-1 letters as base-(s+1) digits on
    a board of s symbols, or the whole word while it is shorter) and its
    largest symbol, so it is memoized on one int packing the three (the
    state without its field 0, which the other fields determine).  A cut
    subtree gives only an upper bound, so an entry is value << 1 | exact,
    under the fail-low rules that automaton.track_search's docstring
    states: a bound-only entry answers only a visit it cannot beat, and
    the best length is raised only from exact values.  A memo hit costs no
    node.  A continuation whose search took at most s nodes is not kept:
    redoing it costs at most s nodes, and few are asked for again (on
    abcacbc at n=5, before the ceilings, 139 of 11,243 were).  Each
    board's memo is capped in two generations as track_search's is, so a
    value dropped is recomputed and the result stays exact.
    """
    r = u.alphabet_size
    m = len(u.letters)

    def solve(size: int, tables: tuple[int, list[int]], ceiling: list[int],
              best: int, budget: int) -> tuple[int, int]:
        """(Ex(u, size), nodes) from a word of length best that exists,
        ceiling[L] = Ex(u, L) for every L < size."""
        tracks, at = tables
        done = tracks * m  # a state with a bit from here up holds a copy of u
        last = done - tracks  # field m-1, one letter short of a copy
        full = (1 << tracks) - 1
        kill = [step >> last & full for step in at[1:]]  # tracks x would complete
        span = (size + 1) ** (r - 1)  # window codes lie below span
        sym_bits = size.bit_length()
        state_shift = sym_bits + (span - 1).bit_length()
        # the key leaves out field 0, which the other fields determine
        capacity = memo_capacity(state_shift + done - tracks)
        # two generations of at most capacity // 2 entries each; a full newer
        # one becomes the older, and an older entry looked up moves back;
        # an entry is value << 1 | exact
        memo: dict[int, int] = {}
        older: dict[int, int] = {}
        nodes = 0
        seq: list[int] = []

        def rec(state: int, code: int, max_sym: int) -> int:
            """The longest continuation of seq: exact when above alpha =
            best - len(seq) at the call, otherwise an upper bound no larger
            than alpha."""
            nonlocal best, nodes, memo, older
            length = len(seq)
            top = state >> last
            if top:
                live = [top & dead for dead in kill].count(0)
                if length + ceiling[live] <= best:
                    return ceiling[live]
            recent = seq[length - (r - 1):] if length >= r - 1 else ()
            blocked = recent if len(set(recent)) == len(recent) else range(1, size + 1)
            longest = 0
            for x in range(1, min(max_sym + 1, size) + 1):
                if nodes >= budget:
                    raise BudgetExhausted(best, nodes)
                nodes += 1
                if x in blocked:
                    continue
                moved = state & at[x]
                nxt = state ^ moved | moved << tracks
                if nxt >> done:
                    continue
                if best == length:
                    best += 1  # seq + [x] is a word
                cut = best - length - 1  # a continuation beats best iff longer
                nxt_code = (code * (size + 1) + x) % span
                nxt_max = max_sym if x <= max_sym else x
                key = nxt >> tracks << state_shift | nxt_code << sym_bits | nxt_max
                entry = memo.get(key)
                keep = entry is None  # an older entry moves back
                if keep:
                    entry = older.get(key)
                # a bound-only entry answers only a visit it cannot beat
                if entry is None or not entry & 1 and entry >> 1 > cut:
                    seq.append(x)
                    before = nodes
                    value = rec(nxt, nxt_code, nxt_max)
                    seq.pop()
                    entry = value << 1 | (value > cut)
                    keep = nodes - before > size  # cheap subtrees are redone
                if keep:
                    if len(memo) >= capacity // 2:
                        older, memo = memo, {}
                    memo[key] = entry
                value = entry >> 1
                if value > cut:  # only an exact value comes back above cut
                    best = length + 1 + value
                if value >= longest:
                    longest = value + 1
            return longest

        try:
            rec(full, 0, 0)
        finally:
            # rec and the memo form a cycle; free the memo now
            memo.clear()
            older.clear()
        return best, nodes

    def search(budget: int) -> tuple[int, int]:
        largest = sequence_automaton(u.letters, n)  # refuses an oversized board first
        ceiling = [0] * (n + 1)  # ceiling[L] = Ex(u, L) once board L is solved
        nodes = 0
        for size in range(1, n + 1):
            tables = largest if size == n else sequence_automaton(u.letters, size)
            try:
                ceiling[size], used = solve(size, tables, ceiling, ceiling[size - 1], budget - nodes)
            except BudgetExhausted as stop:
                value, used = stop.args
                raise BudgetExhausted(value, nodes + used) from None
            nodes += used
        return ceiling[n], nodes

    return run_search("sequence", format_sequence(u), n, node_budget, search)


def insert_repeat(u: Sequence, symbol: int, gap_index: int) -> Sequence:
    """Insert one copy of symbol between two consecutive occurrences of it.

    gap_index counts letters before the insertion point, so the new letter
    lands between positions gap_index and gap_index+1 (1-indexed).
    """
    letters = u.letters
    occ = [i for i, x in enumerate(letters) if x == symbol]
    if len(occ) < 2:
        raise InvalidTransformationError(
            f"symbol {symbol} does not occur twice in {format_sequence(u)}"
        )
    if not any(p1 < gap_index <= p2 for p1, p2 in zip(occ, occ[1:])):
        raise InvalidTransformationError(
            f"gap {gap_index} is not between consecutive occurrences of {symbol}"
        )
    return Sequence(letters[:gap_index] + (symbol,) + letters[gap_index:])


def _candidate_words(k: int, segment_cap: int) -> Iterator[tuple[int, ...]]:
    """The words of mnl_seq_candidates but the injected ababa, in
    length-then-lexicographic order, built level by level.

    Every condition of the stream also holds for prefixes.  So the valid
    prefixes of length L + 1 are those of length L, in lexicographic order,
    each extended by increasing letters, and they come out in lexicographic
    order too; the ones over all k letters are yielded as the level is
    built.  A prefix is dropped when the k - used letters it lacks no
    longer fit before length 2 * segment_cap.

    A prefix's extensions depend only on its condition state: the ababa
    track state, its number of runs, the largest letter used, its last
    letter and whether that letter ends a run of 2.  These states are
    interned as they appear, and each one is stepped on the automaton once
    per letter, so a prefix is one int: its state's number above its
    letters, one byte each, first letter highest.  sequence_automaton
    refuses ababa over more than 94 letters, so a letter fits in a byte.
    Two levels are held at once, and a level of more than
    MAX_MEMO_ENTRIES prefixes ends the stream with InvalidInputError naming
    the last complete length.
    """
    tracks, at = sequence_automaton(ABABA, k)
    done = tracks * len(ABABA)
    max_len = 2 * segment_cap
    limit = MAX_MEMO_ENTRIES
    states: list[tuple[int, int, int, int, bool]] = []  # number -> condition state
    numbers: dict[tuple[int, int, int, int, bool], int] = {}
    # number -> (letter, next state's number, letters still missing) per
    # valid extension; None until first asked for
    steps: list[list[tuple[int, int, int]] | None] = []

    def number(cond: tuple[int, int, int, int, bool]) -> int:
        found = numbers.get(cond)
        if found is None:
            found = numbers[cond] = len(states)
            states.append(cond)
            steps.append(None)
        return found

    def extensions(i: int) -> list[tuple[int, int, int]]:
        state, num_runs, used, last, doubled = states[i]
        out = []
        for x in range(1, min(used + 1, k) + 1):
            if x == last:
                if doubled:
                    continue  # run of 3
                new_runs = num_runs
            else:
                new_runs = num_runs + 1
                if new_runs > segment_cap:
                    continue
            moved = state & at[x]
            nxt = state ^ moved | moved << tracks
            if not nxt >> done:
                new_used = max(used, x)
                out.append((x, number((nxt, new_runs, new_used, x, x == last)), k - new_used))
        steps[i] = out
        return out

    level = [number(((1 << tracks) - 1, 0, 0, 0, False))]
    length = 0
    while level and length < max_len:
        shift = 8 * length
        letters_mask = (1 << shift) - 1
        next_shift = shift + 8
        room = max_len - length - 1  # letters that may still follow the new one
        keep = room > 0
        next_level: list[int] = []
        for prefix in level:
            i = prefix >> shift
            head = (prefix & letters_mask) << 8
            ext = steps[i]
            if ext is None:
                ext = extensions(i)
            for x, j, missing in ext:
                if missing <= room:
                    word = head | x
                    if not missing:
                        yield tuple(word.to_bytes(length + 1, "big"))
                    if keep:
                        next_level.append(j << next_shift | word)
            if len(next_level) > limit:
                raise InvalidInputError(
                    f"more than {limit} prefixes of length {length + 1}; "
                    f"the candidate stream is complete only through length {length}"
                )
        level = next_level
        length += 1


def mnl_seq_candidates(k: int, segment_cap: int) -> Iterator[Sequence]:
    """Stream every sequence satisfying the structural conditions a minimally
    non-linear sequence with k distinct letters must satisfy: runs of length
    at most 2, at most segment_cap runs, and avoidance of ababa.

    ababa itself is the one known exception to its own conditions, so for
    k = 2 it is injected into the stream (when its length fits the stated
    2 * segment_cap length cap).  Emission is in length-then-lexicographic
    order.  This is a superset search tool: emitted sequences are candidates,
    not certified minimally non-linear.

    The words are built level by level, each valid prefix extended once, so
    the stream holds the prefixes of two lengths at a time.  A level of more
    than automaton.MAX_MEMO_ENTRIES prefixes, the engines' memory bound,
    ends the stream with InvalidInputError once every word up to the last
    complete length, which the message names, has been emitted; some words
    one letter longer may have been emitted before it.
    """
    if k < 2:
        raise InvalidInputError(f"k must be >= 2, got {k}")
    if segment_cap < 1:
        raise InvalidInputError(f"segment_cap must be >= 1, got {segment_cap}")
    words = _candidate_words(k, segment_cap)
    if k == 2 and len(ABABA) <= 2 * segment_cap:
        # the other words avoid ababa, so there are no ties
        words = merge(words, [ABABA], key=lambda w: (len(w), w))
    yield from map(Sequence, words)

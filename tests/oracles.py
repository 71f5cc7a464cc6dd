"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately naive and structurally different from the
library code: containment enumerates row/column subsets via combinations,
extremal values enumerate whole objects, the summation oracles evaluate the
bound formulas term by explicit term.  Keep it that way.  The one search
here, tree_ex, is the matrix engine's branch and bound stripped of its memo,
its sorted columns and its choice of orbit member, on the kernels that
test_automaton.py checks against naive_contains and naive_completion; it
reaches boards naive_ex cannot.
"""
import json
from functools import lru_cache
from itertools import combinations, groupby, product
from math import comb

from mnl.automaton import completion_table, matrix_automaton
from mnl.ordered_graphs import Bipartition, OrderedGraph
from mnl.patterns import Pattern01, canonical_key
from mnl.records import ExRecord


def naive_contains(h: Pattern01, p: Pattern01) -> bool:
    if p.num_rows > h.num_rows or p.num_cols > h.num_cols:
        return False
    for rsel in combinations(range(1, h.num_rows + 1), p.num_rows):
        for csel in combinations(range(1, h.num_cols + 1), p.num_cols):
            if all((rsel[i - 1], csel[j - 1]) in h.ones for (i, j) in p.ones):
                return True
    return False


@lru_cache(maxsize=None)  # the suite asks for some n=4 boards from several tests
def naive_ex(n: int, p: Pattern01) -> int:
    best = 0
    for mask in range(1 << (n * n)):
        count = bin(mask).count("1")
        if count <= best:
            continue
        ones = frozenset(
            (r + 1, c + 1)
            for r in range(n)
            for c in range(n)
            if mask & (1 << (r * n + c))
        )
        if not naive_contains(Pattern01(n, n, ones), p):
            best = count
    return best


def tree_ex(n: int, p: Pattern01) -> int:
    """ex(n, p) by depth-first search over the board's columns on p's packed
    tracks, heaviest column first, a branch cut once the completion bound
    cannot beat the best board found."""
    k, m = p.num_rows, p.num_cols
    if k > n:
        return n * n
    tracks, at = matrix_automaton(p.col_masks, k, n)
    comp = completion_table(p.col_masks, k, n)
    per_row = comb(n - 1, k - 1)
    full = (1 << tracks) - 1
    masks = sorted(range(1 << n), key=lambda x: -bin(x).count("1"))
    best = 0

    def room(t: int, state: int) -> int:
        fields = [bin(state >> (j * tracks) & full).count("1") for j in range(m)]
        return sum(c * comp[t][j] for j, c in enumerate(fields)) // per_row

    def rec(ones: int, t: int, state: int) -> None:
        nonlocal best
        if t == 0:
            best = max(best, ones)
            return
        if ones + room(t, state) <= best:
            return
        after = room(t - 1, state)  # tracks only advance, so no child has more room
        for x in masks:
            if ones + bin(x).count("1") + after <= best:
                break
            moved = state & at[x]
            nxt = state ^ moved | moved << tracks
            if not nxt >> (tracks * m):
                rec(ones + bin(x).count("1"), t - 1, nxt)

    rec(0, n, full)
    return best


def naive_completion(col_masks: tuple[int, ...], k: int, t: int, s: int) -> int | None:
    """Most ones k board rows can take in t columns among which the needle
    columns col_masks[s:] do not occur in order, each covered by its board
    column; None when they occur among every choice."""
    rest = col_masks[s:]
    best = None
    for cols in product(range(1 << k), repeat=t):
        if any(
            all(cols[i] & need == need for i, need in zip(pos, rest))
            for pos in combinations(range(t), len(rest))
        ):
            continue
        ones = sum(bin(c).count("1") for c in cols)
        if best is None or ones > best:
            best = ones
    return best


def naive_seq_contains(u: list[int] | tuple[int, ...], v: list[int] | tuple[int, ...]) -> bool:
    if len(v) > len(u):
        return False
    for pos in combinations(range(len(u)), len(v)):
        sub = [u[i] for i in pos]
        pairs = set(zip(sub, v))
        if len(set(sub)) == len(set(v)) == len(pairs):
            return True
    return False


def naive_seq_ex(v: tuple[int, ...], n: int) -> int:
    """Max length over all normalized words on at most n symbols with every
    r consecutive letters distinct and no copy of v."""
    r = len(set(v))
    best = 0

    def rec(seq: list[int], top: int) -> None:
        nonlocal best
        best = max(best, len(seq))
        for x in range(1, min(top + 1, n) + 1):
            seq.append(x)
            window_ok = len(seq) < r or len(set(seq[-r:])) == r
            if window_ok and not naive_seq_contains(seq, v):
                rec(seq, max(top, x))
            seq.pop()

    rec([], 0)
    return best


def naive_seq_candidates(k: int, cap: int) -> list[tuple[int, ...]]:
    """mnl_seq_candidates(k, cap) by brute force: every restricted-growth
    word of length <= 2 * cap over exactly k letters, runs of length at
    most 2, at most cap runs and no ababa, plus ababa itself for k = 2,
    sorted by (length, word)."""
    ababa = (1, 2, 1, 2, 1)
    words = [ababa] if k == 2 and len(ababa) <= 2 * cap else []
    for length in range(1, 2 * cap + 1):
        for word in product(range(1, k + 1), repeat=length):
            firsts = list(dict.fromkeys(word))
            if firsts != list(range(1, k + 1)):
                continue
            runs = [len(list(group)) for _, group in groupby(word)]
            if max(runs) <= 2 and len(runs) <= cap and not naive_seq_contains(word, ababa):
                words.append(word)
    return sorted(words, key=lambda w: (len(w), w))


def naive_og_contains(h: OrderedGraph, g: OrderedGraph) -> bool:
    if g.num_vertices > h.num_vertices:
        return False
    for sel in combinations(range(1, h.num_vertices + 1), g.num_vertices):
        if all((sel[u - 1], sel[v - 1]) in h.edges for (u, v) in g.edges):
            return True
    return False


def naive_og_ex(n: int, g: OrderedGraph) -> int:
    slots = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    best = 0
    for mask in range(1 << len(slots)):
        count = bin(mask).count("1")
        if count <= best:
            continue
        edges = frozenset(s for i, s in enumerate(slots) if mask & (1 << i))
        if not naive_og_contains(OrderedGraph(n, edges), g):
            best = count
    return best


def naive_interval_chromatic(g: OrderedGraph) -> int:
    """Minimum over every cut set of the vertex line."""
    n = g.num_vertices
    best = n
    for cuts in product((False, True), repeat=n - 1):
        parts = []
        start = 1
        for gap, cut in enumerate(cuts, start=1):
            if cut:
                parts.append(set(range(start, gap + 1)))
                start = gap + 1
        parts.append(set(range(start, n + 1)))
        if all(not ({u, v} <= part) for part in parts for u, v in g.edges):
            best = min(best, len(parts))
    return best


def naive_realizing_bipartitions(g: OrderedGraph, p: Pattern01) -> list[Bipartition]:
    """Every vertex subset holding vertex 1 as part_u, in order of size and
    then of the sorted subset, kept when both sides are independent and the
    rows-by-columns edge matrix has the canonical key of p."""
    n = g.num_vertices
    target = canonical_key(p)
    found = []
    for size in range(n):
        for others in combinations(range(2, n + 1), size):
            part_u = (1,) + others
            part_v = tuple(v for v in range(1, n + 1) if v not in part_u)
            if not part_v:
                continue
            if any({a, b} <= set(part_u) or {a, b} <= set(part_v) for a, b in g.edges):
                continue
            ones = frozenset(
                (part_u.index(a) + 1, part_v.index(b) + 1) if a in part_u
                else (part_u.index(b) + 1, part_v.index(a) + 1)
                for a, b in g.edges
            )
            if canonical_key(Pattern01(len(part_u), len(part_v), ones)) == target:
                found.append(Bipartition(frozenset(part_u), frozenset(part_v)))
    return found


def sum_matrix_bound(k: int) -> int:
    low = (k + 2 + 3) // 4  # ceil((k+2)/4)
    total = 0
    for i in range(low, 4 * k - 1):
        term = (i**k - (i - 1) ** k) * k ** (i - 1)
        total = total + term
    return total


def sum_seq_bound(k: int, cap: int) -> int:
    total = 0
    power = 1
    for _ in range(cap):
        total += power
        power *= 2 * k - 2
    return 2 * k * total


def sum_og_bound(k: int) -> int:
    low = (k + 2 + 3) // 4
    total = 0
    for i in range(low, 4 * k - 1):
        total += comb(k + i, k) * (i**k - (i - 1) ** k) * k ** (i - 1)
    return total


def naive_cache_get(path, key: str, kind: str, n: int) -> ExRecord | None:
    """Decode every non-blank line of a cache file and keep the best record
    under (key, kind, n): exact before inexact, then the larger value, the
    earlier line on a tie.  Lines that do not decode to a record are skipped."""
    best = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                rec = ExRecord.from_json_dict(json.loads(line))
            except (KeyError, TypeError, ValueError):
                continue
            if (rec.pattern_key, rec.kind, rec.n) != (key, kind, n):
                continue
            if best is None or (rec.exact, rec.value) > (best.exact, best.value):
                best = rec
    return best

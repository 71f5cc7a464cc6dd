"""Candidate enumeration for minimally non-linear patterns.

The structural filters below are necessary conditions extracted from the
ratio, ones-count, and reduction theorems for minimally non-linear 0-1
matrices and bipartite ordered graphs.  A pattern that survives them is a
structural-candidate, nothing stronger: deciding non-linearity is open, and
no verdict here ever claims it.  The seven known 2-row minimally non-linear
matrices are recognized exactly (reflections counted as distinct patterns,
matching how they are usually listed).

The matrix stream does not filter every pattern the counting bound counts:
it builds the leftmost-one construction column by column and cuts a prefix
at the first check it fails that more columns cannot mend (a run of 3 or an
abab in the scan word, a known 2-row matrix contained).  A survivor passes
every check of structural_filter by construction, so the stream writes its
report without running the filter again; only the known seven, seeded at
k = 2, go through structural_filter.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import comb
from typing import Iterator, Union

from .automaton import matrix_automaton, sequence_automaton
from .errors import InvalidInputError
from .ordered_graphs import (
    Bipartition,
    OrderedGraph,
    go_family,
    og_bipartite_reduce,
    og_contains,
    realizing_bipartitions,
    underlying_is_k22,
)
from .patterns import (
    Pattern01,
    _scan_letter,
    canonical_key,
    contains,
    parse_pattern,
    reduce_leftmost,
    reflect_vertical,
    scan_reduction,
)
from .records import GrowthReport
from .sequences import Sequence, blocks, seq_contains

ABAB = Sequence((1, 2, 1, 2))


@dataclass(frozen=True)
class FilterCheck:
    name: str
    status: str  # pass | fail | exception
    detail: str


@dataclass(frozen=True)
class CandidateReport:
    pattern: Union[Pattern01, OrderedGraph]
    checks: tuple[FilterCheck, ...]
    verdict: str  # rejected | structural-candidate | known-mnl
    growth: GrowthReport | None = field(default=None)

    def to_json_dict(self) -> dict:
        out = {
            "pattern": str(self.pattern),
            "checks": [
                {"name": c.name, "status": c.status, "detail": c.detail}
                for c in self.checks
            ],
            "verdict": self.verdict,
        }
        if self.growth is not None:
            out["growth"] = self.growth.to_json_dict()
        return out


def _check_k(k: int) -> None:
    if k < 2:
        raise InvalidInputError(f"k must be >= 2, got {k}")


def _col_range(k: int) -> tuple[int, int]:
    return -((k + 2) // -4), 4 * k - 2


@lru_cache(maxsize=1)
def known_mnl_2row() -> frozenset[Pattern01]:
    """The seven known 2-row minimally non-linear matrices: the 2x2 all-ones
    block, two three-column matrices, one four-column matrix, and the
    vertical reflections of the last three."""
    base = [
        parse_pattern("11/11"),
        parse_pattern("101/011"),
        parse_pattern("011/101"),
        parse_pattern("1010/0101"),
    ]
    return frozenset(base + [reflect_vertical(p) for p in base[1:]])


# The checks a construction survivor passes whatever its shape.
_ZERO_FREE = FilterCheck("zero-lines", "pass", "no all-zero row or column")
_LEFTMOST_PASS = FilterCheck(
    "leftmost-reduction", "pass", "at most one one per column after removing leftmost ones"
)
_STRICT_PASS = FilterCheck("strict-2row-containment", "pass", "contains no known 2-row matrix strictly")


def _range_checks(k: int, c: int, ones: int) -> tuple[FilterCheck, FilterCheck]:
    lo, hi = _col_range(k)
    ok = lo <= c <= hi
    cols = FilterCheck("column-range", "pass" if ok else "fail", f"columns {c} vs allowed [{lo}, {hi}] for {k} rows")
    ok = k <= ones <= 5 * k - 3
    return cols, FilterCheck("ones-range", "pass" if ok else "fail", f"ones {ones} vs allowed [{k}, {5 * k - 3}]")


def _scan_pass(word: Sequence) -> FilterCheck:
    return FilterCheck("scan-word", "pass", f"scan word {word} has short runs and no abab")


def structural_filter(p: Pattern01) -> CandidateReport:
    """Run the matrix candidate checks in order, recording each verdict.
    Failures are reported, never raised."""
    if not p.ones:
        raise InvalidInputError("empty pattern")
    k, c = p.num_rows, p.num_cols
    checks: list[FilterCheck] = []

    rows_with = {r for r, _ in p.ones}
    cols_with = {cc for _, cc in p.ones}
    zero_free = len(rows_with) == k and len(cols_with) == c
    checks.append(
        _ZERO_FREE if zero_free else FilterCheck("zero-lines", "fail", "has an all-zero row or column")
    )
    checks += _range_checks(k, c, len(p.ones))

    if not zero_free:
        skipped = "skipped: needs a pattern without zero lines"
        checks.append(FilterCheck("leftmost-reduction", "exception", skipped))
        checks.append(FilterCheck("scan-word", "exception", skipped))
    else:
        reduced = reduce_leftmost(p)
        col_loads = [0] * c
        for _, cc in reduced.ones:
            col_loads[cc - 1] += 1
        ok = all(load <= 1 for load in col_loads)
        if ok:
            checks.append(_LEFTMOST_PASS)
        elif p in known_mnl_2row():
            checks.append(
                FilterCheck("leftmost-reduction", "exception", "multi-one column allowed for this exceptional matrix")
            )
        else:
            checks.append(
                FilterCheck("leftmost-reduction", "fail", "a column keeps multiple ones after removing leftmost ones")
            )

        word = scan_reduction(p)
        longest_run = max(length for _, length in blocks(word).runs)
        has_abab = seq_contains(word, ABAB)
        if longest_run < 3 and not has_abab:
            checks.append(_scan_pass(word))
        elif p in known_mnl_2row():
            checks.append(FilterCheck("scan-word", "exception", "abab scan word allowed for this exceptional matrix"))
        else:
            reason = "a run of length 3" if longest_run >= 3 else "an abab alternation"
            checks.append(FilterCheck("scan-word", "fail", f"scan word {word} has {reason}"))

    strict_hits = [
        m for m in known_mnl_2row() if m != p and contains(p, m)
    ]
    checks.append(
        FilterCheck("strict-2row-containment", "fail", f"strictly contains {strict_hits[0]}")
        if strict_hits else _STRICT_PASS
    )

    if any(ch.status == "fail" for ch in checks):
        verdict = "rejected"
    elif p in known_mnl_2row():
        verdict = "known-mnl"
    else:
        verdict = "structural-candidate"
    return CandidateReport(pattern=p, checks=tuple(checks), verdict=verdict)


class _PrefixScreen:
    """The checks of structural_filter that a prefix of columns can only keep
    failing as columns are added, advanced one column at a time: a run of 3
    or an abab in the scan word, and containment of a known 2-row matrix.
    The 5k-3 ones cap needs no check: a construction pattern has at most
    k + num_cols - 1 ones, and num_cols <= 4k - 2.

    The screen is a product automaton built as it is used.  A state is one
    int: the last scan letter as a row bit in the low k bits, its run length
    in the next two, then the abab tracks' packed state
    (automaton.sequence_automaton), then each known matrix's packed tracks
    (automaton.matrix_automaton).  advance answers a (state, mask) pair it
    has seen from its memo and steps every track only on a miss.  The scan
    word is built left to right, so a prefix's word is a prefix of the full
    word; its letters stay raw row numbers, since renaming changes neither
    runs nor abab.
    """

    def __init__(self, k: int) -> None:
        self.k = k
        self.abab_tracks, self.abab_at = sequence_automaton(ABAB.letters, k)
        self.abab_bits = self.abab_tracks * len(ABAB.letters)
        self.start = ((1 << self.abab_tracks) - 1) << (k + 2)
        shift = k + 2 + self.abab_bits
        # each known matrix's tracks over the k pattern rows, packed as in
        # matrix_automaton, as (T, at, the bit from which a copy is found)
        self.known = []
        for m in known_mnl_2row():
            tracks, at = matrix_automaton(m.col_masks, 2, k)
            self.known.append((tracks, at, tracks * m.num_cols))
            self.start |= ((1 << tracks) - 1) << shift
            shift += tracks * m.num_cols
        self.memo: dict[tuple[int, int], int | None] = {}

    def advance(self, state: int, mask: int) -> int | None:
        """The state after one more column, or None once a check fails."""
        key = state, mask
        try:
            return self.memo[key]
        except KeyError:
            nxt = self.memo[key] = self._step(state, mask)
            return nxt

    def _step(self, state: int, mask: int) -> int | None:
        k = self.k
        prev = state & ((1 << k) - 1)
        letter = _scan_letter(prev, mask)
        run = (state >> k & 3) + 1 if letter == prev else 1
        if run >= 3:
            return None
        shift = k + 2
        abab = state >> shift & ((1 << self.abab_bits) - 1)
        moved = abab & self.abab_at[letter.bit_length()]
        abab = abab ^ moved | moved << self.abab_tracks
        if abab >> self.abab_bits:
            return None
        nxt = letter | run << k | abab << shift
        shift += self.abab_bits
        for tracks, at, done in self.known:
            track = state >> shift & ((1 << done) - 1)
            moved = track & at[mask]
            track = track ^ moved | moved << tracks
            if track >> done:
                return None
            nxt |= track << shift
            shift += done
        return nxt


def _construction(k: int, num_cols: int, screen: _PrefixScreen | None = None) -> Iterator[Pattern01]:
    """The leftmost-one construction built column by column: each column
    starts some rows that have no one yet (column 1 at least one, the last
    column all that are left) and adds at most one extra one in a row started
    further left; a column that starts no row must add one.  Each pattern
    arises exactly once.

    With a screen, a prefix is cut at the first check it fails; a cut prefix
    only leads to patterns structural_filter rejects, or to one of the known
    2-row matrices (each contains itself), which enumerate_candidates adds
    back to every k = 2 batch.
    """
    full = (1 << k) - 1

    def extend(masks: tuple[int, ...], started: int, state) -> Iterator[Pattern01]:
        last = len(masks) + 1 == num_cols
        unstarted = full & ~started
        if last:
            starts = [unstarted]
        else:
            starts = [s for s in range(unstarted + 1) if s & unstarted == s and (s or masks)]
        held = [1 << r for r in range(k) if started >> r & 1]
        for new in starts:
            for extra in held + ([0] if new else []):
                cols = masks + (new | extra,)
                nxt = screen.advance(state, cols[-1]) if screen else state
                if nxt is None:
                    continue
                if last:
                    yield Pattern01(k, num_cols, frozenset(
                        (r + 1, c) for c, m in enumerate(cols, 1) for r in range(k) if m >> r & 1
                    ))
                else:
                    yield from extend(cols, started | new, nxt)

    yield from extend((), 0, screen.start if screen else ())


def construction_patterns(k: int, num_cols: int) -> Iterator[Pattern01]:
    """Raw generator behind the counting bound: pick each row's leftmost-one
    column (column 1 must host at least one of them), then give every later
    column at most one extra one in a row whose leftmost lies further left.
    Each generated pattern arises exactly once."""
    return _construction(k, num_cols)


def enumerate_candidates(
    k: int, col_min: int, col_max: int
) -> Iterator[CandidateReport]:
    """Stream non-rejected candidate reports for k-row patterns with column
    counts in [col_min, col_max], in column-count-then-row-string order.

    The construction is built column by column, and a prefix is cut at the
    first monotone check of structural_filter it fails (_PrefixScreen); the
    stream is the same as filtering every construction pattern.  Each
    survivor passes all six checks, and its report says so without running
    them again: it has no zero line (every row is started, every column
    holds a one), its column count lies in the range checked below, it has
    at most k + num_cols - 1 <= 5k - 3 ones, removing each row's leftmost one
    leaves at most the one extra per column, and the screen proved its scan
    word and its strict 2-row containment.  The screen cuts every known
    2-row matrix, since each contains itself (and the leftmost-one
    reconstruction cannot reach the three whose reduced form keeps a
    multi-one column), so for k = 2 the known seven are seeded into the
    stream through structural_filter.
    """
    _check_k(k)
    lo, hi = _col_range(k)
    if not lo <= col_min <= col_max <= hi:
        raise InvalidInputError(
            f"column range [{col_min}, {col_max}] must sit inside [{lo}, {hi}] for k={k}"
        )
    screen = _PrefixScreen(k)
    for i in range(col_min, col_max + 1):
        batch = {}
        for p in _construction(k, i, screen):
            checks = (_ZERO_FREE, *_range_checks(k, i, len(p.ones)), _LEFTMOST_PASS,
                      _scan_pass(scan_reduction(p)), _STRICT_PASS)
            batch[str(p)] = CandidateReport(p, checks, "structural-candidate")
        if k == 2:
            batch.update((str(m), structural_filter(m)) for m in known_mnl_2row() if m.num_cols == i)
        for key in sorted(batch):
            yield batch[key]


def matrix_count_bound(k: int) -> int:
    """Upper bound on the number of minimally non-linear 0-1 matrices with
    k rows, summed over the admissible column counts."""
    return _count_bound("matrix", k, *_col_range(k))


def seq_count_bound(k: int, ex_ababa_k: int) -> int:
    """Upper bound on the number of minimally non-linear sequences with k
    distinct letters, given a cap on the number of runs."""
    return _count_bound("seq", k, 1, ex_ababa_k)


def og_count_bound(k: int) -> int:
    """Upper bound on the number of minimally non-linear bipartite ordered
    graphs with k vertices in one part; the binomial factor counts the
    interleavings of the two parts."""
    return _count_bound("og", k, *_col_range(k))


def _count_bound(mode: str, k: int, first: int, last: int, limit: int | None = None) -> int | None:
    """The counting bound of mode ("matrix", "og" or "seq") for k rows or
    letters, summed over the column counts (run counts for seq) first..last.
    With a limit, None as soon as the partial sum exceeds it."""
    _check_k(k)
    if mode == "seq" and last < 1:
        raise InvalidInputError(f"cap must be >= 1, got {last}")
    # every term is at least 2^(i-1) since k >= 2, so a range reaching past
    # the limit's bit length has a single term above the limit
    if limit is not None and first <= last and last > limit.bit_length():
        return None
    total = 0
    for i in range(first, last + 1):
        if mode == "seq":
            total += 2 * k * (2 * k - 2) ** (i - 1)
        else:
            term = (i**k - (i - 1) ** k) * k ** (i - 1)
            total += comb(k + i, k) * term if mode == "og" else term
        if limit is not None and total > limit:
            return None
    return total


@lru_cache(maxsize=1)
def _known_og_members() -> frozenset[OrderedGraph]:
    out: set[OrderedGraph] = set()
    for m in known_mnl_2row():
        out.update(go_family(m))
    return frozenset(out)


@lru_cache(maxsize=1)
def _q_family() -> frozenset[OrderedGraph]:
    return go_family(parse_pattern("101/011"))


def og_structural_filter(g: OrderedGraph, parts: Bipartition) -> CandidateReport:
    """Ordered-graph analogue of structural_filter for a bipartite graph with
    a chosen bipartition.  A bad bipartition raises InvalidInputError from
    og_bipartite_reduce's check_bipartition."""
    checks: list[FilterCheck] = []
    small = min(len(parts.part_u), len(parts.part_v))
    large = max(len(parts.part_u), len(parts.part_v))
    is_k22 = underlying_is_k22(g)

    ok = large <= 4 * small - 2
    checks.append(
        FilterCheck(
            "part-ratio",
            "pass" if ok else "fail",
            f"parts {len(parts.part_u)} and {len(parts.part_v)}: larger {large} vs cap {4 * small - 2}",
        )
    )

    edges = len(g.edges)
    cap = len(parts.part_u) + len(parts.part_v) - 1
    if edges <= cap:
        checks.append(FilterCheck("edge-count-bipartite", "pass", f"{edges} edges within {cap}"))
    elif is_k22:
        checks.append(
            FilterCheck("edge-count-bipartite", "exception", "edge excess allowed: underlying graph is K22")
        )
    else:
        checks.append(FilterCheck("edge-count-bipartite", "fail", f"{edges} edges exceed {cap}"))

    cap = 2 * g.num_vertices - 2
    ok = edges <= cap
    checks.append(
        FilterCheck(
            "edge-count-total",
            "pass" if ok else "fail",
            f"{edges} edges vs cap {cap} for {g.num_vertices} vertices",
        )
    )

    reduced = og_bipartite_reduce(g, parts)
    heavy = [v for v in sorted(parts.part_v) if reduced.degree(v) > 1]
    if not heavy:
        checks.append(
            FilterCheck("bipartite-reduction", "pass", "every second-part vertex keeps at most one neighbor")
        )
    elif is_k22 or g in _q_family():
        checks.append(
            FilterCheck("bipartite-reduction", "exception", "multi-neighbor vertex allowed for this exceptional graph")
        )
    else:
        checks.append(
            FilterCheck("bipartite-reduction", "fail", f"vertex {heavy[0]} keeps several neighbors after reduction")
        )

    known = _known_og_members()
    is_known = g in known
    # only a known member needs the others told from itself
    others = (m for m in known if m != g) if is_known else known
    hit = next((m for m in others if og_contains(g, m)), None)
    checks.append(
        FilterCheck(
            "strict-known-containment",
            "fail" if hit is not None else "pass",
            f"strictly contains {hit}" if hit is not None else "contains no known family member strictly",
        )
    )

    if any(ch.status == "fail" for ch in checks):
        verdict = "rejected"
    elif is_known:
        verdict = "known-mnl"
    else:
        verdict = "structural-candidate"
    return CandidateReport(pattern=g, checks=tuple(checks), verdict=verdict)


def enumerate_og_candidates(
    k: int, col_min: int, col_max: int
) -> Iterator[CandidateReport]:
    """Bipartite ordered-graph candidates: every realization of every
    non-rejected k-row matrix candidate, run through og_structural_filter
    with its unique realizing bipartition (the part holding vertex 1 plays
    the role of part_u).  Each graph is emitted once.

    go_family is the same for every member of a dihedral orbit: the
    reflections are its row and column direction flips, a transpose swaps
    which positions hold rows, and its uniqueness test takes the whole
    orbit.  So only an orbit's first candidate is expanded; every graph a
    later member would give is already seen."""
    seen: set[str] = set()  # texts, so each graph is freed with its report
    expanded: set[str] = set()
    for report in enumerate_candidates(k, col_min, col_max):
        p = report.pattern
        assert isinstance(p, Pattern01)
        orbit = canonical_key(p)
        if orbit in expanded:
            continue
        expanded.add(orbit)
        for g in sorted(go_family(p), key=str):
            if str(g) in seen:
                continue
            seen.add(str(g))
            parts = realizing_bipartitions(g, p)[0]
            og_report = og_structural_filter(g, parts)
            if og_report.verdict != "rejected":
                yield og_report

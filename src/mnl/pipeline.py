"""Candidate enumeration for minimally non-linear patterns.

The structural filters below are necessary conditions extracted from the
ratio, ones-count, and reduction theorems for minimally non-linear 0-1
matrices and bipartite ordered graphs.  A pattern that survives them is a
structural-candidate, nothing stronger: deciding non-linearity is open, and
no verdict here ever claims it.  The seven known 2-row minimally non-linear
matrices are recognized exactly (reflections counted as distinct patterns,
matching how they are usually listed).

The matrix stream does not filter every pattern the counting bound counts:
it builds the leftmost-one construction with automaton.prefix_levels, one
column at a time, and cuts a prefix at the first check it fails that more
columns cannot mend (a run of 3 or an abab in the scan word, a known
2-row matrix contained).  A survivor passes every check of
structural_filter by construction, so the stream writes its report, or its
JSON document, from its column masks without running the filter again;
only the known seven, seeded at k = 2, go through structural_filter.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from types import SimpleNamespace
from typing import Iterator, Union

from . import automaton
from .errors import InvalidInputError
from .ordered_graphs import (
    Bipartition,
    NeedleTable,
    OrderedGraph,
    go_family,
    go_realizations,
    og_bipartite_reduced_degrees,
    og_contains,
    # realizing_bipartitions is not called here; perfbench's traced run rebinds it on this module.
    realizing_bipartitions,  # noqa: F401
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
    scan_letters,
    scan_reduction,
)
from .sequences import Sequence, blocks, format_letters, seq_contains

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

    def to_json_dict(self) -> dict:
        return _document(str(self.pattern), self.checks, self.verdict)


def _document(pattern: str, checks: tuple[FilterCheck, ...], verdict: str) -> dict:
    return {
        "pattern": pattern,
        "checks": [{"name": c.name, "status": c.status, "detail": c.detail} for c in checks],
        "verdict": verdict,
    }


def _check(name: str, ok: bool, detail: str) -> FilterCheck:
    return FilterCheck(name, "pass" if ok else "fail", detail)


def _report(pattern: Union[Pattern01, OrderedGraph], checks: list[FilterCheck], known: bool) -> CandidateReport:
    verdict = "known-mnl" if known else "structural-candidate"
    return CandidateReport(pattern, tuple(checks), "rejected" if any(c.status == "fail" for c in checks) else verdict)


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
    base = [parse_pattern(text) for text in ("11/11", "101/011", "011/101", "1010/0101")]
    return frozenset(base + [reflect_vertical(p) for p in base[1:]])


# The checks a construction survivor passes whatever its shape.
_ZERO_FREE = FilterCheck("zero-lines", "pass", "no all-zero row or column")
_LEFTMOST_PASS = FilterCheck("leftmost-reduction", "pass", "at most one one per column after removing leftmost ones")
_STRICT_PASS = FilterCheck("strict-2row-containment", "pass", "contains no known 2-row matrix strictly")


def _range_checks(k: int, c: int, ones: int) -> tuple[FilterCheck, FilterCheck]:
    lo, hi = _col_range(k)
    return (_check("column-range", lo <= c <= hi, f"columns {c} vs allowed [{lo}, {hi}] for {k} rows"),
            _check("ones-range", k <= ones <= 5 * k - 3, f"ones {ones} vs allowed [{k}, {5 * k - 3}]"))


def _scan_pass(word: str) -> FilterCheck:
    return FilterCheck("scan-word", "pass", f"scan word {word} has short runs and no abab")


def structural_filter(p: Pattern01) -> CandidateReport:
    """Run the matrix candidate checks in order, recording each verdict.
    Failures are reported, never raised."""
    if not p.ones:
        raise InvalidInputError("empty pattern")
    k, c = p.num_rows, p.num_cols
    zero_free = len({r for r, _ in p.ones}) == k and len({cc for _, cc in p.ones}) == c
    checks = [_ZERO_FREE if zero_free else FilterCheck("zero-lines", "fail", "has an all-zero row or column")]
    checks += _range_checks(k, c, len(p.ones))

    if not zero_free:
        skipped = "skipped: needs a pattern without zero lines"
        checks += [FilterCheck(name, "exception", skipped) for name in ("leftmost-reduction", "scan-word")]
    else:
        kept = [cc for _, cc in reduce_leftmost(p).ones]
        if len(kept) == len(set(kept)):
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
            checks.append(_scan_pass(str(word)))
        elif p in known_mnl_2row():
            checks.append(FilterCheck("scan-word", "exception", "abab scan word allowed for this exceptional matrix"))
        else:
            reason = "a run of length 3" if longest_run >= 3 else "an abab alternation"
            checks.append(FilterCheck("scan-word", "fail", f"scan word {word} has {reason}"))

    strict_hits = [m for m in known_mnl_2row() if m != p and contains(p, m)]
    checks.append(
        FilterCheck("strict-2row-containment", "fail", f"strictly contains {strict_hits[0]}")
        if strict_hits else _STRICT_PASS
    )
    return _report(p, checks, p in known_mnl_2row())


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
    (automaton.matrix_automaton).  advance steps every track, once per
    construction state and column (_construction).  The scan word is built
    left to right, so a prefix's word is a prefix of the full word; its
    letters stay raw row numbers, since renaming changes neither runs nor
    abab.
    """

    def __init__(self, k: int) -> None:
        self.k = k
        self.abab_tracks, self.abab_at = automaton.sequence_automaton(ABAB.letters, k)
        self.abab_bits = self.abab_tracks * len(ABAB.letters)
        self.start = ((1 << self.abab_tracks) - 1) << (k + 2)
        shift = k + 2 + self.abab_bits
        # each known matrix's tracks over the k pattern rows, packed as in
        # matrix_automaton, as (T, at, the bit from which a copy is found)
        self.known = []
        for m in known_mnl_2row():
            tracks, at = automaton.matrix_automaton(m.col_masks, 2, k)
            self.known.append((tracks, at, tracks * m.num_cols))
            self.start |= ((1 << tracks) - 1) << shift
            shift += tracks * m.num_cols

    def advance(self, state: int, mask: int) -> int | None:
        """The state after one more column, or None once a check fails."""
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


# A screen that cuts no prefix, for the whole construction.
_UNSCREENED = SimpleNamespace(start=0, advance=lambda state, mask: state)


def _construction(k: int, col_min: int, col_max: int, screen) -> Iterator[list[tuple[str, tuple[int, ...]]]]:
    """The construction's patterns of each column count from col_min to
    col_max that the screen keeps, as (row text, column masks), built by
    automaton.prefix_levels.  A column starts some rows that have no one
    yet and adds at most one extra one in a row already started, exactly
    one if it starts no row; so column 1 starts a row.  A prefix's state is
    (rows started, screen state), and it is complete once every row is
    started.  Each pattern arises exactly once.  A prefix _PrefixScreen
    cuts only leads to patterns structural_filter rejects, or to one of the
    known 2-row matrices (each contains itself).  A column is one byte, so
    k is at most 8."""
    if k > 8:
        raise InvalidInputError(f"the matrix construction takes at most 8 rows, got k={k}")
    full = (1 << k) - 1
    column = lru_cache(maxsize=None)(lambda mask: format(mask, f"0{k}b")[::-1])  # its rows' digits, row 1 first

    def extend(state: tuple[int, int]) -> Iterator[tuple[int, tuple[int, int], int]]:
        started, at = state
        held = [1 << r for r in range(k) if started >> r & 1]
        for new in range(full + 1):
            if not new & started:
                now = started | new
                for extra in held + [0] * (new > 0):
                    after = screen.advance(at, new | extra)
                    if after is not None:
                        yield new | extra, (now, after), int(now != full)

    levels = automaton.prefix_levels((0, screen.start), extend, col_max, "columns")
    for i in range(1, col_max + 1):
        complete = next(levels, ())  # none after an empty level
        if i >= col_min:
            yield [("/".join(map("".join, zip(*map(column, masks)))), masks) for masks in complete]


def _pattern(k: int, masks: tuple[int, ...]) -> Pattern01:
    ones = frozenset((r + 1, c) for c, m in enumerate(masks, 1) for r in range(k) if m >> r & 1)
    return Pattern01(k, len(masks), ones)


def construction_patterns(k: int, num_cols: int) -> Iterator[Pattern01]:
    """Raw generator behind the counting bound: pick each row's leftmost-one
    column (column 1 must host at least one of them), then give every later
    column at most one extra one in a row whose leftmost lies further left.
    Each generated pattern arises exactly once.  This is the stream's own
    construction with a screen that cuts nothing, so its levels are capped
    in the same way."""
    for batch in _construction(k, num_cols, num_cols, _UNSCREENED):
        yield from (_pattern(k, masks) for _, masks in batch)


def _survivors(k: int, col_min: int, col_max: int) -> Iterator[tuple[str, tuple[int, ...], tuple, str]]:
    """enumerate_candidates's stream as (row text, column masks, checks,
    verdict).  A survivor's checks are shared by every survivor with its
    ones count and scan word."""
    _check_k(k)
    lo, hi = _col_range(k)
    if not lo <= col_min <= col_max <= hi:
        raise InvalidInputError(f"column range [{col_min}, {col_max}] must sit inside [{lo}, {hi}] for k={k}")
    shared: dict[tuple[int, str], tuple[FilterCheck, ...]] = {}
    for i, batch in enumerate(_construction(k, col_min, col_max, _PrefixScreen(k)), col_min):
        known = {str(m): structural_filter(m) for m in known_mnl_2row() if k == 2 and m.num_cols == i}
        batch += [(text, r.pattern.col_masks) for text, r in known.items()]
        for text, masks in sorted(batch):
            if text in known:
                yield text, masks, known[text].checks, known[text].verdict
                continue
            key = ones, word = sum(map(int.bit_count, masks)), format_letters(scan_letters(masks))
            checks = shared.get(key)
            if checks is None:
                checks = shared[key] = (_ZERO_FREE, *_range_checks(k, i, ones), _LEFTMOST_PASS,
                                        _scan_pass(word), _STRICT_PASS)
            yield text, masks, checks, "structural-candidate"


def enumerate_candidates(k: int, col_min: int, col_max: int) -> Iterator[CandidateReport]:
    """Stream non-rejected candidate reports for k-row patterns with column
    counts in [col_min, col_max], in column-count-then-row-string order.

    The construction is built level by level (_construction), each prefix
    extended once and cut at the first monotone check of structural_filter
    it fails (_PrefixScreen); the stream is the same as filtering every
    construction pattern.  Each survivor passes all six checks, and its
    report says so without running them: it has no zero line (every row is
    started, every column holds a one), its column count lies in the range
    checked here, it has at most k + num_cols - 1 <= 5k - 3 ones, removing
    each row's leftmost one leaves at most the one extra per column, and the
    screen proved its scan word and its strict 2-row containment.  The
    screen cuts every known 2-row matrix, since each contains itself (and
    the construction cannot reach the three whose reduced form keeps a
    multi-one column), so for k = 2 the known seven are seeded into the
    stream through structural_filter.  A level of more than
    automaton.MAX_MEMO_ENTRIES prefixes ends the stream with
    InvalidInputError, after every report up to the column count it names.
    """
    for _, masks, checks, verdict in _survivors(k, col_min, col_max):
        yield CandidateReport(_pattern(k, masks), checks, verdict)


def candidate_documents(k: int, col_min: int, col_max: int) -> Iterator[dict]:
    """The to_json_dict documents of enumerate_candidates's reports, each
    written from the survivor's row text: no Pattern01, Sequence or
    CandidateReport is built for it."""
    return (_document(text, checks, verdict) for text, _, checks, verdict in _survivors(k, col_min, col_max))


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
def _known_og_table() -> NeedleTable:
    """_known_og_members as og_structural_filter screens them, in that
    frozenset's own iteration order."""
    return NeedleTable(_known_og_members())


@lru_cache(maxsize=1)
def _q_family() -> frozenset[OrderedGraph]:
    return go_family(parse_pattern("101/011"))


def og_structural_filter(g: OrderedGraph, parts: Bipartition) -> CandidateReport:
    """Ordered-graph analogue of structural_filter for a bipartite graph with
    a chosen bipartition.  A bad bipartition raises InvalidInputError from
    check_bipartition.

    The strict-known-containment check screens g against every known
    family member at once (_known_og_table) and runs og_contains only on
    the members that screen keeps, in the members' order.  The screen drops
    only members og_contains would refuse, so the report names the first
    member, in that order, that g strictly contains."""
    nu, nv = len(parts.part_u), len(parts.part_v)
    small, large = min(nu, nv), max(nu, nv)
    is_k22 = underlying_is_k22(g)
    cap = 4 * small - 2
    checks = [_check("part-ratio", large <= cap, f"parts {nu} and {nv}: larger {large} vs cap {cap}")]

    edges, cap = len(g.edges), nu + nv - 1
    if edges <= cap:
        checks.append(FilterCheck("edge-count-bipartite", "pass", f"{edges} edges within {cap}"))
    elif is_k22:
        checks.append(FilterCheck("edge-count-bipartite", "exception", "edge excess allowed: underlying graph is K22"))
    else:
        checks.append(FilterCheck("edge-count-bipartite", "fail", f"{edges} edges exceed {cap}"))
    cap = 2 * g.num_vertices - 2
    checks.append(_check("edge-count-total", edges <= cap, f"{edges} edges vs cap {cap} for {g.num_vertices} vertices"))

    degrees = og_bipartite_reduced_degrees(g, parts)
    heavy = [v for v in sorted(parts.part_v) if degrees[v] > 1]
    if not heavy:
        status, detail = "pass", "every second-part vertex keeps at most one neighbor"
    elif is_k22 or g in _q_family():
        status, detail = "exception", "multi-neighbor vertex allowed for this exceptional graph"
    else:
        status, detail = "fail", f"vertex {heavy[0]} keeps several neighbors after reduction"
    checks.append(FilterCheck("bipartite-reduction", status, detail))

    table = _known_og_table()
    at = table.position.get(g)
    live = table.screen(g)
    if at is not None:  # strict containment: a known g is no hit for itself
        live &= ~(1 << at)
    hit = None
    while live:  # lowest bit first, so the hit is the first in the members' order
        low = live & -live
        m = table.members[low.bit_length() - 1]
        if og_contains(g, m):
            hit = m
            break
        live ^= low
    checks.append(_check(
        "strict-known-containment", hit is None,
        "contains no known family member strictly" if hit is None else f"strictly contains {hit}",
    ))
    return _report(g, checks, at is not None)


def enumerate_og_candidates(k: int, col_min: int, col_max: int) -> Iterator[CandidateReport]:
    """Bipartite ordered-graph candidates: every realization of every
    non-rejected k-row matrix candidate, run through og_structural_filter
    with its unique realizing bipartition (the part holding vertex 1 plays
    the role of part_u), as go_realizations hands it back.  Each graph is
    emitted once.

    go_realizations is the same for every member of a dihedral orbit: the
    reflections are its row and column direction flips, a transpose swaps
    which positions hold rows, and its uniqueness test, like the
    bipartition it hands back, takes the whole orbit.  So only an orbit's
    first candidate is expanded; every graph a later member would give is
    already seen."""
    seen: set[str] = set()  # texts, so each graph is freed with its report
    expanded: set[str] = set()
    for report in enumerate_candidates(k, col_min, col_max):
        p = report.pattern
        assert isinstance(p, Pattern01)
        orbit = canonical_key(p)
        if orbit in expanded:
            continue
        expanded.add(orbit)
        realizations = go_realizations(p)
        for g in sorted(realizations, key=str):
            if str(g) in seen:
                continue
            seen.add(str(g))
            og_report = og_structural_filter(g, realizations[g])
            if og_report.verdict != "rejected":
                yield og_report

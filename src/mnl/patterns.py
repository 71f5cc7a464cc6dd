"""0-1 matrix patterns: containment, symmetry, and structural reductions.

Conventions used throughout the package:

- positions are 1-indexed, row 1 at the top, column 1 on the left;
- patterns are stored sparsely as a set of (row, col) one-positions, with
  per-column bitmask views materialized for the search kernels (bit r-1 of
  a column mask means a one in row r);
- text format is one '0'/'1' string per row, uniform length, newline
  terminated; a '/' may replace the newline as a single-line variant (used
  for cache keys and tsv cells).

Containment is exact: haystack H contains needle P iff there are strictly
increasing row indices and column indices of H such that every one of P maps
onto a one of H.  Zero entries of P impose nothing.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence as Seq

from .errors import InvalidInputError, InvalidTransformationError
from .sequences import Sequence


@dataclass(frozen=True)
class Pattern01:
    num_rows: int
    num_cols: int
    ones: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.num_rows < 1 or self.num_cols < 1:
            raise InvalidInputError(
                f"pattern dimensions must be positive, got {self.num_rows}x{self.num_cols}"
            )
        for pos in self.ones:
            r, c = pos
            if not (1 <= r <= self.num_rows and 1 <= c <= self.num_cols):
                raise InvalidInputError(f"position {pos} outside {self.num_rows}x{self.num_cols}")

    @classmethod
    def from_rows(cls, rows: Iterable[str]) -> "Pattern01":
        rows = list(rows)
        ones = frozenset(
            (r + 1, c + 1)
            for r, line in enumerate(rows)
            for c, ch in enumerate(line)
            if ch == "1"
        )
        if not rows:
            raise InvalidInputError("pattern needs at least one row")
        return cls(len(rows), len(rows[0]), ones)

    @cached_property
    def col_masks(self) -> tuple[int, ...]:
        """col_masks[c-1] has bit r-1 set iff there is a one at (r, c)."""
        masks = [0] * self.num_cols
        for r, c in self.ones:
            masks[c - 1] |= 1 << (r - 1)
        return tuple(masks)

    @cached_property
    def _col_rows0(self) -> tuple[tuple[int, ...], ...]:
        """0-based row indices holding a one, per column."""
        out: list[list[int]] = [[] for _ in range(self.num_cols)]
        for r, c in self.ones:
            out[c - 1].append(r - 1)
        return tuple(tuple(sorted(rows)) for rows in out)

    def row_strings(self) -> list[str]:
        return [
            "".join("1" if (r, c) in self.ones else "0" for c in range(1, self.num_cols + 1))
            for r in range(1, self.num_rows + 1)
        ]

    @cached_property
    def _text(self) -> str:
        return "/".join(self.row_strings())

    def __str__(self) -> str:
        return self._text


def parse_pattern(text: str) -> Pattern01:
    """Parse the row-string format.  Accepts newline or '/' as row separator;
    rejects ragged lines and any character other than 0 and 1."""
    body = text.strip("\n")
    lines = body.split("/") if "/" in body else body.split("\n")
    if not lines or lines == [""]:
        raise InvalidInputError("empty pattern text")
    width = len(lines[0])
    for line in lines:
        if len(line) != width:
            raise InvalidInputError(f"ragged pattern line {line!r}")
        if not line or any(ch not in "01" for ch in line):
            raise InvalidInputError(f"bad pattern line {line!r}")
    return Pattern01.from_rows(lines)


def format_pattern(p: Pattern01) -> str:
    """Newline-terminated file form of the pattern."""
    return "".join(line + "\n" for line in p.row_strings())


# ---------------------------------------------------------------------------
# containment
# ---------------------------------------------------------------------------

def _greedy_rows_feasible(row_cands: Seq[int]) -> bool:
    """Exact check that strictly increasing rows can be drawn from the
    per-needle-row candidate masks, by always taking the lowest available."""
    prev = -1
    for mask in row_cands:
        avail = mask >> (prev + 1)
        if avail == 0:
            return False
        prev += (avail & -avail).bit_length()
    return True


def _embed(hay_col_masks: Seq[int], hay_rows: int, needle: Pattern01) -> bool:
    """Backtracking over needle-column images with per-needle-row candidate
    masks."""
    m = needle.num_cols
    k = needle.num_rows
    num_cols = len(hay_col_masks)
    if k > hay_rows or m > num_cols:
        return False
    col_rows = needle._col_rows0
    full = (1 << hay_rows) - 1

    def rec(j: int, start: int, cands: list[int]) -> bool:
        if j == m:
            return True
        rows = col_rows[j]
        for c in range(start, num_cols - m + j + 1):
            if rows:
                cm = hay_col_masks[c]
                new_cands = cands.copy()
                dead = False
                for i in rows:
                    nr = cands[i] & cm
                    if nr == 0:
                        dead = True
                        break
                    new_cands[i] = nr
                if dead or not _greedy_rows_feasible(new_cands):
                    continue
                if rec(j + 1, c + 1, new_cands):
                    return True
            else:
                if rec(j + 1, c + 1, cands):
                    return True
        return False

    return rec(0, 0, [full] * k)


def contains(haystack: Pattern01, needle: Pattern01) -> bool:
    """True iff haystack contains needle (ordered submatrix containment)."""
    return _embed(haystack.col_masks, haystack.num_rows, needle)


# ---------------------------------------------------------------------------
# dihedral symmetry
# ---------------------------------------------------------------------------

def rotate90(p: Pattern01) -> Pattern01:
    """Quarter turn clockwise."""
    return Pattern01(
        p.num_cols,
        p.num_rows,
        frozenset((c, p.num_rows + 1 - r) for r, c in p.ones),
    )


def reflect_horizontal(p: Pattern01) -> Pattern01:
    """Reflection over a horizontal line (top row becomes bottom row)."""
    return Pattern01(
        p.num_rows,
        p.num_cols,
        frozenset((p.num_rows + 1 - r, c) for r, c in p.ones),
    )


def reflect_vertical(p: Pattern01) -> Pattern01:
    """Reflection over a vertical line (left column becomes right column)."""
    return Pattern01(
        p.num_rows,
        p.num_cols,
        frozenset((r, p.num_cols + 1 - c) for r, c in p.ones),
    )


def symmetry_variants(p: Pattern01) -> frozenset[Pattern01]:
    """Orbit of p under the dihedral group of order 8."""
    out = set()
    cur = p
    for _ in range(4):
        out.add(cur)
        out.add(reflect_vertical(cur))
        cur = rotate90(cur)
    return frozenset(out)


MatrixKey = tuple[int, int, tuple[int, ...]]


def symmetry_keys(p: Pattern01) -> frozenset[MatrixKey]:
    """The (num_rows, num_cols, col_masks) of each image in p's symmetry
    orbit, read straight off p.col_masks: the orbit is p and its transpose,
    each as it is, with its columns reversed (reflect_vertical), with its
    rows reversed (each mask's bits reversed, reflect_horizontal), or both.
    Two patterns are equal iff their keys are."""
    k, c, cols = p.num_rows, p.num_cols, p.col_masks
    # column r of the transpose holds row r+1 of p
    rows = tuple(sum((mask >> r & 1) << j for j, mask in enumerate(cols)) for r in range(k))
    out = set()
    for height, width, masks in ((k, c, cols), (c, k, rows)):
        flipped = tuple(int(f"{mask:0{height}b}"[::-1], 2) for mask in masks)
        for image in (masks, masks[::-1], flipped, flipped[::-1]):
            out.add((height, width, image))
    return frozenset(out)


def canonical_key(p: Pattern01) -> str:
    """Cache key shared by the whole symmetry orbit: the lexicographically
    least file serialization in the orbit, rendered with '/' separators."""
    least = min(symmetry_variants(p), key=format_pattern)
    return str(least)


# ---------------------------------------------------------------------------
# transformations and reductions
# ---------------------------------------------------------------------------

def insert_split_column(p: Pattern01, row: int, left_col: int) -> Pattern01:
    """Split two adjacent ones in a row by a new column carrying a single one
    between them.  Requires ones at (row, left_col) and (row, left_col+1)."""
    for pos in ((row, left_col), (row, left_col + 1)):
        if pos not in p.ones:
            raise InvalidTransformationError(f"no one at {pos}")
    ones = set()
    for r, c in p.ones:
        ones.add((r, c if c <= left_col else c + 1))
    ones.add((row, left_col + 1))
    return Pattern01(p.num_rows, p.num_cols + 1, frozenset(ones))


def insert_zero_line(p: Pattern01, axis: str, index: int) -> Pattern01:
    """Insert an all-zero row or column.  index counts existing lines before
    the new one, so 0 prepends and the axis extent appends."""
    if axis not in ("row", "column"):
        raise InvalidInputError(f"axis must be 'row' or 'column', got {axis!r}")
    extent = p.num_rows if axis == "row" else p.num_cols
    if not 0 <= index <= extent:
        raise InvalidInputError(f"index {index} out of range 0..{extent}")
    if axis == "row":
        ones = frozenset((r + 1 if r > index else r, c) for r, c in p.ones)
        return Pattern01(p.num_rows + 1, p.num_cols, ones)
    ones = frozenset((r, c + 1 if c > index else c) for r, c in p.ones)
    return Pattern01(p.num_rows, p.num_cols + 1, ones)


def reduce_leftmost(p: Pattern01) -> Pattern01:
    """Delete the smallest-column one of every row; dimensions unchanged."""
    leftmost: dict[int, int] = {}
    for r, c in p.ones:
        if r not in leftmost or c < leftmost[r]:
            leftmost[r] = c
    if len(leftmost) < p.num_rows:
        missing = next(r for r in range(1, p.num_rows + 1) if r not in leftmost)
        raise InvalidInputError(f"row {missing} has no ones")
    ones = frozenset((r, c) for r, c in p.ones if leftmost[r] != c)
    return Pattern01(p.num_rows, p.num_cols, ones)


def scan_reduction(p: Pattern01) -> Sequence:
    """Left-to-right column scan producing one letter per column.

    Column 1 contributes its topmost one-row.  A later column with a single
    one contributes that row; a column with several ones contributes its
    topmost one-row different from the previous letter.  The letters are
    renamed to normalized form, which preserves runs and alternations.
    """
    for c, mask in enumerate(p.col_masks, start=1):
        if not mask:
            raise InvalidInputError(f"column {c} has no ones")
    return Sequence(scan_letters(p.col_masks))


def scan_letters(col_masks: Seq[int]) -> tuple[int, ...]:
    """scan_reduction's letters for nonzero column masks, renamed by first
    occurrence."""
    names: dict[int, int] = {}
    letters = []
    prev = 0
    for mask in col_masks:
        prev = _scan_letter(prev, mask)
        letters.append(names.setdefault(prev, len(names) + 1))
    return tuple(letters)


def _scan_letter(prev: int, mask: int) -> int:
    """scan_reduction's letter for a column with row bits mask (bit r-1 for
    row r) after the letter prev (0 before column 1): the topmost row other
    than prev, or the column's only row, as its row bit."""
    rest = mask & ~prev or mask
    return rest & -rest

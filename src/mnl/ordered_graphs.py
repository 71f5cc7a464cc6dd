"""Ordered graphs: order-preserving containment, exact extremal edge counts,
interval chromatic number, bipartite realizations of 0-1 patterns, and the
edge reductions and vertex insertions used by the candidate pipeline.

Vertices are 1..n in line order; edges are pairs (u, v) with u < v.
Containment is non-induced: h contains g iff some strictly increasing
injection of g's vertices maps every g-edge onto an h-edge.

Containment runs on one placement loop, _place, over adjacency bitmasks of
the host: each needle vertex has a mask of allowed host positions, and its
candidates are those above the previous image that are adjacent to the
images of its earlier neighbours.  og_contains first refuses a needle with
more vertices, edges or pairs of edges of some order type (crossing,
nested, disjoint, or sharing the left end, the right end or a middle
vertex) than the host, since a copy keeps every pair's type.  It then
allows needle vertex i only on host vertices with at least i's numbers of
left and of right neighbours; an empty mask refuses at once.  Each graph
builds these forms once, from one pass over its edges, and keeps them on
itself.  A NeedleTable runs that screen for a whole set of needles at
once: one bitset of needles per size, per pair type and count, and per
distinct vertex demand (k, i, left, right), so a host clears every needle
a count or a demand refuses with one AND, and only the needles left need
a placement.

A graph's bipartite realizations of a 0-1 pattern p come from 2-colouring
each component once; a colouring's matrix is keyed, like p's 8 dihedral
images (patterns.symmetry_keys), by its dimensions and column masks, read
off the adjacency bitmasks, so no Pattern01 is built per colouring.  When
p's own bipartite graph is connected, every member of go_family(p) has a
single 2-colouring, which realizes p, so go_realizations keeps them all
without the test (its docstring has the proof).  go_realizations hands
back each member's one realizing bipartition with it, so a caller that
has the family never colours a member again.

The exact search og_ex_exact adds edges in lexicographic order, so a new
copy of g must map g's last left endpoint L and L's last right neighbour
B onto the new edge (u, v).  Each step runs _place on the needle form
og_contains uses, with L's mask set to u, B's to v, and the masks of
their other neighbours cut to board neighbours of u and of v.  It bounds
the rest of the board by exact extremal values on the smaller boards the
last rows induce, solved first on records.run_search's board ladder (the
bootstrap used for exact Zarankiewicz numbers).

A g whose edges all run from 1..a to a+1..k, with vertices a and a+1 on
edges, is searched vertex by vertex instead, as a matrix problem (Pach and
Tardos, "Forbidden paths and cycles in ordered graphs and matrices",
2006): a copy of g is a copy of g's a x (k-a) biadjacency matrix in the
board's upper-triangular adjacency matrix whose columns all come after its
rows.  It runs automaton.track_search, the matrix engine's memoized
search, on matrix_automaton's packed tracks, one per a-set of board rows,
each switched on by a gate after its last row.

Text format: first line "n=<int>", then one "<u> <v>" pair per line with
u < v, blank lines ignored.  A ';' may replace the newline as a single-line
variant (used for cache keys and tsv cells).
"""
from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import combinations
from math import comb
from operator import le

from .automaton import (
    MAX_TABLE_ENTRIES,
    column_order,
    completion_table,
    completion_term,
    matrix_automaton,
    matrix_table_entries,
    track_search,
)
from .errors import InvalidInputError, InvalidTransformationError
# canonical_key is not called here; perfbench's traced run rebinds it on this module.
from .patterns import MatrixKey, Pattern01, canonical_key, symmetry_keys  # noqa: F401
from .records import DEFAULT_NODE_BUDGET, BudgetExhausted, ExRecord, Solve, run_search


@dataclass(frozen=True)
class OrderedGraph:
    num_vertices: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.num_vertices < 1:
            raise InvalidInputError("ordered graph needs at least one vertex")
        for e in self.edges:
            u, v = e
            if not (1 <= u < v <= self.num_vertices):
                raise InvalidInputError(f"bad edge {e} for n={self.num_vertices}")

    @cached_property
    def _forms(self) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...], tuple[tuple[int, int, int], ...]]:
        """(adj, below, sides), from one pass over the edges: bit y of
        adj[x] is set iff x and y are adjacent, below[b] lists the left
        neighbours of b, and sides holds (i, numbers of left and of right
        neighbours of i) for i = 1..n."""
        n = self.num_vertices
        adj = [0] * (n + 1)
        below: list[list[int]] = [[] for _ in range(n + 1)]
        right = [0] * (n + 1)
        for u, v in self.edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            below[v].append(u)
            right[u] += 1
        sides = tuple((i, len(below[i]), right[i]) for i in range(1, n + 1))
        return tuple(adj), tuple(map(tuple, below)), sides

    @cached_property
    def _at_least(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(at_left, at_right) of og_contains's host: at_left[d] has bit x
        set iff x has at least d left neighbours, for d < n, and at_right
        likewise."""
        n = self.num_vertices
        at_left, at_right = [0] * (n + 1), [0] * (n + 1)
        for x, left, right in self._forms[2]:  # left, right < n
            at_left[left] |= 1 << x
            at_right[right] |= 1 << x
        for d in range(n - 1, -1, -1):  # at least d: exactly d, or at least d+1
            at_left[d] |= at_left[d + 1]
            at_right[d] |= at_right[d + 1]
        return tuple(at_left[:n]), tuple(at_right[:n])

    @cached_property
    def _pair_counts(self) -> tuple[int, int, int, int, int, int]:
        """The numbers of pairs of edges (a, b), (c, d), a <= c, of each
        order type: sharing the left end (a = c), sharing the right end
        (b = d), sharing a middle vertex (b = c), disjoint (b < c),
        crossing (a < c < b < d) and nested (a < c < d < b).

        Vertex v with left left and right right neighbours is the shared
        left end of C(right, 2) pairs, the shared right end of C(left, 2)
        and the middle of left * right.  An edge (a, b) lies left of every
        edge whose left end is above b, the suffix sum of right degrees.
        It crosses every edge (c, d) with a < c < b < d, which are c's
        right neighbours above b.  The other pairs are nested."""
        adj, below, sides = self._forms
        left_end = right_end = middle = disjoint = crossing = above = 0
        for b, left, right in reversed(sides):
            left_end += right * (right - 1) // 2
            right_end += left * (left - 1) // 2
            middle += left * right
            disjoint += left * above  # above: edges with left end above b
            above += right
            for a in below[b]:
                for c in range(a + 1, b):
                    crossing += (adj[c] >> (b + 1)).bit_count()
        nested = comb(len(self.edges), 2) - left_end - right_end - middle - disjoint - crossing
        return left_end, right_end, middle, disjoint, crossing, nested

    def degree(self, v: int) -> int:
        return self._forms[0][v].bit_count() if 1 <= v <= self.num_vertices else 0

    def neighbors(self, v: int) -> set[int]:
        n = self.num_vertices
        adj = self._forms[0][v] if 1 <= v <= n else 0
        return {w for w in range(1, n + 1) if adj >> w & 1}

    @cached_property
    def _text(self) -> str:
        return format_ordered_graph(self).rstrip("\n").replace("\n", ";")

    def __str__(self) -> str:
        return self._text


@dataclass(frozen=True)
class Bipartition:
    part_u: frozenset[int]
    part_v: frozenset[int]


def check_bipartition(g: OrderedGraph, parts: Bipartition) -> None:
    """Raise unless parts splits g into two covering, disjoint, independent sets."""
    all_vertices = frozenset(range(1, g.num_vertices + 1))
    if parts.part_u & parts.part_v:
        raise InvalidInputError("bipartition parts overlap")
    if parts.part_u | parts.part_v != all_vertices:
        raise InvalidInputError("bipartition does not cover all vertices")
    for u, v in g.edges:
        if {u, v} <= parts.part_u or {u, v} <= parts.part_v:
            raise InvalidInputError(f"edge {(u, v)} inside one part")


def parse_ordered_graph(text: str) -> OrderedGraph:
    body = text.replace(";", "\n")
    lines = [line.strip() for line in body.split("\n")]
    lines = [line for line in lines if line]
    if not lines or not lines[0].startswith("n="):
        raise InvalidInputError("ordered graph text must start with n=<int>")
    try:
        n = int(lines[0][2:])
    except ValueError as exc:
        raise InvalidInputError(f"bad vertex count {lines[0]!r}") from exc
    edges = set()
    for line in lines[1:]:
        fields = line.split()
        if len(fields) != 2:
            raise InvalidInputError(f"bad edge line {line!r}")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError as exc:
            raise InvalidInputError(f"bad edge line {line!r}") from exc
        if not (1 <= u < v <= n):
            raise InvalidInputError(f"edge {u} {v} out of range (need 1 <= u < v <= {n})")
        edges.add((u, v))
    return OrderedGraph(n, frozenset(edges))


def format_ordered_graph(g: OrderedGraph) -> str:
    lines = [f"n={g.num_vertices}"]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "".join(line + "\n" for line in lines)


def og_key(g: OrderedGraph) -> str:
    """Cache key: the single-line text form, the graph as given.  Reversing
    g's k vertices (i to k+1-i) is a symmetry, ex_<(n, g) = ex_<(n, rev g),
    but the key does not quotient it out: g and rev g are cached apart."""
    return str(g)


# ---------------------------------------------------------------------------
# containment
# ---------------------------------------------------------------------------

def _place(
    adj: Sequence[int], mask: list[int], below: Sequence[Sequence[int]], k: int
) -> bool:
    """The placement loop every containment check runs: True iff needle
    vertices 1..k can take increasing host positions, vertex i one of the
    bits of mask[i], with every earlier neighbour listed in below[i] placed
    on a host neighbour (bit y of adj[x] set iff x and y are adjacent).

    Vertices are placed left to right; the candidates of vertex i are the
    bits of mask[i] above the image of i-1, ANDed with adj[image] of each
    vertex in below[i], and the loop walks their set bits with an explicit
    stack."""
    image = [0] * (k + 1)
    untried = [0] * (k + 1)  # candidates of vertex i not yet tried
    i, cand = 1, mask[1]
    while True:
        if cand:
            low = cand & -cand
            untried[i] = cand ^ low
            image[i] = x = low.bit_length() - 1
            if i == k:
                return True
            i += 1
            cand = mask[i] >> (x + 1) << (x + 1)
            for a in below[i]:
                cand &= adj[image[a]]
        else:
            i -= 1
            if not i:
                return False
            cand = untried[i]


def og_contains(h: OrderedGraph, g: OrderedGraph) -> bool:
    """True iff h has a subgraph order-isomorphic to g (extra edges allowed).

    Screens first: g may not have more vertices or edges than h, nor more
    pairs of edges of any order type (OrderedGraph._pair_counts).  A copy
    of g is a strictly increasing injection, so it sends distinct edges to
    distinct edges and keeps every equality and inequality among the ends
    of two edges: each pair of g's edges lands on a distinct pair of h's
    edges of the same type.  Then the room rule, which NeedleTable.screen
    applies too, bounds where each vertex of g may go.  With n = |V(h)|
    and k = |V(g)| <= n, vertex i of g, with left left and right right
    neighbours, may only take the host positions

        ((2 << (n - k)) - 1) << i & at_left[left] & at_right[right]

    (h._at_least): i..i+n-k, which leave room for g's other vertices on
    either side, among the host vertices with at least left left and right
    right neighbours, since a copy sends i's neighbours to distinct host
    vertices on the same sides.  Both graphs' forms are built on first use
    and kept on them."""
    k, n = g.num_vertices, h.num_vertices
    if k > n or len(g.edges) > len(h.edges):
        return False
    if not all(map(le, g._pair_counts, h._pair_counts)):  # the pair rule
        return False
    _, below, sides = g._forms
    adj = h._forms[0]
    at_left, at_right = h._at_least
    span = (2 << (n - k)) - 1
    mask = [0]
    for i, left, right in sides:  # left, right < k <= n
        allowed = span << i & at_left[left] & at_right[right]  # the room rule
        if not allowed:
            return False
        mask.append(allowed)
    return _place(adj, mask, below, k)


class NeedleTable:
    """A fixed tuple of needles, screened against a host all at once by
    og_contains's own screen.

    members keeps the needles in the order given, and position maps each to
    its index j, its bit 1 << j in every bitset here.  sizes holds, per
    (vertices, edges) size, the bitset of members of that size, and demands,
    per (k, i, left, right) that some member with k vertices makes of its
    vertex i with left left and right right neighbours, the bitset of the
    members that make it.  Members that share a demand share its room in a
    host, so each distinct demand is checked once.  above[t][c], for each
    of the six pair types t of OrderedGraph._pair_counts, is the bitset of
    the members with more than c pairs of type t, for c below the most any
    member has."""

    def __init__(self, needles: Iterable[OrderedGraph]) -> None:
        self.members = tuple(needles)
        self.position = {g: j for j, g in enumerate(self.members)}
        sizes: dict[tuple[int, int], int] = {}
        demands: dict[tuple[int, int, int, int], int] = {}
        for j, g in enumerate(self.members):
            size = g.num_vertices, len(g.edges)
            sizes[size] = sizes.get(size, 0) | 1 << j
            for side in g._forms[2]:
                demand = (g.num_vertices, *side)
                demands[demand] = demands.get(demand, 0) | 1 << j
        self.sizes = tuple((*size, bits) for size, bits in sizes.items())
        self.demands = tuple((*demand, bits) for demand, bits in demands.items())
        counts = [g._pair_counts for g in self.members]
        self.above = tuple(
            tuple(
                sum(1 << j for j, pairs in enumerate(counts) if pairs[t] > c)
                for c in range(max((pairs[t] for pairs in counts), default=0))
            )
            for t in range(6)
        )

    def screen(self, h: OrderedGraph) -> int:
        """The bitset of the members og_contains(h, member) does not refuse
        before it places a vertex: those no larger than h in vertices, in
        edges and in pairs of edges of each type, less every member with a
        demand that og_contains's room rule leaves no host position.  A
        member with k > n is gone before its demands are read, so the
        rule's n - k is never negative."""
        n, e = h.num_vertices, len(h.edges)
        live = 0
        for k, count, bits in self.sizes:
            if k <= n and count <= e:
                live |= bits
        for above, count in zip(self.above, h._pair_counts):
            if count < len(above):  # og_contains's pair rule
                live &= ~above[count]
        at_left, at_right = h._at_least
        for k, i, left, right, bits in self.demands:
            # og_contains's room rule
            if live & bits and not ((2 << (n - k)) - 1) << i & at_left[left] & at_right[right]:
                live &= ~bits
        return live


# ---------------------------------------------------------------------------
# exact extremal edge count
# ---------------------------------------------------------------------------

def _og_search(
    g: OrderedGraph, m: int, ceiling: list[int], best: int, node_budget: int
) -> tuple[int, int]:
    """Depth-first include/exclude over the edge slots of an m-vertex board
    in lexicographic order, include first, looking for a board with more
    than best edges.  ceiling[j] bounds ex_<(j, g) from above for j < m.
    The stack of included slots is explicit, so the depth is not limited
    by Python's recursion limit.  Returns (best, nodes), or raises
    BudgetExhausted(best, nodes) when the budget runs out first."""
    k, below = g.num_vertices, g._forms[1]
    # the pins of og_ex_exact's docstring: a new copy maps left to u, right to v
    left = max(a for a, _ in g.edges)
    right = max(b for a, b in g.edges if a == left)
    span = [((2 << (m - k)) - 1) << i for i in range(k + 1)]  # room on either side
    # the edges at a pin narrow the masks of the pins' neighbours; _place
    # checks the rest
    near_left = sorted(g.neighbors(left) - {right})
    near_right = sorted(g.neighbors(right) - {left})
    pinned = (left, right)
    free_below = [
        () if b in pinned else tuple(a for a in below[b] if a not in pinned)
        for b in range(k + 1)
    ]
    adj = [0] * (m + 1)
    included: list[tuple[int, int]] = []  # their exclude branches are pending
    u, v, count, nodes = 1, 2, 0, 0
    while True:
        if u == m:  # every slot decided
            best = max(best, count)
            descend = False
        else:
            in_row = (adj[u] >> u).bit_count()
            room = min(m - v + 1 + ceiling[m - u], ceiling[m - u + 1] - in_row)
            descend = count + room > best
        if descend:
            if nodes >= node_budget:
                raise BudgetExhausted(best, nodes)
            nodes += 1
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            mask = span.copy()
            mask[left] &= 1 << u
            mask[right] &= 1 << v
            for i in near_left:
                mask[i] &= adj[u]
            for i in near_right:
                mask[i] &= adj[v]
            if mask[left] and mask[right] and _place(adj, mask, free_below, k):
                adj[u] ^= 1 << v
                adj[v] ^= 1 << u
            else:
                included.append((u, v))
                count += 1
        elif included:
            u, v = included.pop()
            adj[u] ^= 1 << v
            adj[v] ^= 1 << u
            count -= 1
        else:
            return best, nodes
        u, v = (u, v + 1) if v < m else (u + 1, u + 2)


def _two_interval_split(g: OrderedGraph, n: int) -> int:
    """a when og_ex_exact solves g on n vertices vertex by vertex, else 0:
    g fits on the board, every edge runs from 1..a to a+1..k (interval
    chromatic number 2), vertices a and a+1 both lie on an edge, and the
    tables of the n-1 board rows fit MAX_TABLE_ENTRIES.  The middle two
    hold together iff g's last left endpoint is a and its first right
    endpoint a+1."""
    a = max(u for u, _ in g.edges)
    if g.num_vertices > n or a + 1 != min(v for _, v in g.edges):
        return 0
    if matrix_table_entries(a, g.num_vertices - a, n - 1) > MAX_TABLE_ENTRIES:
        return 0
    return a


def _og_vertex_search(
    g: OrderedGraph, a: int, n: int
) -> Solve:
    """og_ex_exact's search for a g split after vertex a, as its docstring
    gives, its tables built once on the n-1 rows of the largest board:
    search(m, ceiling, best, node_budget), with _og_search's contract, has
    vertex v = 2..m take its set of left neighbours, most first."""
    rows = n - 1  # vertex n is nobody's left neighbour
    b = g.num_vertices - a
    col_masks = tuple(sum(1 << (u - 1) for u in g.neighbors(a + j)) for j in range(1, b + 1))
    tracks, at = matrix_automaton(col_masks, a, rows)
    comp = completion_table(col_masks, a, rows)
    # gate[v]: in every field, the tracks whose rows all lie before vertex v
    fields = sum(1 << shift for shift in range(0, tracks * b, tracks))
    gate = [0] * (n + 1)
    for t, chosen in enumerate(combinations(range(rows), a)):
        gate[chosen[-1] + 2] |= fields << t
    for v in range(3, n + 1):
        gate[v] |= gate[v - 1]
    order = column_order(rows)
    # columns[v]: vertex v's sets of left neighbours, the masks below 1 << (v-1)
    columns = [[], []] + [
        [(x.bit_count(), at[x] & gate[v], 0) for x in order if x >> (v - 1) == 0]
        for v in range(2, n + 1)
    ]

    def search(m: int, ceiling: list[int], best: int, node_budget: int) -> tuple[int, int]:
        # t = m-v+1 columns v..m to come, v-1 = m-t rows before them
        terms = [completion_term(comp, t, m - t, a, ceiling[t]) for t in range(m)]
        candidates = [[]] + columns[m:1:-1]
        return track_search(tracks, tracks * b, candidates, terms, best, node_budget)

    return search


def og_ex_exact(
    n: int, g: OrderedGraph, node_budget: int = DEFAULT_NODE_BUDGET
) -> ExRecord:
    """Maximum edges of an n-vertex ordered graph avoiding g.

    Edge slots (u, v) are decided in lexicographic order, include first.

    Containment: one pinned placement per node.  When slot (u, v) comes up,
    every chosen edge has left end <= u, and those with left end u have
    right end <= v.  Let L be the largest left endpoint of a g-edge and B
    the largest right neighbour of L.  A copy of g that uses the new edge
    as the image of (a, b) has image(L) <= u, since L is a left endpoint,
    and u = image(a) <= image(L) since a <= L; so image(L) = u and a = L.
    Likewise v = image(b) <= image(B) <= v.  Any new copy therefore maps L
    to u and B to v, and any copy doing so uses the new edge; the board
    before it avoided g, so a single placement with L on u and B on v
    decides whether including (u, v) completes a copy.

    Bound: the vertices u+1..n, and u..n, of any g-free board induce g-free
    boards on n-u and n-u+1 vertices.  So at slot (u, v) the edges still to
    come number at most the n-v+1 slots left in row u plus ex_<(n-u, g),
    and at most ex_<(n-u+1, g) less the edges already chosen in row u.  A
    branch that cannot beat the best board found is cut.  The values for
    m < n come from records.run_search's ladder of boards |V(g)|..n, and
    are C(m, 2) for m < |V(g)|.

    Start: when g's last vertex has an edge, a g-free board with an
    isolated vertex appended is still g-free, since only g's last vertex
    could land on it; likewise a prepended one when g's first vertex has
    an edge.  Then the ladder pads: each board starts from the best board
    on one vertex fewer.

    Two intervals: when every g-edge runs from 1..a to a+1..k and vertices
    a and a+1 both lie on edges (interval_chromatic(g) == 2, split where
    g's last left endpoint and first right endpoint meet), and the tables
    of the n-1 board rows fit MAX_TABLE_ENTRIES, every search of the call,
    on each m <= n, goes vertex by vertex instead; otherwise they all take
    the edge slots above.  Let M be g's a x b biadjacency matrix, b = k-a,
    row i for vertex i and column j for vertex a+j.  A copy of g sends
    1..a to rows S = {r_1 < ... < r_a} and a+1..k to vertices c_1 < ... <
    c_b, all after r_a, with each one of M on an edge; conversely any such
    rows and columns are an increasing image of g.  So the board contains
    g iff its adjacency matrix, column v the set of left neighbours of v,
    holds M on some a-set S of rows 1..m-1 in columns after max(S).

    Vertex v = 2..m takes its column, one of the 2^(v-1) sets of left
    neighbours, most neighbours first; each set tried is one node.  Each S
    is one track of matrix_automaton(M's columns, a, n-1): it greedily
    matches M's columns against the board's on the rows S, and the board
    holds g iff some track matches all b.  The gate: column v steps only
    the tracks with max(S) < v, by ANDing at[x] with the tracks whose
    rows all lie before v, in every field; the others wait in field 0.
    An m-vertex board never switches on a track with a row at or after
    vertex m, so the tables (automaton, completion table, gates and each
    vertex's candidate list) are built once per call, on the n-1 rows of
    the largest board, and serve every m <= n; each board builds only
    the bound's terms, which hold the ceilings.

    Bound at vertex v, t = m-v+1 columns to come: an edge still to come
    has its right end in v..m.  Those with both ends there lie in the
    board induced on v..m, at most ex_<(t, g), a value for a smaller board
    solved first in the same call.  The others run from the v-1 old
    vertices to the new ones.  An a-set S of old rows is a track switched on before column v, in state
    s_S, so rows S take at most comp[t][s_S] more ones (the
    completion_table) without completing M.  Each old row lies in
    C(v-2, a-1) such sets, so the sum of comp[t][s_S] over them divided
    by C(v-2, a-1) bounds the old-to-new edges; while v-1 < a, each old
    vertex takes at most t.  A child's tracks never move down and its new
    tracks start in state 0, so the bound never grows, as the matrix
    engine's automaton.track_search, which runs this search and whose
    docstring gives its memo, requires.
    """
    if not g.edges:
        raise InvalidInputError("forbidden graph needs at least one edge")
    a = _two_interval_split(g, n)
    return run_search(
        "ordered-graph", og_key(g), n, node_budget,
        lambda: _og_vertex_search(g, a, n) if a else partial(_og_search, g),
        first=g.num_vertices, ceiling=lambda m: comb(m, 2),
        pads=g.degree(1) > 0 or g.degree(g.num_vertices) > 0)  # Start, above


# ---------------------------------------------------------------------------
# interval chromatic number
# ---------------------------------------------------------------------------

def interval_chromatic(g: OrderedGraph) -> int:
    """Minimum number of intervals of consecutive vertices, each independent.

    Greedy left to right: extend the current interval until the next vertex
    has a neighbor inside it.  Greedy is optimal here because any partition's
    first interval is a prefix of the greedy one, and shrinking an interval
    never breaks independence.
    """
    count = 1
    interval_start = 1
    for v in range(2, g.num_vertices + 1):
        if any(u >= interval_start for u in g._forms[1][v]):
            count += 1
            interval_start = v
    return count


# ---------------------------------------------------------------------------
# bipartite realizations of a 0-1 pattern
# ---------------------------------------------------------------------------

def _realizations(g: OrderedGraph, orbit: frozenset[MatrixKey]) -> list[Bipartition]:
    """realizing_bipartitions against the symmetry_keys of p.

    Each component is 2-coloured once by breadth-first layers over the
    adjacency bitmasks; an edge inside a layer closes an odd cycle, and
    then g has no bipartition at all.  A bipartite graph with c components
    has exactly 2^(c-1) unordered 2-colourings: the side of the component
    of vertex 1 that holds vertex 1 is fixed, and every other component
    goes either way round.  A colouring's matrix, its side A in increasing
    order as rows and side B as columns, is keyed as symmetry_keys keys
    p's images: column j has bit i set iff the i-th vertex of A is
    adjacent to the j-th vertex of B, read off that vertex's adjacency
    bitmask."""
    n = g.num_vertices
    adj = g._forms[0]
    sides: list[list[int]] = []  # per component: [root's side, other side]
    unseen = (2 << n) - 2  # bits 1..n
    while unseen:
        layer = seen = unseen & -unseen
        colour, parity = [0, 0], 0
        while layer:
            colour[parity] |= layer
            reach = 0
            for v in range(1, n + 1):
                if layer >> v & 1:
                    reach |= adj[v]
            if reach & layer:
                return []
            layer = reach & ~seen
            seen |= layer
            parity ^= 1
        unseen &= ~seen
        sides.append(colour)
    found = []
    for flips in range(1 << (len(sides) - 1)):
        mask = sides[0][0]
        for j, colour in enumerate(sides[1:]):
            mask |= colour[flips >> j & 1]
        part_a = tuple(v for v in range(1, n + 1) if mask >> v & 1)
        part_b = tuple(v for v in range(1, n + 1) if not mask >> v & 1)
        if not part_b:
            continue
        cols = tuple(
            sum(1 << i for i, a in enumerate(part_a) if adj[b] >> a & 1) for b in part_b
        )
        if (len(part_a), len(part_b), cols) in orbit:
            found.append((part_a, part_b))
    found.sort(key=lambda parts: (len(parts[0]), parts[0]))
    return [Bipartition(frozenset(a), frozenset(b)) for a, b in found]


def realizing_bipartitions(g: OrderedGraph, p: Pattern01) -> list[Bipartition]:
    """All unordered bipartitions of g into two independent sets whose
    edge matrix is equivalent to p up to reflections and rotations (the
    increasing/decreasing arrangement freedom of the construction).

    part_u always holds vertex 1, and the list is ordered by len(part_u),
    then by sorted(part_u)."""
    return _realizations(g, symmetry_keys(p))


def go_realizations(p: Pattern01) -> dict[OrderedGraph, Bipartition]:
    """Ordered bipartite graphs realizing p, each mapped to its unique
    realizing bipartition, the one realizing_bipartitions(g, p) lists: one
    vertex per row and per column, every interleaving of the two groups
    along the line, row and column order each taken increasing or
    decreasing, edges at the ones.  Members whose independent-set
    decomposition realizing p is not unique are discarded.

    Only a p whose bipartite graph (rows and columns, an edge per one) is
    disconnected runs that uniqueness test, on the symmetry_keys of p.  If
    the graph is connected, so is every member, which is a copy of it laid
    on the line.  A connected bipartite graph has exactly one unordered
    2-colouring: the row positions against the column positions.  Its
    matrix, with either side as the rows, is p with its rows and columns
    each in one direction or reversed, perhaps transposed, so it lies in
    p's dihedral orbit.  So every member realizes p exactly once, by the
    side that holds vertex 1 against the other, and is kept."""
    if not p.ones:
        raise InvalidInputError("pattern with no ones has no realizations")
    k, c = p.num_rows, p.num_cols
    row_has = {r for r, _ in p.ones}
    col_has = {cc for _, cc in p.ones}
    if len(row_has) < k or len(col_has) < c:
        raise InvalidInputError("pattern has an all-zero row or column")
    n = k + c
    members: dict[OrderedGraph, Bipartition] = {}
    for row_positions in combinations(range(1, n + 1), k):
        col_positions = tuple(v for v in range(1, n + 1) if v not in row_positions)
        sides = frozenset(row_positions), frozenset(col_positions)
        parts = Bipartition(*sides) if row_positions[0] == 1 else Bipartition(*sides[::-1])
        for row_dir in (1, -1):
            rp = row_positions if row_dir == 1 else row_positions[::-1]
            for col_dir in (1, -1):
                cp = col_positions if col_dir == 1 else col_positions[::-1]
                edges = frozenset(
                    (min(rp[r - 1], cp[cc - 1]), max(rp[r - 1], cp[cc - 1]))
                    for r, cc in p.ones
                )
                members[OrderedGraph(n, edges)] = parts
    rows, grown = 0, 1  # the rows reached from row 1 through shared columns
    while grown != rows:
        rows = grown
        for col in p.col_masks:
            if col & rows:
                grown |= col
    if rows == (1 << k) - 1:  # every column has a one, so all are reached too
        return members
    orbit = symmetry_keys(p)
    found = {g: _realizations(g, orbit) for g in members}
    return {g: parts[0] for g, parts in found.items() if len(parts) == 1}


def go_family(p: Pattern01) -> frozenset[OrderedGraph]:
    """The members of go_realizations(p), whose docstring defines them."""
    return frozenset(go_realizations(p))


# ---------------------------------------------------------------------------
# reductions and insertions
# ---------------------------------------------------------------------------

def og_reduce_smallest(g: OrderedGraph) -> OrderedGraph:
    """For every vertex with a neighbor above it, delete its edge to the
    smallest such neighbor."""
    removed = set()
    for u in range(1, g.num_vertices + 1):
        above = [v for uu, v in g.edges if uu == u]
        if above:
            removed.add((u, min(above)))
    return OrderedGraph(g.num_vertices, g.edges - removed)


def _bipartite_dropped(g: OrderedGraph, parts: Bipartition) -> list[tuple[int, int]]:
    """The edges (u, v) og_bipartite_reduce deletes: u in part_u and v its
    smallest neighbour.  A bad bipartition raises."""
    check_bipartition(g, parts)
    adj = g._forms[0]
    return [(u, (adj[u] & -adj[u]).bit_length() - 1) for u in parts.part_u if adj[u]]


def og_bipartite_reduce(g: OrderedGraph, parts: Bipartition) -> OrderedGraph:
    """For every vertex of part_u with a neighbor, delete its edge to the
    smallest-labeled neighbor (necessarily in part_v)."""
    removed = {(min(e), max(e)) for e in _bipartite_dropped(g, parts)}
    return OrderedGraph(g.num_vertices, g.edges - removed)


def og_bipartite_reduced_degrees(g: OrderedGraph, parts: Bipartition) -> dict[int, int]:
    """The degree of each part_v vertex in og_bipartite_reduce(g, parts),
    counted without building that graph: its neighbours, less those whose
    smallest neighbour it is.  A bad bipartition raises as there."""
    dropped = dict.fromkeys(parts.part_v, 0)  # v -> the part_u vertices whose smallest neighbour is v
    for u, v in _bipartite_dropped(g, parts):
        dropped[v] |= 1 << u
    adj = g._forms[0]
    return {v: (adj[v] & ~mask).bit_count() for v, mask in dropped.items()}


def og_insert_split_vertex(g: OrderedGraph, left: int, neighbor: int) -> OrderedGraph:
    """Insert a degree-one vertex between consecutive vertices left and
    left+1, both of which must be adjacent to neighbor; the new vertex is
    adjacent only to neighbor's shifted image."""
    for v in (left, left + 1):
        if v > g.num_vertices or neighbor not in g.neighbors(v):
            raise InvalidTransformationError(
                f"vertices {left} and {left + 1} must both be adjacent to {neighbor}"
            )

    def shift(v: int) -> int:
        return v + 1 if v > left else v

    new_vertex = left + 1
    target = shift(neighbor)
    edges = {(min(shift(u), shift(v)), max(shift(u), shift(v))) for u, v in g.edges}
    edges.add((min(new_vertex, target), max(new_vertex, target)))
    return OrderedGraph(g.num_vertices + 1, frozenset(edges))


def og_insert_isolated(g: OrderedGraph, position: int) -> OrderedGraph:
    """Insert an edgeless vertex after the given position (0 prepends)."""
    if not 0 <= position <= g.num_vertices:
        raise InvalidInputError(f"position {position} out of range 0..{g.num_vertices}")
    edges = frozenset(
        (u + 1 if u > position else u, v + 1 if v > position else v)
        for u, v in g.edges
    )
    return OrderedGraph(g.num_vertices + 1, edges)


def underlying_is_k22(g: OrderedGraph) -> bool:
    """True iff forgetting the order leaves the complete bipartite graph with
    two vertices a side: four vertices, four edges, all degrees two."""
    return (
        g.num_vertices == 4
        and len(g.edges) == 4
        and all(g.degree(v) == 2 for v in range(1, 5))
    )

"""Ordered-graph containment and exact search against the naive oracles,
the vertex-by-vertex search of two-interval graphs against the edge-slot
search, and searches deeper than Python's recursion limit."""
import json
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from itertools import combinations
from math import comb

from hypothesis import assume, example, given, settings, strategies as st

import mnl.ordered_graphs
from mnl.automaton import matrix_automaton
from mnl.cli import main
from mnl.ordered_graphs import (
    OrderedGraph,
    _og_search,
    _two_interval_split,
    og_contains,
    og_ex_exact,
    og_insert_isolated,
    parse_ordered_graph,
)
from mnl.records import DEFAULT_NODE_BUDGET

from oracles import naive_og_contains, naive_og_ex

G = parse_ordered_graph
CHECK = settings(derandomize=True, deadline=None, database=None, max_examples=300)
SEARCH = settings(derandomize=True, deadline=None, database=None, max_examples=150)


def random_graph(rng, max_vertices):
    n = rng.randint(1, max_vertices)
    density = rng.random()
    edges = frozenset(
        (u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < density
    )
    return OrderedGraph(n, edges)


@st.composite
def graphs(draw, max_vertices, nonempty=False):
    n = draw(st.integers(2 if nonempty else 1, max_vertices))
    slots = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges = draw(st.sets(st.sampled_from(slots), min_size=1 if nonempty else 0)) if slots else ()
    return OrderedGraph(n, frozenset(edges))


@st.composite
def needles(draw, max_vertices):
    """Needles with at least one edge, sometimes with an isolated vertex."""
    g = draw(graphs(max_vertices - 1, nonempty=True))
    if draw(st.booleans()):
        g = og_insert_isolated(g, draw(st.integers(0, g.num_vertices)))
    return g


@st.composite
def contains_queries(draw):
    """Two hosts on up to 8 vertices and a needle on up to 6: any graph, one
    with an isolated vertex, an edgeless one, or the first host itself."""
    a, b = draw(graphs(8)), draw(graphs(8))
    edgeless = st.integers(1, 6).map(lambda n: OrderedGraph(n, frozenset()))
    return a, b, draw(st.one_of(graphs(6), needles(6), edgeless, st.just(a)))


@CHECK
@given(contains_queries())
@example((G("n=5;1 2;3 4"), G("n=4;1 2;2 3;3 4"), G("n=6;1 2")))  # more vertices
@example((G("n=6;1 6"), G("n=3;1 2;1 3;2 3"), G("n=3;1 2;2 3")))  # more edges than A
@example((G("n=4"), G("n=4;1 2"), G("n=4")))  # edgeless needle and host
@example((G("n=4;2 4"), G("n=5;1 3;2 4"), G("n=4;1 3")))  # isolated vertices
@example((G("n=5;1 3;2 5;3 4"), G("n=5;1 2"), G("n=5;1 3;2 5;3 4")))  # needle is A
def test_og_contains_matches_naive(query):
    a, b, g = query
    for h in (a, b, a):  # a host cache that kept B would answer wrongly for A
        assert og_contains(h, g) == naive_og_contains(h, g)


def test_og_contains_is_thread_safe():
    rng = random.Random(11)
    hosts = [random_graph(rng, 8) for _ in range(12)]
    guests = [random_graph(rng, 6) for _ in range(12)]
    pairs = [(h, g) for h in hosts for g in guests] * 3
    serial = [og_contains(h, g) for h, g in pairs]
    order = list(range(len(pairs)))
    rng.shuffle(order)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside the cached preparations too
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            found = list(pool.map(lambda j: og_contains(*pairs[j]), order, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert found == [serial[j] for j in order]


@SEARCH
@given(needles(6), st.integers(1, 5))
# early vertices meeting B, g's last right neighbour of its last left
# endpoint: the search narrows their masks by the board vertex B lands on;
# without that narrowing the last example comes out one edge short
@example(G("n=4;1 4;2 4;3 4"), 5)
@example(G("n=5;1 4;2 4;3 5;4 5"), 5)
@example(G("n=4;1 3;1 4;2 4"), 5)
def test_og_ex_exact_matches_naive(g, n):
    rec = og_ex_exact(n, g)
    assert rec.exact and rec.value == naive_og_ex(n, g)


@SEARCH
@given(needles(5), st.integers(2, 6), st.data())
def test_budget_overrun_is_never_exact(g, n, data):
    full = og_ex_exact(n, g)
    budget = data.draw(st.integers(0, max(full.nodes_explored - 1, 0)))
    rec = og_ex_exact(n, g, node_budget=budget)
    assert full.exact
    assert rec.exact == (full.nodes_explored == 0)
    assert rec.nodes_explored <= budget and rec.value <= full.value


@SEARCH
@given(needles(5), st.integers(3, 6), st.data())
def test_sub_search_overrun_is_never_exact(g, n, data):
    # the searches on m < n vertices are the ones og_ex_exact(n - 1) runs,
    # so a budget below its node count runs out inside one of them
    before_last = og_ex_exact(n - 1, g).nodes_explored
    assume(before_last > 0)
    budget = data.draw(st.integers(0, before_last - 1))
    rec = og_ex_exact(n, g, node_budget=budget)
    assert not rec.exact and rec.nodes_explored <= budget
    assert rec.value <= og_ex_exact(n, g).value


def test_sub_search_overrun_reports_a_board_on_n_vertices():
    # a board on m < n vertices proves nothing about n when g's first and
    # last vertices are isolated, since a vertex added at either end could
    # complete a copy
    g = G("n=5;2 4")
    before_last = og_ex_exact(6, g).nodes_explored
    assert before_last == 57
    for budget in range(before_last):
        rec = og_ex_exact(7, g, node_budget=budget)
        assert not rec.exact and rec.value == 0, budget
    # when its first or last vertex has an edge, the best board on m
    # vertices plus isolated vertices at that end stands, so each finished
    # sub-board's value is kept
    for text, n in (("n=4;1 3;2 4", 7), ("n=5;1 3;2 4", 7), ("n=3;1 2", 6)):
        g = G(text)
        finished = [og_ex_exact(m, g) for m in range(g.num_vertices, n)]
        for budget in range(finished[-1].nodes_explored):
            rec = og_ex_exact(n, g, node_budget=budget)
            kept = [r.value for r in finished if r.nodes_explored <= budget]
            assert not rec.exact and rec.value >= max(kept, default=0), (text, budget)


def test_vertex_search_tables_built_once_per_call(monkeypatch):
    # the tables on the n-1 rows of the largest board serve every sub-board
    built = []

    def counted(*args):
        built.append(args)
        return matrix_automaton(*args)

    monkeypatch.setattr(mnl.ordered_graphs, "matrix_automaton", counted)
    rec = og_ex_exact(8, G("n=4;1 3;1 4;2 3;2 4"))
    assert rec.exact and rec.value == 17
    assert len(built) == 1 and built[0][1:] == (2, 7)


@st.composite
def two_interval_graphs(draw):
    """Graphs whose edges all run from 1..a to a+1..a+b, with isolated
    vertices anywhere, so some are routed to the vertex search and some,
    with vertex a or a+1 isolated, fall back to the edge slots."""
    a, b = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    slots = [(u, v) for u in range(1, a + 1) for v in range(a + 1, a + b + 1)]
    g = OrderedGraph(a + b, frozenset(draw(st.sets(st.sampled_from(slots), min_size=1))))
    for _ in range(draw(st.integers(0, 2))):
        g = og_insert_isolated(g, draw(st.integers(0, g.num_vertices)))
    return g


def edge_slot_ex(n, g):
    """ex_<(n, g) by og_ex_exact's bootstrap run on _og_search alone."""
    ceiling = [comb(m, 2) for m in range(n + 1)]
    for m in range(g.num_vertices, n + 1):
        ceiling[m], _ = _og_search(g, m, ceiling, 0, DEFAULT_NODE_BUDGET)
    return ceiling[n]


def test_vertex_search_matches_edge_slot_search():
    routed = 0
    for k in range(2, 6):
        slots = list(combinations(range(1, k + 1), 2))
        for mask in range(1, 1 << len(slots)):
            g = OrderedGraph(k, frozenset(s for i, s in enumerate(slots) if mask >> i & 1))
            if not _two_interval_split(g, 6):
                continue
            routed += 1
            for n in range(1, 7):
                rec = og_ex_exact(n, g)
                assert rec.exact and rec.value == edge_slot_ex(n, g), (str(g), n)
    assert routed == 127


@SEARCH
@given(two_interval_graphs(), st.integers(1, 5))
@example(G("n=5;2 4;3 5"), 5)  # isolated first vertex: a zero row of the matrix
@example(G("n=5;1 3;2 4"), 5)  # isolated last vertex: a zero column
@example(G("n=4;1 4;2 4"), 5)  # vertex 3 lies on no edge: the edge-slot search
def test_two_interval_search_matches_naive(g, n):
    rec = og_ex_exact(n, g)
    assert rec.exact and rec.value == naive_og_ex(n, g)


def test_two_interval_route():
    assert _two_interval_split(G("n=5;2 4;3 5"), 5) == 3
    assert _two_interval_split(G("n=5;1 3;2 4"), 5) == 2
    assert _two_interval_split(G("n=4;1 4;2 4"), 5) == 0  # vertex 3 is isolated
    assert _two_interval_split(G("n=3;1 2;2 3"), 5) == 0  # three intervals
    # the tables of a 2+2-vertex graph fit on 15 vertices, not on 16
    assert _two_interval_split(G("n=4;1 3;2 4"), 15) == 2
    assert _two_interval_split(G("n=4;1 3;2 4"), 16) == 0


def test_full_budget_is_exact():
    g = parse_ordered_graph("n=4;1 3;1 4;2 3;2 4")
    full = og_ex_exact(7, g)
    again = og_ex_exact(7, g, node_budget=full.nodes_explored)
    assert again.exact and again.value == full.value == 14


def test_needle_larger_than_board():
    rec = og_ex_exact(4, parse_ordered_graph("n=5;1 2"))
    assert rec.exact and rec.value == 6 and rec.nodes_explored == 0


def test_deep_search_runs_out_of_budget_without_crashing():
    # 1035 edge slots: one recursion level per slot would pass Python's limit
    rec = og_ex_exact(46, parse_ordered_graph("n=4;1 3;2 4"), node_budget=5000)
    assert not rec.exact and rec.nodes_explored == 5000
    assert rec.value > 0


def test_cli_deep_search(tmp_path, capsys):
    code = main(["og-ex", "--graph", "n=4;1 3;2 4", "--n", "60", "--budget", "2000",
                 "--cache", str(tmp_path / "c.jsonl")])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["exact"] is False and doc["nodes_explored"] == 2000

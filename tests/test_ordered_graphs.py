import random
from itertools import combinations, product
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import mnl.ordered_graphs
from mnl.errors import InvalidInputError, InvalidTransformationError
from mnl.ordered_graphs import (
    Bipartition,
    NeedleTable,
    OrderedGraph,
    check_bipartition,
    format_ordered_graph,
    go_family,
    interval_chromatic,
    og_bipartite_reduce,
    og_bipartite_reduced_degrees,
    og_contains,
    og_ex_exact,
    og_insert_isolated,
    og_insert_split_vertex,
    og_reduce_smallest,
    parse_ordered_graph,
    realizing_bipartitions,
    underlying_is_k22,
)
from mnl.patterns import Pattern01, parse_pattern, reflect_horizontal, reflect_vertical

from oracles import (
    naive_interval_chromatic,
    naive_og_contains,
    naive_og_ex,
    naive_pair_types,
    naive_realizing_bipartitions,
)

G = parse_ordered_graph
P = parse_pattern


def random_graph(rng, max_n=8, density=0.4):
    n = rng.randint(1, max_n)
    edges = frozenset(
        (u, v)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if rng.random() < density
    )
    return OrderedGraph(n, edges)


class TestParsing:
    def test_round_trip(self):
        text = "n=4\n1 3\n2 4\n"
        assert format_ordered_graph(G(text)) == text

    def test_inline_variant(self):
        assert G("n=3;1 2;2 3") == G("n=3\n1 2\n2 3\n")

    def test_str_reparses(self):
        g = G("n=4;1 3;2 4")
        assert G(str(g)) == g

    def test_blank_lines_ignored(self):
        assert G("n=2\n\n1 2\n\n") == G("n=2;1 2")

    def test_rejects_reversed_edge(self):
        with pytest.raises(InvalidInputError):
            G("n=3;2 1")

    def test_rejects_loop(self):
        with pytest.raises(InvalidInputError):
            G("n=3;2 2")

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidInputError):
            G("n=3;1 4")

    def test_rejects_missing_header(self):
        with pytest.raises(InvalidInputError):
            G("1 2")


class TestContains:
    def test_any_edge_hosts_single_edge(self):
        assert og_contains(G("n=3;1 3"), G("n=2;1 2"))

    def test_edgeless_host(self):
        assert not og_contains(OrderedGraph(5, frozenset()), G("n=2;1 2"))

    def test_crossing_has_no_disjoint_noncrossing_pair(self):
        assert not og_contains(G("n=4;1 3;2 4"), G("n=4;1 2;3 4"))

    def test_matches_naive(self):
        rng = random.Random(2024)
        for _ in range(200):
            h = random_graph(rng, max_n=6)
            g = random_graph(rng, max_n=4)
            if not g.edges:
                continue
            assert og_contains(h, g) == naive_og_contains(h, g)

    def test_reflexive_and_deletion_monotone(self, suite_graphs):
        for g in suite_graphs:
            assert og_contains(g, g)
            for e in g.edges:
                weaker = OrderedGraph(g.num_vertices, g.edges - {e})
                if weaker.edges:
                    assert og_contains(g, weaker)


@st.composite
def small_graphs(draw, max_n=7):
    n = draw(st.integers(1, max_n))
    slots = list(combinations(range(1, n + 1), 2))
    edges = draw(st.sets(st.sampled_from(slots))) if slots else set()
    return OrderedGraph(n, frozenset(edges))


class TestForms:
    """The adjacency forms each graph builds once and keeps on itself."""

    @settings(max_examples=300, deadline=None)
    @given(small_graphs(), small_graphs(max_n=5))
    def test_forms_match_edge_scans(self, h, g):
        for v in range(-1, h.num_vertices + 2):  # out-of-range v has no neighbours
            scan = {u + w - v for u, w in h.edges if v in (u, w)}
            assert h.neighbors(v) == scan
            assert h.degree(v) == len(scan)
        # each graph in both roles, its forms built before or during the call
        assert og_contains(h, g) == naive_og_contains(h, g)
        assert og_contains(g, h) == naive_og_contains(g, h)

    @settings(max_examples=300, deadline=None)
    @given(small_graphs(max_n=9))
    @example(G("n=4;1 3;2 4"))
    @example(G("n=4;1 4;2 3"))
    def test_pair_counts_match_pair_oracle(self, g):
        assert g._pair_counts == naive_pair_types(g)

    def test_equal_graphs_with_and_without_forms(self):
        built, fresh = G("n=5;1 3;2 4;2 5"), G("n=5;2 5;1 3;2 4")
        assert og_contains(built, G("n=4;1 3;2 4")) and str(built) and built.degree(2) == 2
        assert built == fresh and hash(built) == hash(fresh)
        assert len({built, fresh}) == 1
        assert {"_forms", "_at_least", "_text"} <= set(built.__dict__)
        assert set(fresh.__dict__) == {"num_vertices", "edges"}


class TestNeedleTable:
    """NeedleTable.screen runs og_contains's screen on a whole needle set."""

    @settings(max_examples=300, deadline=None)
    @given(small_graphs(), st.lists(small_graphs(max_n=6), min_size=1, max_size=8))
    @example(G("n=4;1 3;2 4"), [G("n=3;1 2;2 3"), G("n=4;1 3;2 4"), G("n=4;1 2;3 4")])
    @example(G("n=3;1 2;2 3"), [G("n=4;1 3;2 4"), G("n=5;1 2;3 4;4 5"), G("n=6;1 6")])
    @example(G("n=7;3 5"), [G("n=4;1 2;3 4"), G("n=2;1 2")])
    @example(G("n=4;1 4;2 3"), [G("n=4;1 3;2 4")])
    def test_screen_keeps_every_contained_needle(self, h, needles):
        # the examples: a host equal to a needle, a host smaller than every
        # needle, a host whose one edge gives every vertex of the first
        # needle room, though that needle has more edges, and a nested host
        # of the crossing needle's size and vertex demands, which only the
        # pair rule refuses
        table = NeedleTable(needles)
        live = table.screen(h)
        for j, m in enumerate(table.members):
            if naive_og_contains(h, m):
                assert live >> j & 1, str(m)
        # when every placement succeeds, og_contains answers its screen
        # alone: the size checks, the pair rule and the room rule, which
        # the table must apply alike
        with mock.patch.object(mnl.ordered_graphs, "_place", return_value=True):
            screened = sum(1 << j for j, m in enumerate(table.members) if og_contains(h, m))
        assert live == screened

    def test_members_keep_their_order_and_positions(self):
        needles = [G("n=4;1 3;2 4"), G("n=3;1 2;2 3"), G("n=2;1 2")]
        table = NeedleTable(needles)
        assert table.members == tuple(needles)
        assert table.position == {g: j for j, g in enumerate(needles)}
        assert table.screen(G("n=2;1 2")) == 0b100


class TestOgEx:
    def test_single_edge_always_zero(self):
        single = G("n=2;1 2")
        for n in range(1, 7):
            rec = og_ex_exact(n, single)
            assert rec.value == 0 and rec.exact

    def test_small_host_for_three_vertex_pattern(self):
        rec = og_ex_exact(2, G("n=3;1 2;2 3"))
        assert rec.value == 1

    def test_path_on_four_matches_enumeration(self):
        g = G("n=3;1 2;2 3")
        assert og_ex_exact(4, g).value == naive_og_ex(4, g) == 4

    def test_suite_agrees_with_enumeration_small(self, suite_graphs):
        for g in suite_graphs:
            for n in range(1, 5):
                rec = og_ex_exact(n, g)
                assert rec.exact
                assert rec.value == naive_og_ex(n, g), str(g)

    def test_budget_flags_inexact(self):
        rec = og_ex_exact(5, G("n=4;1 3;1 4;2 3;2 4"), node_budget=3)
        assert not rec.exact

    def test_rejects_edgeless_pattern(self):
        with pytest.raises(InvalidInputError):
            og_ex_exact(3, OrderedGraph(2, frozenset()))


class TestIntervalChromatic:
    def test_edgeless(self):
        assert interval_chromatic(OrderedGraph(4, frozenset())) == 1

    def test_crossing(self):
        assert interval_chromatic(G("n=4;1 3;2 4")) == 2

    def test_consecutive_path(self):
        assert interval_chromatic(G("n=3;1 2;2 3")) == 3

    def test_greedy_equals_bruteforce(self):
        rng = random.Random(42)
        for _ in range(300):
            g = random_graph(rng, max_n=8)
            assert interval_chromatic(g) == naive_interval_chromatic(g)


class TestGoFamily:
    def test_single_one(self):
        assert go_family(P("1")) == frozenset({G("n=2;1 2")})

    def test_row_pair_gives_three_stars(self):
        fam = go_family(P("11"))
        assert fam == frozenset(
            {G("n=3;1 2;1 3"), G("n=3;1 2;2 3"), G("n=3;1 3;2 3")}
        )

    def test_block_family_contains_both_k22_layouts(self):
        fam = go_family(P("11/11"))
        assert G("n=4;1 3;1 4;2 3;2 4") in fam
        assert G("n=4;1 2;2 3;3 4;1 4") in fam

    def test_separated_diag_member_has_interval_chromatic_two(self):
        fam = go_family(P("1010/0101"))
        member = G("n=6;1 3;1 5;2 4;2 6")
        assert member in fam
        assert interval_chromatic(member) == 2

    def test_member_shape_invariants(self):
        for text in ("11", "11/11", "101/011", "1010/0101"):
            p = P(text)
            for g in go_family(p):
                assert g.num_vertices == p.num_rows + p.num_cols
                assert len(g.edges) == len(p.ones)
                parts = realizing_bipartitions(g, p)
                assert len(parts) == 1
                check_bipartition(g, parts[0])

    def test_rejects_zero_line(self):
        with pytest.raises(InvalidInputError):
            go_family(P("10/10"))


@st.composite
def graphs_with_patterns(draw):
    """A graph whose edges mostly cross a drawn 2-colouring, so isolated
    vertices and several components are common, sometimes with one more
    edge that may close an odd cycle; and either the edge matrix of that
    colouring or a small random pattern."""
    n = draw(st.integers(1, 7))
    side = [None] + draw(st.lists(st.booleans(), min_size=n, max_size=n))
    slots = list(combinations(range(1, n + 1), 2))
    cross = [(u, v) for u, v in slots if side[u] != side[v]]
    edges = draw(st.sets(st.sampled_from(cross))) if cross else set()
    if slots and draw(st.booleans()):
        edges.add(draw(st.sampled_from(slots)))
    g = OrderedGraph(n, frozenset(edges))
    rows = [v for v in range(1, n + 1) if side[v] == side[1]]
    cols = [v for v in range(1, n + 1) if side[v] != side[1]]
    if cols and draw(st.booleans()):
        ones = frozenset(
            (rows.index(u) + 1, cols.index(v) + 1) if u in rows else (rows.index(v) + 1, cols.index(u) + 1)
            for u, v in edges
            if side[u] != side[v]
        )
        return g, Pattern01(len(rows), len(cols), ones)
    r, c = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    cells = list(product(range(1, r + 1), range(1, c + 1)))
    return g, Pattern01(r, c, frozenset(draw(st.sets(st.sampled_from(cells)))))


def placements(p):
    """Every ordered graph that puts the rows of p, or of a reflection of
    p, on some vertex set in increasing order and the columns on the rest."""
    n = p.num_rows + p.num_cols
    out = set()
    for q in (p, reflect_vertical(p), reflect_horizontal(p), reflect_vertical(reflect_horizontal(p))):
        for rows in combinations(range(1, n + 1), p.num_rows):
            cols = [v for v in range(1, n + 1) if v not in rows]
            edges = (sorted((rows[r - 1], cols[c - 1])) for r, c in q.ones)
            out.add(OrderedGraph(n, frozenset(tuple(e) for e in edges)))
    return out


class TestRealizingBipartitions:
    @settings(derandomize=True, deadline=None, database=None, max_examples=400)
    @given(graphs_with_patterns())
    def test_matches_subset_oracle_in_order(self, case):
        g, p = case
        assert realizing_bipartitions(g, p) == naive_realizing_bipartitions(g, p)

    def test_two_components_give_two_realizations(self):
        g = G("n=4;1 2;3 4")
        expected = [
            Bipartition(frozenset({1, 3}), frozenset({2, 4})),
            Bipartition(frozenset({1, 4}), frozenset({2, 3})),
        ]
        assert realizing_bipartitions(g, P("10/01")) == expected
        assert naive_realizing_bipartitions(g, P("10/01")) == expected
        assert g not in go_family(P("10/01"))

    @pytest.mark.parametrize("text", ["10/01", "1010/0101", "100/001/010"])
    def test_go_family_on_disconnected_patterns(self, text):
        # only a disconnected p runs the uniqueness test
        p = P(text)
        family = go_family(p)
        assert family == frozenset(
            g for g in placements(p) if len(naive_realizing_bipartitions(g, p)) == 1
        )

    @pytest.mark.parametrize("text", ["1", "11/11", "101/011", "110/011/001", "1100/0111"])
    def test_go_family_keeps_every_placement_of_a_connected_pattern(self, text):
        p = P(text)
        family = go_family(p)
        assert family == placements(p)
        assert all(len(naive_realizing_bipartitions(g, p)) == 1 for g in family)

    def test_go_family_keeps_exactly_the_unique_realizations(self):
        for c in range(1, 5):
            for row_a, row_b in product(product("01", repeat=c), repeat=2):
                p = P("".join(row_a) + "/" + "".join(row_b))
                if len({r for r, _ in p.ones}) < 2 or len({cc for _, cc in p.ones}) < c:
                    continue
                assert go_family(p) == frozenset(
                    g for g in placements(p) if len(naive_realizing_bipartitions(g, p)) == 1
                ), p


class TestReductions:
    def test_smallest_consecutive_path(self):
        assert og_reduce_smallest(G("n=3;1 2;2 3")).edges == frozenset()

    def test_smallest_keeps_far_edge(self):
        assert og_reduce_smallest(G("n=4;1 3;2 3;1 4")).edges == {(1, 4)}

    def test_smallest_edgeless(self):
        g = OrderedGraph(3, frozenset())
        assert og_reduce_smallest(g) == g

    def test_smallest_removal_count(self, suite_graphs):
        for g in suite_graphs:
            sources = {u for u, _ in g.edges}
            reduced = og_reduce_smallest(g)
            assert len(g.edges) - len(reduced.edges) == len(sources)
            assert len(sources) <= g.num_vertices - 1

    def test_bipartite_single_edge(self):
        out = og_bipartite_reduce(G("n=2;1 2"), Bipartition(frozenset({1}), frozenset({2})))
        assert out.edges == frozenset()

    def test_bipartite_mixed(self):
        out = og_bipartite_reduce(
            G("n=4;1 2;1 4;3 4"), Bipartition(frozenset({1, 3}), frozenset({2, 4}))
        )
        assert out.edges == {(1, 4)}

    def test_bipartite_k22(self):
        out = og_bipartite_reduce(
            G("n=4;1 3;1 4;2 3;2 4"), Bipartition(frozenset({1, 2}), frozenset({3, 4}))
        )
        assert out.edges == {(1, 4), (2, 4)}

    @settings(derandomize=True, deadline=None, database=None, max_examples=300)
    @given(graphs_with_patterns())
    @example((G("n=4;1 3;1 4;2 3;2 4"), P("11/11")))
    def test_bipartite_reduced_degrees_count_the_reduced_graph(self, case):
        g, p = case
        for parts in realizing_bipartitions(g, p):
            for split in (parts, Bipartition(parts.part_v, parts.part_u)):
                reduced = og_bipartite_reduce(g, split)
                assert og_bipartite_reduced_degrees(g, split) == {v: reduced.degree(v) for v in split.part_v}

    def test_bipartite_rejects_bad_parts(self):
        with pytest.raises(InvalidInputError):
            og_bipartite_reduce(
                G("n=3;1 2;2 3"), Bipartition(frozenset({1, 2}), frozenset({3}))
            )


class TestInsertions:
    def test_split_vertex_cherry(self):
        out = og_insert_split_vertex(G("n=3;1 3;2 3"), 1, 3)
        assert out == G("n=4;1 4;2 4;3 4")

    def test_split_vertex_requires_common_neighbor(self):
        with pytest.raises(InvalidTransformationError):
            og_insert_split_vertex(G("n=2;1 2"), 1, 2)

    def test_split_vertex_k22(self):
        out = og_insert_split_vertex(G("n=4;1 3;1 4;2 3;2 4"), 3, 1)
        assert out == G("n=5;1 3;1 4;1 5;2 3;2 5")
        assert out.degree(4) == 1

    def test_isolated_shifts(self):
        assert og_insert_isolated(G("n=2;1 2"), 1) == G("n=3;1 3")

    def test_isolated_tiny(self):
        assert og_insert_isolated(OrderedGraph(1, frozenset()), 0) == OrderedGraph(2, frozenset())

    def test_isolated_append(self):
        assert og_insert_isolated(G("n=3;1 2;2 3"), 3) == G("n=4;1 2;2 3")

    def test_isolated_bad_position(self):
        with pytest.raises(InvalidInputError):
            og_insert_isolated(G("n=2;1 2"), 5)

    def test_isolated_monotone_small_n(self, suite_graphs):
        for g in suite_graphs:
            if not g.edges:
                continue
            bigger = og_insert_isolated(g, 0)
            for n in range(1, 5):
                assert og_ex_exact(n, bigger).value >= og_ex_exact(n, g).value


class TestUnderlyingK22:
    def test_parts_first(self):
        assert underlying_is_k22(G("n=4;1 3;1 4;2 3;2 4"))

    def test_cycle_layout(self):
        assert underlying_is_k22(G("n=4;1 2;2 3;3 4;1 4"))

    def test_two_disjoint_edges(self):
        assert not underlying_is_k22(G("n=4;1 2;3 4"))

    def test_wrong_size(self):
        assert not underlying_is_k22(G("n=5;1 3;1 4;2 3;2 4"))

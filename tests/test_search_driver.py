"""The search driver shared by the three exact engines: its board ladder
against a naive one, what a node budget means, the refusal of a negative
one, the node counts of fixed instances, and the names the benchmark's
traced run rebinds to count engine nodes through the CLI."""
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import mnl.cli
import mnl.pipeline
from mnl.errors import InvalidInputError
from mnl.extremal import ex_branch_bound
from mnl.ordered_graphs import og_ex_exact, parse_ordered_graph
from mnl.patterns import parse_pattern
from mnl.records import DEFAULT_NODE_BUDGET, BudgetExhausted, run_search
from mnl.sequences import parse_sequence, seq_ex_exact

from oracles import naive_board_ladder

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# case -> (record kind, solve(budget)); the first two matrix cases cover the
# sorted-column search (equal columns) and the general one, and the third
# matrix case and the second sequence case answer subtrees from their memos
# (0010/0101 at n=5 with exact and with bound-only entries); the first two
# ordered-graph cases run the vertex search of two-interval graphs, the
# second answering subtrees from its memo, and the third the edge slots
ENGINES = {
    "matrix": ("matrix", lambda budget: ex_branch_bound(4, parse_pattern("11/11"), budget)),
    "matrix-distinct-columns": (
        "matrix",
        lambda budget: ex_branch_bound(4, parse_pattern("1010/0101"), budget),
    ),
    "matrix-memo-hits": (
        "matrix",
        lambda budget: ex_branch_bound(5, parse_pattern("0010/0101"), budget),
    ),
    "sequence": ("sequence", lambda budget: seq_ex_exact(parse_sequence("ababa"), 3, budget)),
    "sequence-memo-hits": ("sequence", lambda budget: seq_ex_exact(parse_sequence("ababa"), 4, budget)),
    "ordered-graph": (
        "ordered-graph",
        lambda budget: og_ex_exact(6, parse_ordered_graph("n=4;1 3;1 4;2 3;2 4"), budget),
    ),
    "ordered-graph-memo-hits": (
        "ordered-graph",
        lambda budget: og_ex_exact(6, parse_ordered_graph("n=4;1 3;2 4"), budget),
    ),
    "ordered-graph-edge-slots": (
        "ordered-graph",
        lambda budget: og_ex_exact(6, parse_ordered_graph("n=3;1 2;2 3"), budget),
    ),
}

CLI_RUNS = (
    ("ex", "--pattern", "11/11", "--n", "3"),
    ("seq-ex", "--sequence", "ababa", "--n", "3"),
    ("og-ex", "--graph", "n=4;1 3;1 4;2 3;2 4", "--n", "5"),
)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(st.data())
def test_board_ladder_matches_naive(data):
    n = data.draw(st.integers(1, 8))
    first = data.draw(st.integers(1, n + 1))
    pads = data.draw(st.booleans())
    board_lists = st.lists(st.integers(0, 30), min_size=n + 1, max_size=n + 1)
    tops, values, costs = data.draw(board_lists), data.draw(board_lists), data.draw(board_lists)
    budget = data.draw(st.integers(0, sum(costs) + 2))
    worth = {}  # the boards solved so far

    def solve(m, ceiling, best, left):
        assert m == max(worth, default=first - 1) + 1  # smallest first, none skipped
        assert ceiling[:m] == [worth.get(j, tops[j]) for j in range(m)]  # only exact ceilings
        assert best == (worth[m - 1] if pads and m - 1 in worth else 0)
        if costs[m] > left:
            raise BudgetExhausted(max(best, values[m] // 2), left)
        worth[m] = max(best, values[m])
        return worth[m], costs[m]

    rec = run_search("sequence", "x", n, budget, lambda: solve, first, tops.__getitem__, pads)
    assert (rec.value, rec.exact, rec.nodes_explored) == naive_board_ladder(
        n, first, tops, pads, budget, values, costs)


@pytest.mark.parametrize("case", ENGINES)
def test_budget_counts_nodes_alike_in_every_engine(case):
    kind, solve = ENGINES[case]
    full = solve(DEFAULT_NODE_BUDGET)
    assert full.kind == kind and full.exact and full.nodes_explored > 0
    again = solve(full.nodes_explored)
    assert again.exact
    assert (again.value, again.nodes_explored) == (full.value, full.nodes_explored)
    for budget in range(full.nodes_explored):
        rec = solve(budget)
        assert not rec.exact and rec.nodes_explored <= budget and rec.value <= full.value


def test_node_counts_are_pinned():
    """Node counts are deterministic, so a change to any engine's search
    order, bound or memo key shows here: the exact-ladder totals of the
    benchmark (perfbench/ladder.py) and README's figures for ex(6, P)."""
    matrices = "0010/0101 0101/1010 011/101 101/011 101/110 1010/0101 11/11 110/101".split()
    sequences = ("ababa", "abcacbc")
    graphs = ("n=4;1 3;1 4;2 3;2 4", "n=4;1 3;2 4")
    ladder = {
        "matrix": [ex_branch_bound(n, parse_pattern(p)) for p in matrices for n in (4, 5)],
        "sequence": [seq_ex_exact(parse_sequence(u), n) for u in sequences for n in (3, 4, 5)],
        "ordered-graph": [og_ex_exact(n, parse_ordered_graph(g)) for g in graphs for n in (6, 7, 8)],
    }
    assert all(rec.exact for recs in ladder.values() for rec in recs)
    totals = {kind: sum(rec.nodes_explored for rec in recs) for kind, recs in ladder.items()}
    assert totals == {"matrix": 7780, "sequence": 32213, "ordered-graph": 37230}
    # pattern -> (ex(6, P), nodes)
    readme = {"11/11": (16, 3234), "1010/0101": (24, 4397), "0010/0101": (21, 1797),
              "101/011": (20, 50637)}
    for p, want in readme.items():
        rec = ex_branch_bound(6, parse_pattern(p))
        assert rec.exact and (rec.value, rec.nodes_explored) == want, p


@pytest.mark.parametrize("case", ENGINES)
def test_negative_budget_refused(case):
    with pytest.raises(InvalidInputError, match="budget"):
        ENGINES[case][1](-5)


def test_cli_negative_budget_refused_before_the_cache_is_touched(tmp_path, capsys):
    cache = tmp_path / "c.jsonl"
    assert mnl.cli.main(["ex", "--pattern", "11", "--n", "2", "--cache", str(cache)]) == 0
    before = cache.read_bytes()
    for argv in CLI_RUNS:
        code = mnl.cli.main([*argv, "--budget", "-5", "--cache", str(cache)])
        assert code == 1 and "budget" in capsys.readouterr().err
    assert cache.read_bytes() == before


def test_benchmark_hooks_count_engine_nodes_through_the_cli(tmp_path, capsys, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from tracer import Tracer

    tracer = Tracer()
    layers.install(tracer)
    try:
        for argv in CLI_RUNS:
            assert mnl.cli.main([*argv, "--cache", str(tmp_path / "c.jsonl")]) == 0
    finally:
        tracer.restore()
    for layer in ("extremal", "sequences", "ordered_graphs"):
        assert tracer.counters[f"{layer}.nodes"] > 0, layer


def test_benchmark_hooks_see_the_og_stream_through_the_cli(capsys, monkeypatch):
    """Every name the traced benchmark rebinds for the ordered-graph stream
    must still be looked up there, or its layer silently reads zero.  The
    stream calls go_family only to build the known members, so the
    pipeline's caches are cleared first, as the benchmark clears them
    before every stream."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from tracer import Tracer

    for value in vars(mnl.pipeline).values():
        if callable(getattr(value, "cache_clear", None)):
            value.cache_clear()

    tracer = Tracer()
    layers.install(tracer)
    try:
        assert mnl.cli.main(["enum", "og", "--k", "2", "--col-max", "3"]) == 0
    finally:
        tracer.restore()
    assert capsys.readouterr().out
    for name in ("ordered_graphs.go_family", "ordered_graphs.og_contains"):
        assert tracer.calls(name) > 0, name


def test_benchmark_argv_accepted(monkeypatch):
    """Every argv the benchmark sends, with the --cache it appends, parses:
    dropping a flag it passes fails here, not in a benchmark run."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import cli_session
    import streams

    argvs = [argv for _, argv in streams.STREAMS]
    argvs += [cli_session._argv(cmd, "x", 3) for cmd in ("ex", "seq-ex", "og-ex", "compact")]
    parser = mnl.cli.build_parser()
    for argv in argvs:
        args = parser.parse_args([*argv, "--cache", "c.jsonl"])
        assert args.cache == "c.jsonl", argv

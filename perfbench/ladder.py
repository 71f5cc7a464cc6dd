"""exact-ladder: library calls into the three search engines, no cache.

Every round solves the same fixed ladder; the seed only sets the order.
"""
from __future__ import annotations

import json
import random
from pathlib import Path
from time import perf_counter

from common import (
    CROSSING_PAIR,
    K22_PARTS_FIRST,
    KNOWN_SEVEN,
    LAMBDA_3,
    ZARANKIEWICZ_2,
    Op,
    Round,
    dihedral,
    letters,
    load_oracles,
    pattern01,
)

MATRICES = tuple(sorted(KNOWN_SEVEN)) + ("0010/0101",)
SEQUENCES = ("ababa", "abcacbc")
GRAPHS = (K22_PARTS_FIRST, CROSSING_PAIR)
# Oracle values too slow to recompute in every run (about 17 s together);
# perfbench/make_reference.py regenerates them with tests/oracles.py.
REFERENCE = Path(__file__).resolve().parent / "reference.json"

# setting -> (engine kind as in ExRecord, span name)
ENGINES = {
    "matrix": ("extremal", "extremal.ex_branch_bound"),
    "seq": ("sequences", "sequences.seq_ex_exact"),
    "og": ("ordered_graphs", "ordered_graphs.og_ex_exact"),
}


def build_inputs(seed: int, workdir: Path) -> dict:
    from mnl.ordered_graphs import parse_ordered_graph
    from mnl.patterns import parse_pattern
    from mnl.sequences import parse_sequence

    instances = (
        [("matrix", p, n) for p in MATRICES for n in (4, 5)]
        + [("seq", s, n) for s in SEQUENCES for n in (3, 4, 5)]
        + [("og", g, n) for g in GRAPHS for n in (6, 7, 8)]
    )
    parse = {"matrix": parse_pattern, "seq": parse_sequence, "og": parse_ordered_graph}
    for setting, text, _ in instances:
        parse[setting](text)  # reject a malformed ladder before any timing
    random.Random(seed).shuffle(instances)
    return {"instances": instances}


def _solver(setting: str):
    from mnl.extremal import ex_branch_bound
    from mnl.ordered_graphs import og_ex_exact, parse_ordered_graph
    from mnl.patterns import parse_pattern
    from mnl.sequences import parse_sequence, seq_ex_exact

    if setting == "matrix":
        return parse_pattern, lambda p, n: ex_branch_bound(n, p)
    if setting == "seq":
        return parse_sequence, lambda u, n: seq_ex_exact(u, n)
    return parse_ordered_graph, lambda g, n: og_ex_exact(n, g)


def run_round(plan: dict, tracer=None, index: int = 0) -> Round:
    solvers = {s: _solver(s) for s in ENGINES}
    jobs = [(s, text, n, solvers[s][0](text)) for s, text, n in plan["instances"]]
    rnd = Round(wall_s=0.0)
    start = perf_counter()
    for setting, text, n, obj in jobs:
        kind, span = ENGINES[setting]
        solve = solvers[setting][1]
        t0 = perf_counter()
        if tracer is None:
            rec = solve(obj, n)
        else:
            with tracer.region(span):
                rec = solve(obj, n)
        seconds = perf_counter() - t0
        rnd.ops.append(Op(setting, "solve", f"{setting} {text} n={n}", seconds, True))
        rnd.nodes[kind] = rnd.nodes.get(kind, 0) + rec.nodes_explored
        rnd.engine_s[kind] = rnd.engine_s.get(kind, 0.0) + seconds
        rnd.outputs[(setting, text, n)] = (rec.value, rec.exact, rec.nodes_explored)
    rnd.wall_s = perf_counter() - start
    return rnd


def check(plan: dict, rounds: list[Round]) -> list[str]:
    from mnl.extremal import ex_branch_bound
    from mnl.ordered_graphs import parse_ordered_graph
    from mnl.patterns import parse_pattern

    oracles = load_oracles()
    errors = []
    first = rounds[0].outputs
    for i, rnd in enumerate(rounds[1:], start=2):
        if rnd.outputs != first:
            errors.append(f"round {i} differs from round 1 in a value, exactness or node count")
    values = {}
    for (setting, text, n), (value, exact, _) in first.items():
        values[setting, text, n] = value
        if not exact:
            errors.append(f"{setting} {text} n={n}: record is not exact")

    def expect(key, want, source):
        if values[key] != want:
            errors.append(f"{key[0]} {key[1]} n={key[2]}: {values[key]} != {want} ({source})")

    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    for p in MATRICES:
        expect(("matrix", p, 4), oracles.naive_ex(4, pattern01(p)), "naive_ex")
    for s in SEQUENCES:
        for n in (3, 4):
            expect(("seq", s, n), oracles.naive_seq_ex(letters(s), n), "naive_seq_ex")
    for g in GRAPHS:
        expect(("og", g, 6), oracles.naive_og_ex(6, parse_ordered_graph(g)), "naive_og_ex")
        expect(("og", g, 7), reference["naive_og_ex"][g]["7"], "stored naive_og_ex")

    for n in (4, 5):
        expect(("matrix", "11/11", n), ZARANKIEWICZ_2[n], "z(n;2)")
    for n in (3, 4, 5):
        expect(("seq", "ababa", n), LAMBDA_3[n], "lambda_3(n)")
    for n in (6, 7, 8):
        expect(("og", CROSSING_PAIR, n), 2 * n - 3, "2n-3")

    # One value per dihedral orbit; checked at n=4, outside the timed region.
    for p in MATRICES:
        for member in sorted(dihedral(p) - {p}):
            got = ex_branch_bound(4, parse_pattern(member)).value
            if got != values["matrix", p, 4]:
                errors.append(f"ex(4, {member}) = {got} but ex(4, {p}) = {values['matrix', p, 4]}")

    # Monotone in n and under the vertex-averaging ceilings.
    for p in MATRICES:
        lo, hi = values["matrix", p, 4], values["matrix", p, 5]
        if not lo <= hi <= lo * 25 // 16:
            errors.append(f"ex({p}): {lo} at n=4, {hi} at n=5 breaks monotonicity or the ceiling")
    for s in SEQUENCES:
        if not values["seq", s, 3] <= values["seq", s, 4] <= values["seq", s, 5]:
            errors.append(f"Ex({s}, n) decreases in n")
    for g in GRAPHS:
        for n in (7, 8):
            lo, hi = values["og", g, n - 1], values["og", g, n]
            if not lo <= hi <= lo * n // (n - 2):
                errors.append(f"ex_<({n}, {g}) = {hi} against {lo} at n-1 breaks monotonicity or the ceiling")
    return errors


def layer_metrics(plan: dict, untraced: Round, traced: Round, tracer) -> dict[str, float]:
    out = {}
    for kind in ("extremal", "sequences", "ordered_graphs"):
        out[f"{kind}.nodes"] = traced.nodes.get(kind, 0)
        seconds = untraced.engine_s.get(kind, 0.0)
        out[f"{kind}.nodes_per_s"] = untraced.nodes.get(kind, 0) / seconds if seconds else 0.0
    return out

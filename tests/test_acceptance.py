"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with -s to see the lines for passing criteria too:

    pytest tests/test_acceptance.py -v -s
"""
import random
import time
from pathlib import Path

from mnl.extremal import ex_branch_bound, growth_report
from mnl.ordered_graphs import (
    interval_chromatic,
    og_ex_exact,
    og_insert_split_vertex,
    parse_ordered_graph,
)
from mnl.patterns import Pattern01, canonical_key, insert_split_column, parse_pattern
from mnl.pipeline import (
    enumerate_candidates,
    known_mnl_2row,
    matrix_count_bound,
    og_count_bound,
    seq_count_bound,
)
from mnl.sequences import parse_sequence, seq_ex_exact

from oracles import (
    naive_ex,
    naive_interval_chromatic,
    naive_og_ex,
    naive_seq_ex,
    sum_matrix_bound,
    sum_og_bound,
    sum_seq_bound,
)
from test_ordered_graphs import random_graph

P = parse_pattern


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_row_pair_identity():
    ok = True
    worst = 0.0
    for n in range(1, 7):
        start = time.monotonic()
        rec = ex_branch_bound(n, P("11"))
        elapsed = time.monotonic() - start
        worst = max(worst, elapsed)
        ok = ok and rec.exact and rec.value == n and elapsed < 10.0
    report(1, "horizontal pair extremal value is n for n=1..6", ok, f"worst run {worst:.2f}s")


def test_criterion_02_all_ones_row_identity():
    start = time.monotonic()
    ok = True
    for k in (2, 3):
        needle = P("1" * k)
        for n in range(1, 7):
            rec = ex_branch_bound(n, needle)
            # (k-1)*n once the board is wide enough for the k-1 full columns;
            # a board narrower than the needle holds all n*n ones
            expected = min((k - 1) * n, n * n)
            ok = ok and rec.exact and rec.value == expected
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 30.0
    report(2, "1xk all-ones extremal value is (k-1)n on its domain", ok, f"total {elapsed:.2f}s")


def test_criterion_03_abab_identity():
    start = time.monotonic()
    ok = True
    for n in range(2, 6):
        rec = seq_ex_exact(parse_sequence("abab"), n)
        ok = ok and rec.exact and rec.value == 2 * n - 1
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    report(3, "abab extremal length is 2n-1 for n=2..5", ok, f"total {elapsed:.2f}s")


def test_criterion_04_oracle_equivalence(suite_patterns):
    assert len(suite_patterns) >= 10
    assert known_mnl_2row() <= set(suite_patterns)
    bad = []
    for p in suite_patterns:
        for n in range(1, 5):
            rec = ex_branch_bound(n, p)
            if not rec.exact or rec.value != naive_ex(n, p):
                bad.append((str(p), n))
    report(4, f"search equals exhaustive oracle on {len(suite_patterns)} patterns, n<=4",
           not bad, f"mismatches: {bad}" if bad else "zero tolerance")


def test_criterion_05_split_column_sandwich(suite_patterns):
    checked = 0
    bad = []
    for p in suite_patterns:
        spots = [(r, c) for (r, c) in p.ones if (r, c + 1) in p.ones]
        for r, c in spots:
            wider = insert_split_column(p, r, c)
            for n in range(1, 5):
                low = ex_branch_bound(n, p).value
                high = ex_branch_bound(n, wider).value
                checked += 1
                if not (low <= high <= 2 * low):
                    bad.append((str(p), (r, c), n))
    report(5, "split-column sandwich ex <= ex' <= 2ex at n<=4", not bad,
           f"{checked} inequalities" if not bad else f"violations: {bad}")


def test_criterion_06_seven_matrix_regression():
    start = time.monotonic()
    reports = list(enumerate_candidates(2, 1, 6))
    elapsed = time.monotonic() - start
    emitted_known = {str(r.pattern) for r in reports if r.verdict == "known-mnl"}
    expected = {str(m) for m in known_mnl_2row()}
    shape_ok = all(r.pattern.num_cols <= 6 and len(r.pattern.ones) <= 7 for r in reports)
    ok = emitted_known == expected and shape_ok and elapsed < 120.0
    report(6, "2-row enumeration emits the seven known matrices",
           ok, f"{len(reports)} candidates in {elapsed:.2f}s")


def test_criterion_07_bound_formulas():
    ok = (
        matrix_count_bound(2) == sum_matrix_bound(2) == 579
        and seq_count_bound(2, 4) == sum_seq_bound(2, 4) == 60
        and og_count_bound(2) == sum_og_bound(2) == 13959
    )
    report(7, "counting bounds match the independent summation oracle", ok,
           "579 / 60 / 13959")


def test_criterion_08_ordered_graph_small_n(suite_graphs):
    single = parse_ordered_graph("n=2;1 2")
    ok = all(og_ex_exact(n, single).value == 0 for n in range(1, 7))
    bad = []
    for g in suite_graphs:
        for n in range(1, 6):
            rec = og_ex_exact(n, g)
            if not rec.exact or rec.value != naive_og_ex(n, g):
                bad.append((str(g), n))
    report(8, "ordered-graph search equals edge-subset enumeration at n<=5",
           ok and not bad, f"{len(suite_graphs)} graphs" if not bad else f"mismatches: {bad}")


def test_criterion_09_split_vertex_echo(suite_graphs):
    checked = 0
    bad = []
    for g in suite_graphs:
        for left in range(1, g.num_vertices):
            for neighbor in range(1, g.num_vertices + 1):
                if neighbor in (left, left + 1):
                    continue
                if not (neighbor in g.neighbors(left) and neighbor in g.neighbors(left + 1)):
                    continue
                wider = og_insert_split_vertex(g, left, neighbor)
                for n in range(1, 6):
                    checked += 1
                    if og_ex_exact(n, wider).value > 2 * og_ex_exact(n, g).value:
                        bad.append((str(g), left, neighbor, n))
    report(9, "degree-one vertex insertion at most doubles the extremal value",
           not bad, f"{checked} inequalities" if not bad else f"violations: {bad}")


def test_criterion_10_interval_chromatic():
    rng = random.Random(1729)
    bad = 0
    for _ in range(1000):
        g = random_graph(rng, max_n=8, density=rng.choice((0.2, 0.4, 0.7)))
        if interval_chromatic(g) != naive_interval_chromatic(g):
            bad += 1
    report(10, "greedy interval chromatic equals brute force on 1000 random graphs",
           bad == 0, "zero tolerance")


def test_criterion_11_asymptotics_replaced_by_exact_values():
    rec = seq_ex_exact(parse_sequence("ababa"), 2)
    oracle = naive_seq_ex((1, 2, 1, 2, 1), 2)
    readme = Path(__file__).resolve().parent.parent / "README.md"
    documented = "inverse Ackermann" in readme.read_text(encoding="utf-8")
    ok = rec.exact and rec.value == oracle == 4 and documented
    report(11, "asymptotic claims replaced by exact small values and documented",
           ok, f"Ex(ababa,2)={rec.value}, README note={'yes' if documented else 'missing'}")


def test_criterion_12_subpattern_linearity_echo():
    """Every one-deletion subpattern of the seven should read as linear at
    n_max=5.  Subpatterns of the 4-column matrices are saturated at n*n
    through n=3 (the board is narrower than the pattern), which leaves too
    few informative increments for the three-equal rule; those classify
    inconclusive and are listed here, with their post-saturation increments
    required to be constant.  Nothing may classify superlinear-suspect."""
    inconclusive = []
    bad = []
    for parent in sorted(known_mnl_2row(), key=str):
        for pos in sorted(parent.ones):
            sub = Pattern01(parent.num_rows, parent.num_cols, parent.ones - {pos})
            rep = growth_report(sub, 5)
            if rep.classification == "apparently-linear":
                continue
            if rep.classification == "superlinear-suspect":
                bad.append((str(parent), pos, rep.classification))
                continue
            inconclusive.append((str(parent), pos, [v for _, v in rep.values]))
            if sub.num_cols < 4 or len(set(rep.increments[-2:])) != 1:
                bad.append((str(parent), pos, rep.classification, rep.increments))
    for parent, pos, values in inconclusive:
        print(f"[criterion 12] inconclusive (board-saturated): {parent} minus {pos} -> values {values}")
    report(12, "one-deletion subpatterns classify as linear at n_max=5",
           not bad,
           f"{len(inconclusive)} saturated cases listed, none superlinear" if not bad else f"failures: {bad}")


def test_criterion_12_one_size_up():
    """At n_max=6 no one-deletion subpattern of the seven is saturated any
    longer: every orbit reads apparently-linear, with these values."""
    expected = {
        "0001/1010": (1, 4, 9, 13, 17, 21),
        "00/01/10/01": (1, 4, 9, 13, 17, 21),
        "001/101": (1, 4, 7, 10, 13, 16),
        "01/10/01": (1, 4, 7, 10, 13, 16),
        "00/01/11": (1, 4, 7, 10, 13, 16),
        "001/110": (1, 4, 7, 10, 13, 16),
        "01/11": (1, 3, 5, 7, 9, 11),
    }
    orbits = {}
    for parent in known_mnl_2row():
        for pos in parent.ones:
            sub = Pattern01(parent.num_rows, parent.num_cols, parent.ones - {pos})
            orbits.setdefault(canonical_key(sub), sub)
    got = {}
    for key, sub in orbits.items():
        rep = growth_report(sub, 6)
        got[key] = (rep.classification, tuple(v for _, v in rep.values))
    want = {key: ("apparently-linear", values) for key, values in expected.items()}
    ok = got == want
    report(12, "one-deletion subpatterns classify as linear at n_max=6", ok,
           f"{len(got)} orbits" if ok else f"got {got}")

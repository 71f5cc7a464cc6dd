"""Paths, result records and small statistics shared by the workloads."""
from __future__ import annotations

import os
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ORACLES = ROOT / "tests" / "oracles.py"
WORK = ROOT / ".perfbench_work"

# Classical values that owe nothing to mnl's engines.
# z(n;2) = ex(n, 11/11): Collins, Riasanovsky, Wallace and Radziszowski,
# "Zarankiewicz numbers and bipartite Ramsey numbers" (2016).
ZARANKIEWICZ_2 = {1: 1, 2: 3, 3: 6, 4: 9, 5: 12, 6: 16, 7: 21}
# lambda_3(n) = Ex(ababa, n), the Davenport-Schinzel sequences of order 3.
LAMBDA_3 = {1: 1, 2: 4, 3: 8, 4: 12, 5: 17, 6: 22}
CROSSING_PAIR = "n=4;1 3;2 4"  # ex_<(n) = 2n - 3 for n >= 2
K22_PARTS_FIRST = "n=4;1 3;1 4;2 3;2 4"

# The seven known 2-row minimally non-linear matrices, as listed in the
# literature (vertical reflections counted as distinct patterns).
KNOWN_SEVEN = frozenset(
    {"11/11", "101/011", "011/101", "1010/0101", "101/110", "110/101", "0101/1010"}
)


def bootstrap() -> None:
    """Make `mnl` importable from src/, or stop with exit code 2 when the
    checkout does not hold src/mnl and tests/oracles.py."""
    missing = [p for p in (SRC / "mnl" / "__init__.py", ORACLES) if not p.is_file()]
    if missing:
        print(f"perfbench: missing {', '.join(str(p) for p in missing)}", file=sys.stderr)
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    """Environment for an mnl child process: the checkout's src/ first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("MNL_CACHE", None)
    return env


@dataclass
class Op:
    """One timed operation: an engine call, a stream or an mnl command."""

    setting: str  # matrix | seq | og | cache
    cls: str  # solve | stream | read | write | compact
    label: str
    seconds: float
    ok: bool


@dataclass
class Round:
    """One whole round of a workload's operations."""

    wall_s: float
    ops: list[Op] = field(default_factory=list)
    nodes: dict[str, int] = field(default_factory=dict)  # engine kind -> nodes
    engine_s: dict[str, float] = field(default_factory=dict)  # engine kind -> seconds
    outputs: dict = field(default_factory=dict)  # workload-specific, for checks


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def dihedral(rows: str) -> frozenset[str]:
    """The orbit of a '/'-separated 0-1 matrix under the 8 symmetries of the
    square, computed on strings (independently of mnl.patterns)."""
    grid = [list(line) for line in rows.split("/")]

    def rotate(g):
        return [list(col) for col in zip(*g[::-1])]

    out = set()
    for _ in range(4):
        out.add("/".join("".join(r) for r in grid))
        out.add("/".join("".join(r[::-1]) for r in grid))
        grid = rotate(grid)
    return frozenset(out)


def pattern01(text: str):
    """A '/'-separated 0-1 matrix as an mnl Pattern01, built without mnl's
    parser."""
    from mnl.patterns import Pattern01

    rows = text.split("/")
    ones = frozenset((r + 1, c + 1) for r, line in enumerate(rows) for c, ch in enumerate(line) if ch == "1")
    return Pattern01(len(rows), len(rows[0]), ones)


def letters(word: str) -> tuple[int, ...]:
    return tuple(ord(ch) - 96 for ch in word)


def load_oracles():
    """tests/oracles.py, loaded by path so that no other `tests` package on
    sys.path can shadow it."""
    import importlib.util

    name = "perfbench_oracles"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, ORACLES)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return sys.modules[name]

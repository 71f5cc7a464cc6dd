"""Result records shared by the matrix, sequence, and ordered-graph engines,
and the driver that runs each engine's search and builds its record."""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable

from .errors import InvalidInputError

DEFAULT_NODE_BUDGET = 10**8

KINDS = ("matrix", "sequence", "ordered-graph")

# to_json_dict's fields in ExRecord's field order, with their exact types
# (type(True) is bool, not int, so a bool is no count)
_JSON_FIELDS = {
    "key": str,
    "kind": str,
    "n": int,
    "value": int,
    "exact": bool,
    "nodes_explored": int,
    "elapsed_ms": int,
}


@dataclass(frozen=True)
class ExRecord:
    """One extremal-value computation.

    exact=True means the search tree was exhausted, so value is the proven
    optimum.  exact=False means the node budget ran out and value is only the
    best lower bound found.
    """

    pattern_key: str
    kind: str
    n: int
    value: int
    exact: bool
    nodes_explored: int
    elapsed_ms: int

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.n < 1 or self.value < 0 or self.nodes_explored < 0 or self.elapsed_ms < 0:
            raise ValueError("negative field in ExRecord")
        if self.kind == "matrix" and self.value > self.n * self.n:
            raise ValueError(f"matrix value {self.value} exceeds n^2 = {self.n * self.n}")
        if self.kind == "ordered-graph" and self.value > self.n * (self.n - 1) // 2:
            raise ValueError(f"graph value {self.value} exceeds n(n-1)/2")

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "key": self.pattern_key,
            "kind": self.kind,
            "n": self.n,
            "value": self.value,
            "exact": self.exact,
            "nodes_explored": self.nodes_explored,
            "elapsed_ms": self.elapsed_ms,
        }

    @classmethod
    def from_json_dict(cls, d: dict[str, Any]) -> "ExRecord":
        """Each field must already have its JSON type, nothing is coerced:
        a string `"false"` is not exactness and `3.9` is not a count."""
        for name, kind in _JSON_FIELDS.items():
            if type(d[name]) is not kind:
                raise ValueError(f"field {name!r} must be {kind.__name__}, got {d[name]!r}")
        return cls(*(d[name] for name in _JSON_FIELDS))


class BudgetExhausted(Exception):
    """Raised by a search whose node budget ran out, with the best value
    found and the nodes spent: BudgetExhausted(value, nodes)."""


def run_search(
    kind: str,
    key: str,
    n: int,
    node_budget: int,
    search: Callable[[int], tuple[int, int]],
) -> ExRecord:
    """Run search(node_budget) -> (value, nodes) on a board of size n and
    return its timed record, exact when the search returns.  A search whose
    budget runs out raises BudgetExhausted(value, nodes) instead, which
    records an inexact value; that is its only way to stop early."""
    if n < 1:
        raise InvalidInputError(f"n must be >= 1, got {n}")
    if node_budget < 0:
        raise InvalidInputError(f"node budget must be >= 0, got {node_budget}")
    start = time.monotonic()
    try:
        (value, nodes), exact = search(node_budget), True
    except BudgetExhausted as stop:
        (value, nodes), exact = stop.args, False
    elapsed_ms = int((time.monotonic() - start) * 1000)
    return ExRecord(key, kind, n, value, exact, nodes, elapsed_ms)


@dataclass(frozen=True)
class GrowthReport:
    """Exact values of an extremal function for n = 1..n_max plus a crude
    trend classification.

    The classification looks at the last three first differences: all equal
    means apparently-linear, strictly increasing means superlinear-suspect,
    anything else (including any inexact value) is inconclusive.  At desk
    scale an inverse-Ackermann factor is indistinguishable from a constant,
    so apparently-linear is a statement about the computed window only.
    """

    pattern_key: str
    values: tuple[tuple[int, int], ...]
    increments: tuple[int, ...]
    classification: str

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "key": self.pattern_key,
            "values": [[n, v] for n, v in self.values],
            "increments": list(self.increments),
            "classification": self.classification,
        }


def classify_increments(increments: tuple[int, ...], all_exact: bool) -> str:
    """Trend rule shared by growth reports.

    Uses the last three increments; with only two available (n_max = 3) the
    equality rule still applies but strict growth cannot be certified.
    """
    if not all_exact:
        return "inconclusive"
    tail = increments[-3:]
    if len(tail) >= 2 and len(set(tail)) == 1:
        return "apparently-linear"
    if len(tail) == 3 and tail[0] < tail[1] < tail[2]:
        return "superlinear-suspect"
    return "inconclusive"

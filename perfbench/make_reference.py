"""Regenerate perfbench/reference.json: oracle values that take too long to
recompute in every run.  They come from tests/oracles.py alone, never from
mnl's engines.

    python3 perfbench/make_reference.py      # about 20 s on 2 cores
"""
from __future__ import annotations

import json
import sys

from common import bootstrap, load_oracles

bootstrap()

from ladder import GRAPHS, REFERENCE  # noqa: E402
from mnl.ordered_graphs import parse_ordered_graph  # noqa: E402


def main() -> int:
    oracles = load_oracles()
    doc = {
        "naive_og_ex": {
            g: {"7": oracles.naive_og_ex(7, parse_ordered_graph(g))} for g in GRAPHS
        }
    }
    REFERENCE.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())

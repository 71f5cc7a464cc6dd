"""One set-up, in a fresh process: import mnl, build a workload's inputs
from the seed and write them to OUT/plan.json (the cli-cache inputs include
the seeded cache file).  run.py times this whole process.

    python3 perfbench/setup_probe.py WORKLOAD SEED OUT
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

from common import bootstrap

bootstrap()

import mnl  # noqa: E402,F401
import mnl.cli  # noqa: E402,F401
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    name, seed, out = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    plan = WORKLOADS[name].build_inputs(seed, out)
    (out / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

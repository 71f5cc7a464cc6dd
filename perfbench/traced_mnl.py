"""Run one mnl command with its layers traced, as the traced cli-cache run
does for every command of its session.

    python3 perfbench/traced_mnl.py SPANS.json <mnl arguments>

The spans and totals go to SPANS.json; standard output and the exit status
are mnl's own.
"""
from __future__ import annotations

import json
import sys

from common import bootstrap

bootstrap()

import layers  # noqa: E402
import mnl.cli  # noqa: E402
from tracer import Tracer  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    layers.install(tracer)
    try:
        return mnl.cli.main(argv)
    finally:
        tracer.restore()
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(tracer.to_json(), fh)


if __name__ == "__main__":
    sys.exit(main())

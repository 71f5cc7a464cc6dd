"""enum-stream: the candidate streams of `mnl enum`, run in-process through
mnl.cli.main with standard output captured.

Before each stream the pipeline's memoized tables are emptied, so every
stream pays for them as a fresh `mnl enum` process would.  The seed only
sets the order of the streams.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path
from time import perf_counter

from common import KNOWN_SEVEN, LAMBDA_3, Op, Round, letters, load_oracles, median, pattern01

# The sequence stream takes about 0.3 s, so a round runs it three times to
# keep its share of the round's timing noise down.
STREAMS = (
    ("matrix", ["enum", "matrix", "--k", "2"]),
    ("matrix", ["enum", "matrix", "--k", "3", "--col-max", "7"]),
    ("og", ["enum", "og", "--k", "2"]),
) + (("seq", ["enum", "seq", "--k", "3"]),) * 3
ABABA = (1, 2, 1, 2, 1)


def build_inputs(seed: int, workdir: Path) -> dict:
    import mnl.cli

    parser = mnl.cli.build_parser()
    streams = [[setting, argv] for setting, argv in STREAMS]
    for _, argv in streams:
        parser.parse_args(argv)  # reject a malformed stream before any timing
    random.Random(seed).shuffle(streams)
    return {"streams": streams, "cache": str(workdir / "unused-cache.jsonl")}


def _clear_memo() -> None:
    import mnl.pipeline

    for value in vars(mnl.pipeline).values():
        if callable(getattr(value, "cache_clear", None)):
            value.cache_clear()


def run_round(plan: dict, tracer=None, index: int = 0) -> Round:
    import mnl.cli

    rnd = Round(wall_s=0.0)
    start = perf_counter()
    for position, (setting, argv) in enumerate(plan["streams"]):
        _clear_memo()
        buf = io.StringIO()
        label = " ".join(argv)
        t0 = perf_counter()
        with contextlib.redirect_stdout(buf):
            if tracer is None:
                rc = mnl.cli.main(argv + ["--cache", plan["cache"]])
            else:
                with tracer.region(f"stream.{setting}"):
                    rc = mnl.cli.main(argv + ["--cache", plan["cache"]])
        seconds = perf_counter() - t0
        rnd.ops.append(Op(setting, "stream", label, seconds, rc == 0))
        text = buf.getvalue()
        # Later rounds keep only a digest, so memory does not grow with the run.
        rnd.outputs[position, label] = (rc, hashlib.sha256(text.encode()).hexdigest(), text if index == 0 else None)
    rnd.wall_s = perf_counter() - start
    return rnd


def _matrix_errors(label: str, k: int, col_max: int, docs: list[dict], oracles) -> list[str]:
    errors = []
    known = {m: pattern01(m) for m in KNOWN_SEVEN}
    lo, hi = -(-(k + 2) // 4), min(4 * k - 2, col_max)
    patterns = [doc["pattern"] for doc in docs]
    if len(set(patterns)) != len(patterns):
        errors.append(f"{label}: a pattern is emitted twice")
    for text in patterns:
        rows = text.split("/")
        cols = len(rows[0])
        ones = text.count("1")
        if len(rows) != k or any("1" not in r for r in rows) or any(
            all(r[c] == "0" for r in rows) for c in range(cols)
        ):
            errors.append(f"{label}: {text} has a zero line or the wrong row count")
        if not lo <= cols <= hi or not k <= ones <= 5 * k - 3:
            errors.append(f"{label}: {text} has {cols} columns and {ones} ones, outside the allowed ranges")
        p = pattern01(text)
        hits = [m for m, q in known.items() if m != text and oracles.naive_contains(p, q)]
        if hits:
            errors.append(f"{label}: {text} strictly contains the known matrix {hits[0]}")
    if k == 2:
        named = {doc["pattern"] for doc in docs if doc["verdict"] == "known-mnl"}
        if named != KNOWN_SEVEN:
            errors.append(f"{label}: known-mnl set is {sorted(named)}, not the seven known matrices")
    return errors


def _og_errors(label: str, k: int, docs: list[dict]) -> list[str]:
    errors = []
    graphs = [doc["pattern"] for doc in docs]
    if len(set(graphs)) != len(graphs):
        errors.append(f"{label}: a graph is emitted twice")
    for text in graphs:
        head, *lines = text.split(";")
        n = int(head[2:])
        edges = [tuple(int(x) for x in line.split()) for line in lines]
        degree = [0] * (n + 1)
        for u, v in edges:
            degree[u] += 1
            degree[v] += 1
        k22 = n == 4 and len(edges) == 4 and all(d == 2 for d in degree[1:])
        if len(edges) > 2 * n - 2:
            errors.append(f"{label}: {text} has more than 2n-2 edges")
        # Some 2-colouring with a k-vertex part must meet the part-ratio and
        # bipartite edge caps, as the realizing bipartition has to.
        fits = False
        for mask in range(1 << (n - 1)):
            part = {1} | {v for v in range(2, n + 1) if mask >> (v - 2) & 1}
            if any((u in part) == (v in part) for u, v in edges):
                continue
            small, large = sorted((len(part), n - len(part)))
            if k not in (small, large) or large > 4 * small - 2:
                continue
            if len(edges) <= n - 1 or k22:
                fits = True
                break
        if not fits:
            errors.append(f"{label}: {text} has no bipartition within the part-ratio and edge caps")
    return errors


def _seq_errors(label: str, k: int, docs: list[dict], oracles) -> list[str]:
    errors = []
    cap = LAMBDA_3[k]
    words = [doc["sequence"] for doc in docs]
    if len(set(words)) != len(words):
        errors.append(f"{label}: a word is emitted twice")
    for word in words:
        seen = []
        for ch in word:
            if ch not in seen:
                seen.append(ch)
        runs = [1]
        for a, b in zip(word, word[1:]):
            if a == b:
                runs[-1] += 1
            else:
                runs.append(1)
        if "".join(seen) != "abcdefghijklmnopqrstuvwxyz"[: len(seen)] or len(seen) != k:
            errors.append(f"{label}: {word} is not normalized over exactly {k} letters")
        if max(runs) > 2 or len(runs) > cap:
            errors.append(f"{label}: {word} has a run over 2 or more than {cap} runs")
        if oracles.naive_seq_contains(letters(word), ABABA):
            errors.append(f"{label}: {word} contains ababa")
    return errors


def check(plan: dict, rounds: list[Round]) -> list[str]:
    oracles = load_oracles()
    errors = []
    seen: dict[str, set] = {}
    for rnd in rounds:
        for (_, label), (rc, digest, _) in rnd.outputs.items():
            seen.setdefault(label, set()).add((rc, digest))
    errors += [f"{label}: output differs between runs of the stream" for label, s in seen.items() if len(s) > 1]
    first = {label: (rc, text) for (_, label), (rc, _, text) in rounds[0].outputs.items()}
    for label, (rc, text) in first.items():
        if rc != 0:
            errors.append(f"{label}: exit status {rc}")
            continue
        docs = [json.loads(line) for line in text.splitlines()]
        argv = label.split()
        k = int(argv[argv.index("--k") + 1])
        if argv[1] == "matrix":
            col_max = int(argv[argv.index("--col-max") + 1]) if "--col-max" in argv else 4 * k - 2
            errors += _matrix_errors(label, k, col_max, docs, oracles)
        elif argv[1] == "og":
            errors += _og_errors(label, k, docs)
        else:
            errors += _seq_errors(label, k, docs, oracles)
    return errors


def layer_metrics(plan: dict, untraced: Round, traced: Round, tracer) -> dict[str, float]:
    seq = [(op.seconds, rc_digest_text[2]) for op, rc_digest_text in zip(untraced.ops, untraced.outputs.values())
           if op.setting == "seq"]
    words = len(seq[0][1].splitlines())
    return {"sequences.candidates_per_s": words / median(seconds for seconds, _ in seq)}

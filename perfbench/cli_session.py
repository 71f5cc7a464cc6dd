"""cli-cache: a sequential session of real `mnl` processes against a seeded
JSON-lines cache of about 10^4 lines.

Each round starts from the same seeded cache file and runs, in a seeded
order: 12 reads answered from stored exact records (4 each of `ex`,
`seq-ex` and `og-ex`), 6 writes (misses at small n that compute and
append, 2 per command) each followed by a read-back, one write placed
right after a torn last line, and finally `mnl compact`.

The torn-line write fails on the program as it stands: CacheStore appends
without first ending the torn line, so the new record is glued onto it and
lost, and the read-back misses.  It is counted as a failed operation, once
per round, so the failed share is the same in every run.
"""
from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from common import (
    CROSSING_PAIR,
    K22_PARTS_FIRST,
    LAMBDA_3,
    ROOT,
    ZARANKIEWICZ_2,
    Op,
    Round,
    child_env,
    dihedral,
    letters,
    load_oracles,
    median,
    pattern01,
)

CACHE_LINES = 10_000
ROUND_SPECS = 32  # distinct seeded rounds; a longer run cycles through them
BUDGET = "100000"  # every command here needs far fewer nodes; a miss stops fast
TIMEOUT_S = 60
TRACED_MNL = Path(__file__).resolve().parent / "traced_mnl.py"
CHERRY = "n=3;1 3;2 3"

SETTING = {"ex": "matrix", "seq-ex": "seq", "og-ex": "og", "compact": "cache"}
FLAG = {"ex": "--pattern", "seq-ex": "--sequence", "og-ex": "--graph"}
KIND = {"ex": "matrix", "seq-ex": "sequence", "og-ex": "ordered-graph"}
ENGINE = {"matrix": "extremal", "sequence": "sequences", "ordered-graph": "ordered_graphs"}

# Stored exact records under real keys, with classical values.
READS = (
    [("ex", "11/11", n, v) for n, v in ZARANKIEWICZ_2.items()]
    + [("seq-ex", "ababa", n, v) for n, v in LAMBDA_3.items()]
    + [("og-ex", CROSSING_PAIR, n, 2 * n - 3) for n in range(2, 10)]
)
# Small instances the seeded cache does not hold.
WRITES = {
    "ex": [(p, n) for p in ("101/011", "1010/0101", "0010/0101") for n in (1, 2, 3)],
    "seq-ex": [(s, n) for s in ("abab", "abcacbc") for n in (2, 3, 4)],
    "og-ex": [(g, n) for g in (K22_PARTS_FIRST, CHERRY) for n in (4, 5, 6)],
}


def _filler(rng: random.Random, ExRecord):
    kind = rng.choice(("matrix", "sequence", "ordered-graph"))
    n = rng.randint(1, 8)
    if kind == "matrix":
        cols = rng.randint(2, 5)
        bits = rng.randint(1, (1 << (3 * cols)) - 1)
        key = "/".join(
            "".join("1" if bits >> (r * cols + c) & 1 else "0" for c in range(cols)) for r in range(3)
        )
        value = rng.randint(0, n * n)
    elif kind == "sequence":
        names: dict[str, str] = {}
        word = ""
        for _ in range(rng.randint(5, 9)):
            ch = rng.choice("abcde")
            if ch not in names:
                names[ch] = "abcde"[len(names)]
            word += names[ch]
        key, value = word, rng.randint(0, 4 * n)
    else:
        verts = rng.randint(5, 6)
        slots = [(u, v) for u in range(1, verts + 1) for v in range(u + 1, verts + 1)]
        edges = sorted(rng.sample(slots, rng.randint(1, 4)))
        key = ";".join([f"n={verts}"] + [f"{u} {v}" for u, v in edges])
        value = rng.randint(0, n * (n - 1) // 2)
    return ExRecord(key, kind, n, value, rng.random() < 0.7, rng.randint(0, 10**6), rng.randint(0, 10**5))


def build_inputs(seed: int, workdir: Path) -> dict:
    from mnl.ordered_graphs import og_key, parse_ordered_graph
    from mnl.patterns import canonical_key, parse_pattern
    from mnl.records import ExRecord
    from mnl.sequences import format_sequence, parse_sequence

    key_of = {
        "ex": lambda t: canonical_key(parse_pattern(t)),
        "seq-ex": lambda t: format_sequence(parse_sequence(t)),
        "og-ex": lambda t: og_key(parse_ordered_graph(t)),
    }
    rng = random.Random(seed)
    real = [ExRecord(key_of[cmd](text), KIND[cmd], n, value, True, rng.randint(1, 10**6), rng.randint(1, 10**5))
            for cmd, text, n, value in READS]
    reserved = {(key_of[cmd](text), KIND[cmd]) for cmd, text, _, _ in READS}
    reserved |= {(key_of[cmd](text), KIND[cmd]) for cmd, pool in WRITES.items() for text, _ in pool}
    lines = []
    while len(lines) < CACHE_LINES - len(real):
        rec = _filler(rng, ExRecord)
        if (rec.pattern_key, rec.kind) not in reserved:
            lines.append(rec)
    for rec in real:
        lines.insert(rng.randrange(len(lines) + 1), rec)
    master = workdir / "seeded-cache.jsonl"
    with open(master, "w", encoding="utf-8") as fh:
        for rec in lines:
            fh.write(json.dumps(rec.to_json_dict()) + "\n")
    triples = len({(r.pattern_key, r.kind, r.n) for r in lines})

    rounds = []
    for _ in range(ROUND_SPECS):
        steps = []
        for cmd in FLAG:
            pool = [r for r in READS if r[0] == cmd]
            steps += [["read", cmd, text, n, value] for _, text, n, value in rng.sample(pool, 4)]
        matrix = rng.sample(WRITES["ex"], 3)
        steps += [["write", "ex", text, n, None] for text, n in matrix[:2]]
        steps += [["write", cmd, text, n, None] for cmd in ("seq-ex", "og-ex") for text, n in rng.sample(WRITES[cmd], 2)]
        torn_rec = json.dumps(_filler(rng, ExRecord).to_json_dict())
        steps.append(["torn", "ex", matrix[2][0], matrix[2][1], torn_rec[: len(torn_rec) // 2]])
        rng.shuffle(steps)
        steps.append(["compact", "compact", None, None, None])
        rounds.append(steps)
    return {
        "master": str(master),
        "cache": str(workdir / "cache.jsonl"),
        "master_lines": len(lines),
        "master_triples": triples,
        "rounds": rounds,
        "spans_dir": str(workdir),
    }


def _argv(cmd: str, text, n) -> list[str]:
    if cmd == "compact":
        return ["compact"]
    return [cmd, FLAG[cmd], text, "--n", str(n), "--budget", BUDGET]


class _Session:
    def __init__(self, plan: dict, tracer) -> None:
        self.plan = plan
        self.tracer = tracer
        self.env = child_env()
        self.count = 0

    def run(self, argv: list[str]) -> tuple[int, dict | None, float]:
        argv = argv + ["--cache", self.plan["cache"]]
        self.count += 1
        if self.tracer is None:
            command = [sys.executable, "-m", "mnl.cli", *argv]
        else:
            spans = Path(self.plan["spans_dir"]) / f"spans-{self.count}.json"
            command = [sys.executable, str(TRACED_MNL), str(spans), *argv]
        t0 = perf_counter()
        proc = subprocess.run(command, cwd=ROOT, env=self.env, capture_output=True,
                              text=True, timeout=TIMEOUT_S)
        seconds = perf_counter() - t0
        if self.tracer is not None:
            self.tracer.merge(json.loads(spans.read_text(encoding="utf-8")), f"p{self.count}:")
            spans.unlink()
        lines = proc.stdout.strip().splitlines()
        doc = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        return proc.returncode, doc, seconds


def run_round(plan: dict, tracer=None, index: int = 0) -> Round:
    shutil.copyfile(plan["master"], plan["cache"])
    steps = plan["rounds"][index % len(plan["rounds"])]
    session = _Session(plan, tracer)
    rnd = Round(wall_s=0.0)
    results = []
    start = perf_counter()
    for step, cmd, text, n, extra in steps:
        argv = _argv(cmd, text, n)
        setting = SETTING[cmd]
        if step == "torn":
            with open(plan["cache"], "a", encoding="utf-8") as fh:
                fh.write(extra)
        rc, doc, seconds = session.run(argv)
        entry = {"step": step, "cmd": cmd, "text": text, "n": n, "expected": extra,
                 "rc": rc, "doc": doc}
        if step in ("write", "torn"):
            back_rc, back, back_s = session.run(argv)
            entry.update(back_rc=back_rc, back=back)
            served = back_rc == 0 and back is not None and back.get("source") == "cache"
            rnd.ops.append(Op(setting, "write", " ".join(argv), seconds, rc == 0 and served))
            if step == "write":
                rnd.ops.append(Op(setting, "read", " ".join(argv), back_s, back_rc == 0))
        else:
            rnd.ops.append(Op(setting, "compact" if cmd == "compact" else "read", " ".join(argv), seconds, rc == 0))
        for d in (doc, entry.get("back")):
            if d is not None and d.get("source") == "computed":
                kind = ENGINE[d["kind"]]
                rnd.nodes[kind] = rnd.nodes.get(kind, 0) + d["nodes_explored"]
                rnd.engine_s[kind] = rnd.engine_s.get(kind, 0.0) + d["elapsed_ms"] / 1000
        results.append(entry)
    rnd.wall_s = perf_counter() - start
    rnd.outputs = {"index": index, "results": results}
    return rnd


def check(plan: dict, rounds: list[Round]) -> list[str]:
    from mnl.ordered_graphs import parse_ordered_graph

    oracles = load_oracles()
    memo: dict = {}

    def oracle(cmd, text, n):
        if (cmd, text, n) not in memo:
            if cmd == "ex":
                memo[cmd, text, n] = oracles.naive_ex(n, pattern01(text))
            elif cmd == "seq-ex":
                memo[cmd, text, n] = oracles.naive_seq_ex(letters(text), n)
            else:
                memo[cmd, text, n] = oracles.naive_og_ex(n, parse_ordered_graph(text))
        return memo[cmd, text, n]

    def value_errors(where, doc, want, source):
        if doc is None:
            return [f"{where}: no result"]
        out = []
        if doc.get("value") != want or doc.get("exact") is not True:
            out.append(f"{where}: got {doc.get('value')} exact={doc.get('exact')}, want exact {want}")
        if source is not None and doc.get("source") != source:
            out.append(f"{where}: source {doc.get('source')!r}, want {source!r}")
        return out

    errors = []
    for rnd in rounds:
        written = set()
        for e in rnd.outputs["results"]:
            where = f"round spec {rnd.outputs['index']}: {e['cmd']} {e['text']} n={e['n']}"
            if e["step"] == "read":
                errors += value_errors(where, e["doc"], e["expected"], "cache")
            elif e["step"] == "compact":
                want = plan["master_triples"] + len(written)
                if e["doc"] is None or e["doc"].get("kept") != want:
                    errors.append(f"{where}: compact kept {e['doc']}, want {want}")
            else:
                want = oracle(e["cmd"], e["text"], e["n"])
                errors += value_errors(where, e["doc"], want, "computed")
                # A lost torn-line write is the counted failure, not a wrong answer.
                errors += value_errors(where + " read-back", e["back"], want,
                                       "cache" if e["step"] == "write" else None)
                text = min(dihedral(e["text"])) if e["cmd"] == "ex" else e["text"]
                written.add((e["cmd"], text, e["n"]))
    return errors


def layer_metrics(plan: dict, untraced: Round, traced: Round, tracer) -> dict[str, float]:
    out = {
        "cache.lines": plan["master_lines"],
        "cache.get_ms": median(tracer.durations("cache.get")) * 1000,
        "cache.put_ms": median(tracer.durations("cache.put")) * 1000,
        "cache.compact_s": median(tracer.durations("cache.compact")),
        "cli.handler_ms": median(tracer.durations("cli.main")) * 1000,
    }
    for kind in ("extremal", "sequences", "ordered_graphs"):
        out[f"{kind}.nodes"] = traced.nodes.get(kind, 0)
        seconds = untraced.engine_s.get(kind, 0.0)
        out[f"{kind}.nodes_per_s"] = untraced.nodes.get(kind, 0) / seconds if seconds else 0.0
    return out

"""Benchmark for mnl: exact solves, candidate streams and the cached CLI.

    python3 perfbench/run.py --workload exact-ladder --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One process runs one workload (`all` runs each in a fresh child process,
one after another): a closed loop with a single client and no extra
threads.  It sets up the inputs from the seed several times in fresh
processes, runs whole rounds of the workload until --seconds have passed,
checks every output against computations made apart from the program, and
prints the metrics named in BENCHMARK.json.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the exit status is 1 when a check fails.

With --trace 0 the end-to-end metrics are measured, untraced.  With
--trace 1 the run repeats one round untraced and then traced, with spans
recorded around the calls into each of mnl's modules, and reports the
per-layer metrics, the tracing overhead, and the spans themselves in
.perfbench_work/trace-<workload>-seed<seed>.jsonl.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from common import ROOT, WORK, bootstrap, child_env, median, percentile

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 7
IMPORT_REPEATS = 7
CHILD_TIMEOUT_S = 175
NAMES = ("exact-ladder", "enum-stream", "cli-cache")

# The gated metric names are the same on every workload; these are the
# names each one has on its own workload.
ALIASES = {
    "exact-ladder": {"matrix_s": "matrix_solve_s", "seq_s": "seq_solve_s", "og_s": "og_solve_s"},
    "enum-stream": {"matrix_s": "matrix_enum_s", "seq_s": "seq_enum_s", "og_s": "og_enum_s"},
    "cli-cache": {},
}


def parse_args() -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args()


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def timed_run(command: list[str]) -> float:
    t0 = perf_counter()
    subprocess.run(command, cwd=ROOT, env=child_env(), check=True, capture_output=True, timeout=120)
    return perf_counter() - t0


def measure_setup(name: str, seed: int, workdir: Path) -> tuple[float, dict]:
    """Median wall time of fresh processes that import mnl and build the
    inputs; the last one's inputs are the ones the run uses."""
    command = [sys.executable, str(HERE / "setup_probe.py"), name, str(seed), str(workdir)]
    times = [timed_run(command) for _ in range(SETUP_REPEATS)]
    return median(times), json.loads((workdir / "plan.json").read_text(encoding="utf-8"))


def import_ms() -> float:
    """Fresh `import mnl.cli` minus a bare interpreter start, in ms."""
    bare, full = [], []
    for _ in range(IMPORT_REPEATS):
        bare.append(timed_run([sys.executable, "-c", "pass"]))
        full.append(timed_run([sys.executable, "-c", "import mnl.cli"]))
    return (median(full) - median(bare)) * 1000


def peak_rss_mb(name: str) -> float:
    # cli-cache does its mnl work in child processes; the others in this one.
    who = resource.RUSAGE_CHILDREN if name == "cli-cache" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def end_to_end(name: str, rounds, setup_s: float, rss_mb: float) -> tuple[dict, list[str]]:
    values = {"setup_s": setup_s, "peak_rss_mb": rss_mb}
    for setting in ("matrix", "seq", "og"):
        values[f"{setting}_s"] = median(
            sum(op.seconds for op in rnd.ops if op.setting == setting) for rnd in rounds
        )
    latencies = [op.seconds * 1000 for rnd in rounds for op in rnd.ops]
    values["op_p50_ms"] = median(latencies)
    notes = [f"rounds: {len(rounds)}, operations: {len(latencies)}"]
    for metric, alias in ALIASES[name].items():
        notes.append(f"{alias} = {values[metric]:.4f} s")
    if name == "cli-cache":
        for cls in ("read", "write"):
            ms = [op.seconds * 1000 for rnd in rounds for op in rnd.ops if op.cls == cls]
            notes.append(f"cli_{cls}_p50_ms = {median(ms):.2f} ms (p90 {percentile(ms, 90):.2f} ms, n={len(ms)})")
    return values, notes


def layer_metrics(module, plan, untraced, traced, tracer) -> dict[str, float]:
    t, c = tracer, tracer.counters
    out = {
        "cli.import_ms": import_ms(),
        "pipeline.screened": c["pipeline.screened"],
        "pipeline.emitted": c["pipeline.emitted"],
        "pipeline.emit_ratio": c["pipeline.emitted"] / c["pipeline.screened"] if c["pipeline.screened"] else 0.0,
        "pipeline.filter_self_s": t.self_s("pipeline.structural_filter"),
        "pipeline.construction_s": t.total_s("pipeline.construction_patterns"),
        "pipeline.wasted_contains": c["pipeline.wasted_contains"],
        "pipeline.og_screened": t.calls("pipeline.og_structural_filter"),
        "pipeline.og_filter_self_s": t.self_s("pipeline.og_structural_filter"),
        "ordered_graphs.go_family_s": t.total_s("ordered_graphs.go_family"),
        "cache.hits": c["cache.hits"],
        "cache.misses": c["cache.misses"],
    }
    for span in (
        "patterns.embed",
        "patterns.contains",
        "patterns.canonical_key",
        "sequences.seq_contains",
        "ordered_graphs.og_contains",
        "ordered_graphs.realizing_bipartitions",
    ):
        out[f"{span}_calls"] = t.calls(span)
        out[f"{span}_s"] = t.total_s(span)
    for kind in ("extremal", "sequences", "ordered_graphs"):
        out[f"{kind}.nodes"] = c[f"{kind}.nodes"]
        seconds = c[f"{kind}.engine_s"]
        out[f"{kind}.nodes_per_s"] = c[f"{kind}.nodes"] / seconds if seconds else 0.0
    out.update(module.layer_metrics(plan, untraced, traced, tracer))
    return out


def run_workload(args: argparse.Namespace) -> int:
    from workloads import WORKLOADS

    module = WORKLOADS[args.workload]
    metric_units = {m["name"]: m["unit"] for m in spec()["per_layer" if args.trace else "end_to_end"]}
    workdir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_s, plan = measure_setup(args.workload, args.seed, workdir)
        if args.trace:
            import layers
            from tracer import Tracer

            # Pairs of the same round, untraced then traced, while they fit
            # in --seconds; the layers come from the first traced round and
            # the overhead is the median over the pairs.
            pairs = []
            start = perf_counter()
            while not pairs or perf_counter() - start + pairs[-1][0].wall_s + pairs[-1][1].wall_s <= args.seconds:
                untraced = module.run_round(plan, None, 0)
                tracer = Tracer()
                layers.install(tracer)
                try:
                    traced = module.run_round(plan, tracer, 0)
                finally:
                    tracer.restore()
                pairs.append((untraced, traced, tracer))
            untraced, traced, tracer = pairs[0]
            rounds = [rnd for pair in pairs for rnd in pair[:2]]
            tracer.dump(WORK / f"trace-{args.workload}-seed{args.seed}.jsonl")
            values = layer_metrics(module, plan, untraced, traced, tracer)
            values["trace.overhead_pct"] = median((t.wall_s / u.wall_s - 1) * 100 for u, t, _ in pairs)
            notes = [f"tracing overhead: {values['trace.overhead_pct']:.1f}% of the untraced round, "
                     f"median of {len(pairs)} pairs"]
            errors = module.check(plan, rounds)
            errors += [f"traced node counts {t.nodes} differ from untraced {u.nodes}"
                       for u, t, _ in pairs if u.nodes != t.nodes]
        else:
            # Whole rounds only, and no round that would end past --seconds
            # by the last round's duration (except the first).
            rounds = []
            start = perf_counter()
            while not rounds or perf_counter() - start + rounds[-1].wall_s <= args.seconds:
                rounds.append(module.run_round(plan, None, len(rounds)))
            rss = peak_rss_mb(args.workload)
            values, notes = end_to_end(args.workload, rounds, setup_s, rss)
            errors = module.check(plan, rounds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in notes:
        print(line)
    for name, unit in metric_units.items():
        print(f"{name} = {values.get(name, 0)} {unit}")
    for error in errors:
        print(f"CHECK FAILED: {error}")
    attempted = sum(len(rnd.ops) for rnd in rounds)
    failed = sum(not op.ok for rnd in rounds for op in rnd.ops)
    for rnd in rounds:
        for op in rnd.ops:
            if not op.ok:
                print(f"failed operation: {op.label}")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values.get(name, 0), "unit": unit} for name, unit in metric_units.items()},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in NAMES:
        command = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            status = 1
        try:
            result = json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            result = None
        if result is None:
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, doc in result["metrics"].items():
            combined["metrics"][f"{name}:{metric}"] = doc
    print(json.dumps(combined))
    return status


def main() -> int:
    args = parse_args()
    bootstrap()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

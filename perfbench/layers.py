"""Where the traced run records spans: the names mnl's modules look up when
one layer calls into another.

Rebinding ``mnl.pipeline.contains`` catches the pipeline's containment
checks but not the matrix engine's, which looks up ``mnl.extremal._embed``;
that is how one kernel is measured separately per caller.
"""
from __future__ import annotations

from tracer import Tracer

# Checks that structural_filter runs before its strict-2-row containment
# check; a contains call on a pattern that already failed one is wasted.
_EARLIER_CHECKS = ("zero-lines", "column-range", "ones-range", "leftmost-reduction", "scan-word")


def install(tracer: Tracer) -> None:
    import mnl.cache
    import mnl.cli
    import mnl.extremal
    import mnl.ordered_graphs
    import mnl.pipeline

    counters = tracer.counters

    tracer.wrap_leaf(mnl.extremal, "_embed", "patterns.embed")
    tracer.wrap_leaf(mnl.pipeline, "contains", "patterns.contains")
    tracer.wrap_leaf(mnl.pipeline, "seq_contains", "sequences.seq_contains")
    tracer.wrap_leaf(mnl.pipeline, "og_contains", "ordered_graphs.og_contains")
    tracer.wrap_leaf(mnl.ordered_graphs, "canonical_key", "patterns.canonical_key")

    def screened(frame, args, report, seconds):
        counters["pipeline.screened"] += 1
        if report.verdict != "rejected":
            counters["pipeline.emitted"] += 1
        if any(c.status == "fail" for c in report.checks if c.name in _EARLIER_CHECKS):
            counters["pipeline.wasted_contains"] += frame.child_calls.get("patterns.contains", 0)

    tracer.wrap_span(mnl.pipeline, "structural_filter", "pipeline.structural_filter", screened)
    tracer.wrap_span(mnl.pipeline, "og_structural_filter", "pipeline.og_structural_filter")

    # construction_patterns is a generator that its only caller drains into
    # a set at once, so draining it inside the span changes nothing.
    construction = mnl.pipeline.construction_patterns
    tracer.rebind(mnl.pipeline, "construction_patterns", construction,
                   lambda k, num_cols: iter(list(construction(k, num_cols))))
    tracer.wrap_span(mnl.pipeline, "construction_patterns", "pipeline.construction_patterns")

    tracer.wrap_span(mnl.pipeline, "go_family", "ordered_graphs.go_family")
    tracer.wrap_span(mnl.pipeline, "realizing_bipartitions", "ordered_graphs.realizing_bipartitions")
    tracer.wrap_span(mnl.ordered_graphs, "realizing_bipartitions", "ordered_graphs.realizing_bipartitions")

    def engine(kind):
        def record(frame, args, rec, seconds):
            counters[f"{kind}.nodes"] += rec.nodes_explored
            counters[f"{kind}.engine_s"] += seconds
        return record

    # Engines the CLI runs: the default run cap of `enum seq` and the
    # computing side of `ex`, `seq-ex` and `og-ex`.
    tracer.wrap_span(mnl.cli, "ex_branch_bound", "extremal.ex_branch_bound", engine("extremal"))
    tracer.wrap_span(mnl.cli, "seq_ex_exact", "sequences.seq_ex_exact", engine("sequences"))
    tracer.wrap_span(mnl.cli, "og_ex_exact", "ordered_graphs.og_ex_exact", engine("ordered_graphs"))

    def got(frame, args, rec, seconds):
        # put() looks the key up first; only top-level lookups answer a command
        if tracer.current_name() == "cache.put":
            return
        counters["cache.hits" if rec is not None and rec.exact else "cache.misses"] += 1

    store = mnl.cache.CacheStore
    tracer.wrap_span(store, "get", "cache.get", got)
    tracer.wrap_span(store, "put", "cache.put")
    tracer.wrap_span(store, "compact", "cache.compact")
    tracer.wrap_span(mnl.cli, "main", "cli.main")

"""Every metric the benchmark reports, with its unit, and the reduction of a
traced run's spans and counts to the per-layer metrics.

``BENCHMARK.json`` at the repository root lists the same names and units;
``test_smoke.py`` checks that the two agree and that every run emits each
one.
"""

from __future__ import annotations

from harness import ratio
from tracer import Tracer

END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "ok_rate": "fraction",
    "slo_met_rate": "fraction",
    "pi_ratio": "ratio",
    "peak_rss_mb": "MB",
}

# Self time per op (seconds, averaged over every op of the traced pass)
# for these span names.
SELF_TIME = {
    "core.polish_s": "core.polish",
    "core.dfs_approx_s": "core.dfs_approx",
    "graphs.line_graph_s": "graphs.line_graph",
    "graphs.dfs_tree_s": "graphs.dfs_tree",
    "relations.page_graph_s": "relations.page_graph",
    "joins.build_s": "joins.build",
    "graphs.components_s": "graphs.components",
    "core.equijoin_s": "core.equijoin",
    "core.scheme_s": "core.scheme",
    "core.solve_s": "core.solve",
    "core.exact_s": "core.exact",
    "joins.trace_s": "joins.trace",
    "joins.algo_s": "joins.algo",
    "joins.multiway.join_s": "joins.multiway.join",
    "engine.plan_s": "engine.plan",
    "parallel.fingerprint_s": "parallel.fingerprint",
    "server.decode_s": "server.decode",
    "server.dispatch_s": "server.dispatch",
    "server.encode_s": "server.encode",
}

# Counts per op.
PER_OP_COUNT = {
    "core.jumps_removed": "core.jumps_removed",
    "joins.edges": "joins.edges",
    "graphs.components": "graphs.components",
    "joins.pairs": "joins.pairs",
    "joins.multiway.seeks": "joins.multiway.seeks",
}

MODULES = ("relations", "joins", "joins.multiway", "graphs", "core", "engine", "parallel", "server")

PER_LAYER: dict[str, str] = {
    **{name: "s/op" for name in SELF_TIME},
    **{name: "count/op" for name in PER_OP_COUNT},
    "core.polish_useful_ratio": "ratio",
    "relations.fetches_per_pair": "ratio",
    "joins.multiway.agm_ratio": "ratio",
    "engine.q_error_p90": "ratio",
    "parallel.cache_hit_rate": "fraction",
    "server.service_p50_ms": "ms",
    "server.wait_ms_p50": "ms",
    "server.rejected": "count",
    "server.inflight_max": "count",
    "loadgen.late_ms_p99": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.coverage": "fraction",
    **{f"share.{module}": "fraction" for module in MODULES},
}


def module_of(span_name: str) -> str:
    """``joins.multiway.join`` -> ``joins.multiway``; ``core.polish`` -> ``core``."""
    return span_name.rsplit(".", 1)[0]


def layer_metrics(
    tracer: Tracer,
    ops: set,
    op_seconds: float,
    covered_seconds: float,
    overhead_ratio: float,
    extra: dict[str, float],
) -> dict[str, float]:
    """Per-layer values for one traced pass.

    ``ops`` are the op ids of the pass, ``op_seconds`` their summed op
    time and ``covered_seconds`` the part of it inside layer spans.
    ``extra`` carries the values measured outside the spans (fetch
    ratios, q-errors, server figures); a layer the workload never
    reaches reads 0.
    """
    n = max(1, len(ops))
    self_times = tracer.self_times(ops)
    counts = tracer.counts
    values: dict[str, float] = {}
    for metric, span in SELF_TIME.items():
        values[metric] = self_times.get(span, 0.0) / n
    for metric, counter in PER_OP_COUNT.items():
        values[metric] = counts.get(counter, 0.0) / n
    values["core.polish_useful_ratio"] = ratio(
        counts.get("core.polish_useful", 0.0), counts.get("core.polish_calls", 0.0)
    )
    values["joins.multiway.agm_ratio"] = ratio(
        extra.get("intermediates", 0.0), extra.get("agm", 0.0)
    )
    values["relations.fetches_per_pair"] = ratio(
        extra.get("page_fetches", 0.0), extra.get("page_pairs", 0.0)
    )
    values["engine.q_error_p90"] = extra.get("q_error_p90", 0.0)
    values["parallel.cache_hit_rate"] = ratio(
        counts.get("parallel.cache_hits", 0.0),
        counts.get("parallel.cache_hits", 0.0) + counts.get("parallel.cache_misses", 0.0),
    )
    for metric in ("server.service_p50_ms", "server.wait_ms_p50", "loadgen.late_ms_p99"):
        values[metric] = extra.get(metric, 0.0)
    values["server.rejected"] = counts.get("server.rejected", 0.0)
    values["server.inflight_max"] = tracer.peaks.get("server.inflight_max", 0.0)
    values["trace.overhead_ratio"] = overhead_ratio
    values["trace.coverage"] = ratio(covered_seconds, op_seconds)
    shares = dict.fromkeys(MODULES, 0.0)
    for span, seconds in self_times.items():
        module = module_of(span)
        # A yield is time other requests ran, not work of this layer.
        if module in shares and span != "server.yield":
            shares[module] += seconds
    for module, seconds in shares.items():
        values[f"share.{module}"] = ratio(seconds, op_seconds)
    return values

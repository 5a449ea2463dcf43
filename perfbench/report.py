"""Metric definitions and the arithmetic that turns timings into them."""

from __future__ import annotations

import statistics
from collections import defaultdict

from perfbench.instrument import LAYERS
from perfbench.spans import SpanTree

#: End-to-end metrics (untraced runs): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "goodput_gps": "graphs/s",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (traced runs): name -> unit. Times are self seconds
#: per operation (per request on serve-http) unless marked inclusive.
PER_LAYER = {
    "graphs.sp_s": "s",
    "graphs.sp_graphs": "count",
    "alignment.db_s": "s",
    "alignment.db_graphs": "count",
    "alignment.prototypes_s": "s",
    "alignment.kmeans_runs": "count",
    "alignment.kmeans_iters": "count",
    "alignment.correspond_s": "s",
    "alignment.aligned_s": "s",
    "alignment.aligned_calls": "count",
    "quantum.density_s": "s",
    "quantum.density_calls": "count",
    "kernels.prepare_s": "s",
    "kernels.prepare_self_s": "s",
    "kernels.freeze_s": "s",
    "engine.pair_s": "s",
    "engine.self_s": "s",
    "engine.pairs": "count",
    "engine.tiles": "count",
    "backend.eig_s": "s",
    "backend.eig_matrices": "count",
    "backend.eig_flops": "flop",
    "backend.eig_bytes": "B",
    "store.put_s": "s",
    "store.puts": "count",
    "store.put_bytes": "B",
    "store.get_s": "s",
    "store.gets": "count",
    "store.hit_frac": "frac",
    "ml.condition_s": "s",
    "ml.select_c_s": "s",
    "ml.svm_fit_s": "s",
    "ml.svm_fits": "count",
    "ml.vote_s": "s",
    "serve.http_s": "s",
    "serve.app_s": "s",
    "serve.decode_s": "s",
    "serve.queue_wait_s": "s",
    "serve.predict_s": "s",
    "serve.encode_s": "s",
    "serve.batches": "count",
    "serve.graphs_per_batch": "graphs",
    "serve.rejected": "count",
    "load.sent": "count",
    "load.ok": "count",
    "load.failed": "count",
    "load.lag_ms": "ms",
    "trace.other_s": "s",
    "trace.coverage": "frac",
    "trace.overhead_frac": "frac",
}

#: Self-time metrics: metric name -> span name.
_SELF = {
    "graphs.sp_s": "graphs.sp",
    "alignment.db_s": "alignment.db",
    "alignment.prototypes_s": "alignment.prototypes",
    "alignment.correspond_s": "alignment.correspond",
    "alignment.aligned_s": "alignment.aligned",
    "quantum.density_s": "quantum.density",
    "kernels.prepare_self_s": "kernels.prepare",
    "kernels.freeze_s": "kernels.freeze",
    "engine.self_s": "engine.pair",
    "backend.eig_s": "backend.eig",
    "store.put_s": "store.put",
    "store.get_s": "store.get",
    "ml.condition_s": "ml.condition",
    "ml.select_c_s": "ml.select_c",
    "ml.svm_fit_s": "ml.svm_fit",
    "ml.vote_s": "ml.vote",
    "serve.http_s": "serve.http",
    "serve.app_s": "serve.app",
    "serve.decode_s": "serve.decode",
    "serve.queue_wait_s": "serve.queue_wait",
    "serve.predict_s": "serve.predict",
    "serve.encode_s": "serve.encode",
}

#: Inclusive-time metrics: metric name -> span name.
_INCLUSIVE = {
    "kernels.prepare_s": "kernels.prepare",
    "engine.pair_s": "engine.pair",
}

#: Counters summed over the traced phase and divided by operations.
_COUNTS = (
    "graphs.sp_graphs",
    "alignment.db_graphs",
    "alignment.kmeans_runs",
    "alignment.kmeans_iters",
    "alignment.aligned_calls",
    "quantum.density_calls",
    "engine.pairs",
    "engine.tiles",
    "backend.eig_matrices",
    "backend.eig_flops",
    "backend.eig_bytes",
    "store.puts",
    "store.put_bytes",
    "store.gets",
    "ml.svm_fits",
)


def percentile(values, q: int) -> float:
    """The ``q``-th percentile (inclusive interpolation)."""
    values = sorted(values)
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])


def robust_p95(values) -> float:
    """A 95th percentile for runs of a few dozen operations at most:
    median + 1.645 robust standard deviations (1.4826 x the median
    absolute deviation), the normal model's p95.

    An empirical p95 of 7-20 values is their largest one or two, so it
    reports the slowest moment of the host rather than the program;
    this estimate uses every value and a few slow ones barely move it.
    """
    median = statistics.median(values)
    mad = statistics.median(abs(value - median) for value in values)
    return float(median + 1.645 * 1.4826 * mad)


def layer_breakdown(tree: SpanTree, roots) -> "tuple[dict, dict, float]":
    """Mean per-root self seconds by span name and by layer, and mean wall.

    Each root is one operation (a Gram, a train, an HTTP request). Work
    a root waited on in another thread (a coalesced batch) is part of its
    subtree through links, so it is attributed to every request that
    waited for it.
    """
    by_name: "dict[str, float]" = defaultdict(float)
    by_layer: "dict[str, float]" = defaultdict(float)
    inclusive: "dict[str, float]" = defaultdict(float)
    wall = 0.0
    for root in roots:
        wall += root.duration
        for span in tree.subtree(root):
            own = tree.self_time[span.sid]
            by_name[span.name] += own
            if span.layer in LAYERS:
                by_layer[span.layer] += own
        for name, value in tree.inclusive_by_name(root).items():
            inclusive[name] += value
    n = max(len(roots), 1)
    by_name = {k: v / n for k, v in by_name.items()}
    by_name.update({f"inclusive:{k}": v / n for k, v in inclusive.items()})
    return by_name, {k: v / n for k, v in by_layer.items()}, wall / n


def per_layer_metrics(
    recorder, roots, *, overhead_frac: float, extra: "dict | None" = None
) -> "tuple[dict, dict]":
    """Every :data:`PER_LAYER` metric for one traced phase.

    Counts are totals over the phase's spans divided by the number of
    roots, so work shared by coalesced requests is counted once.
    Returns ``(metrics, layer_self_seconds)``.
    """
    tree = SpanTree(recorder.spans)
    by_name, by_layer, wall = layer_breakdown(tree, roots)
    n = max(len(roots), 1)
    counts: "dict[str, float]" = defaultdict(float)
    for span in tree.spans:
        for name, value in span.counts.items():
            counts[name] += value
    metrics = {name: 0.0 for name in PER_LAYER}
    for metric, span_name in _SELF.items():
        metrics[metric] = by_name.get(span_name, 0.0)
    for metric, span_name in _INCLUSIVE.items():
        metrics[metric] = by_name.get(f"inclusive:{span_name}", 0.0)
    for name in _COUNTS:
        metrics[name] = counts.get(name, 0.0) / n
    gets = counts.get("store.gets", 0.0)
    metrics["store.hit_frac"] = counts.get("store.hits", 0.0) / gets if gets else 0.0
    covered = sum(by_layer.values())
    metrics["trace.other_s"] = wall - covered
    metrics["trace.coverage"] = covered / wall if wall > 0 else 0.0
    metrics["trace.overhead_frac"] = overhead_frac
    metrics.update(extra or {})
    return metrics, {layer: by_layer.get(layer, 0.0) for layer in LAYERS}


def layer_table(layer_self: dict, wall: float) -> str:
    """Human-readable per-layer self-time table (seconds and share)."""
    lines = [f"{'layer':<10} {'self_s/op':>11} {'share':>7}"]
    for layer, seconds in sorted(layer_self.items(), key=lambda kv: -kv[1]):
        share = seconds / wall if wall > 0 else 0.0
        lines.append(f"{layer:<10} {seconds:>11.5f} {share:>7.1%}")
    other = wall - sum(layer_self.values())
    lines.append(f"{'other':<10} {other:>11.5f} {other / wall if wall else 0:>7.1%}")
    lines.append(f"{'wall':<10} {wall:>11.5f}")
    return "\n".join(lines)

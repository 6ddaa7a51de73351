"""Per-layer metrics of a traced run, derived from its spans and counts."""

from __future__ import annotations

import numpy as np

from tracing import phase_table, self_times

_HD_STEPS = 16


def _per_name(spans, own, names, stop=None):
    """(count, total duration, total self time, hits) of spans named in
    *names*, over ``spans[:stop]``."""
    count = hits = 0
    total = own_total = 0.0
    for i, (name, start, end, _parent, note) in enumerate(spans[:stop]):
        if name in names:
            count += 1
            total += end - start
            own_total += own[i]
            hits += note or 0
    return count, total, own_total, hits


def _mean(total, count, scale=1.0) -> float:
    return total / count * scale if count else 0.0


def quantile(values, q: float) -> float:
    """The Harrell-Davis estimate of the *q*-quantile of *values*, 0 < q < 1.

    A weighted mean of all order statistics, the weights being the
    Beta(q(n+1), (1-q)(n+1)) probability of each rank's interval.  A
    run's 104 publishes put about ten samples beyond p90, where the
    sorted values lie far apart; interpolating between the two nearest
    ones made p90 move with which few incidents landed there (fleet-mixed
    p90 344-371 ms over three seeds, 383-395 ms by this estimate).
    """
    ordered = np.sort(np.asarray(values, dtype=float))
    n = len(ordered)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    # The Beta CDF at i/n, by the trapezoid rule on a grid of
    # _HD_STEPS points per rank interval.
    t = np.linspace(0.0, 1.0, _HD_STEPS * n + 1)[1:-1]
    log_pdf = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    pdf = np.concatenate(([0.0], np.exp(log_pdf - log_pdf.max()), [0.0]))
    cdf = np.concatenate(([0.0], np.cumsum(pdf[1:] + pdf[:-1])))
    weights = np.diff(cdf[::_HD_STEPS]) / cdf[-1]
    return float(weights @ ordered)


#: The spans each per-layer metric is read from or counted at (phase
#: roots for the unattributed rows and the overhead).  A metric whose
#: spans never fire on a workload it is measured on (its ``on`` list in
#: manifest.json) marks the traced run incorrect: an entry point that was
#: renamed or no longer called would otherwise read 0 and move its time
#: into ``unattributed``.
SOURCES = {
    "build.graph_s": ("graph.generate",),
    "build.index_s": ("ch.build", "h2h.build"),
    "fleet.partition_s": ("fleet.partition",),
    "fleet.shard_build_s": ("fleet.shard_build",),
    "fleet.boundary_build_s": ("fleet.boundary_build",),
    "ch.search_us": ("ch.search",),
    "ch.search_ops": ("ch.search",),
    "h2h.lookup_us": ("h2h.lookup",),
    "cache.hit_share": ("cache.get",),
    "cache.lookup_us": ("cache.get",),
    "serve.query_self_us": ("serve.distance_on",),
    "maint.apply_ms": ("maint.apply",),
    "maint.ops": ("maint.apply",),
    "maint.aff_norm": ("maint.apply",),
    "maint.ops_per_aff": ("maint.apply",),
    "coalesce.superseded": ("perf.coalesce",),
    "coalesce.dropped": ("perf.coalesce",),
    "serve.clone_ms": ("serve.clone",),
    "reliability.snapshot_ms": ("reliability.snapshot",),
    "serve.aff_ms": ("serve.aff",),
    "serve.aff_vertices": ("serve.aff",),
    "cache.migrate_ms": ("cache.migrate",),
    "cache.evicted_per_publish": ("cache.migrate",),
    "cache.carried_per_publish": ("cache.migrate",),
    "fleet.shard_apply_ms": ("fleet.shard_apply",),
    "fleet.dirty_shards": ("fleet.shard_apply",),
    "fleet.boundary_refresh_ms": ("fleet.row_patch", "fleet.refresh"),
    "fleet.boundary_ops": ("fleet.refresh",),
    "fleet.boundary_fallbacks": ("fleet.refresh",),
    "fleet.combo_us": ("fleet.combo",),
    "fleet.query_self_us": ("fleet.distance_on",),
    "fleet.route_local_share": ("fleet.distance_on",),
    "fleet.route_cross_share": ("fleet.distance_on",),
    "fleet.shards_effective": ("fleet.partition",),
    "fleet.max_shard_share": ("fleet.partition",),
    "fleet.boundary_vertices": ("fleet.partition",),
    "setup.unattributed_ms": ("setup",),
    "query.unattributed_ms": ("query",),
    "publish.unattributed_ms": ("publish",),
    "obs.trace_overhead_pct.query": ("query",),
    "obs.trace_overhead_pct.publish": ("publish",),
}


def silent_metrics(spans, workload: str, per_layer: dict):
    """Per-layer metrics measured on *workload* whose spans never fired."""
    fired = {span[0] for span in spans}
    return [
        name
        for name, doc in per_layer.items()
        if workload in doc["on"] and not fired.intersection(SOURCES[name])
    ]


def layer_report(run):
    """Returns ``(metrics, phase table)``."""
    spans = run.tracer.spans
    own = self_times(spans)
    table = phase_table(spans)
    counts = run.counts
    prefix = run.prefix_spans or len(spans)

    def total(*names):
        return _per_name(spans, own, names)[1]

    def mean(names, scale):
        count, duration, _own, _hits = _per_name(spans, own, names)
        return _mean(duration, count, scale)

    def mean_self(names, scale):
        count, _duration, self_total, _hits = _per_name(spans, own, names)
        return _mean(self_total, count, scale)

    def phase_ops(phase):
        return table.get(phase, {}).get("ops", 0)

    def per_phase_op(phase, names, scale=1e3):
        return _mean(total(*names), phase_ops(phase), scale)

    def unattributed(phase):
        row = table.get(phase)
        return _mean(row["self_s"]["unattributed"], row["ops"], 1e3) if row else 0.0

    reps = phase_ops("setup")
    gets, _d, _o, hits = _per_name(spans, own, ("cache.get",), prefix)
    searches = _per_name(spans, own, ("ch.search",), prefix)[0]
    publishes = counts.get("publishes", 0)
    routes = sum(counts.get(k, 0) for k in ("route.local", "route.cross", "route.boundary"))
    partition = run.partition
    sizes = [len(members) for members in partition.shard_vertices] if partition else []

    def overhead_pct(samples):
        return 100.0 * (quantile(samples[True], 0.5) / quantile(samples[False], 0.5) - 1.0)

    metrics = {
        "build.graph_s": _mean(total("graph.generate"), reps),
        "build.index_s": _mean(total("ch.build", "h2h.build"), reps),
        "fleet.partition_s": _mean(total("fleet.partition"), reps),
        "fleet.shard_build_s": _mean(total("fleet.shard_build"), reps),
        "fleet.boundary_build_s": _mean(total("fleet.boundary_build"), reps),
        "ch.search_us": mean(("ch.search",), 1e6),
        "ch.search_ops": _mean(counts.get("ch.search_ops", 0), searches),
        "h2h.lookup_us": mean(("h2h.lookup",), 1e6),
        "cache.hit_share": _mean(hits, gets),
        "cache.lookup_us": mean(("cache.get",), 1e6),
        "serve.query_self_us": mean_self(("serve.distance_on",), 1e6),
        "maint.apply_ms": per_phase_op("publish", ("maint.apply",)),
        "maint.ops": _mean(counts.get("maint.ops", 0), publishes),
        "maint.aff_norm": _mean(counts.get("maint.aff_norm", 0), publishes),
        "maint.ops_per_aff": _mean(counts.get("maint.ops", 0), counts.get("maint.aff_norm", 0)),
        "coalesce.superseded": counts.get("coalesce.superseded", 0),
        "coalesce.dropped": counts.get("coalesce.dropped", 0),
        "serve.clone_ms": per_phase_op("publish", ("serve.clone",)),
        "reliability.snapshot_ms": per_phase_op("publish", ("reliability.snapshot",)),
        "serve.aff_ms": per_phase_op("publish", ("serve.aff",)),
        "serve.aff_vertices": _mean(counts.get("serve.aff_vertices", 0), publishes),
        "cache.migrate_ms": per_phase_op("publish", ("cache.migrate",)),
        "cache.evicted_per_publish": _mean(counts.get("cache.evicted", 0), publishes),
        "cache.carried_per_publish": _mean(counts.get("cache.carried", 0), publishes),
        "fleet.shard_apply_ms": per_phase_op("publish", ("fleet.shard_apply",)),
        "fleet.dirty_shards": _mean(counts.get("fleet.dirty_shards", 0), publishes),
        "fleet.boundary_refresh_ms": per_phase_op("publish", ("fleet.row_patch", "fleet.refresh")),
        "fleet.boundary_ops": _mean(counts.get("fleet.boundary_ops", 0), publishes),
        "fleet.boundary_fallbacks": counts.get("fleet.boundary_fallbacks", 0),
        "fleet.combo_us": mean(("fleet.combo",), 1e6),
        "fleet.query_self_us": mean_self(("fleet.distance_on",), 1e6),
        "fleet.route_local_share": _mean(counts.get("route.local", 0), routes),
        "fleet.route_cross_share": _mean(counts.get("route.cross", 0), routes),
        "fleet.shards_effective": len(sizes),
        "fleet.max_shard_share": max(sizes) / sum(sizes) if sizes else 0.0,
        "fleet.boundary_vertices": len(partition.boundary) if partition else 0,
        "setup.unattributed_ms": unattributed("setup"),
        "query.unattributed_ms": unattributed("query"),
        "publish.unattributed_ms": unattributed("publish"),
        "obs.trace_overhead_pct.query": overhead_pct(run.query_s),
        "obs.trace_overhead_pct.publish": overhead_pct(run.publish_s),
    }
    return metrics, table

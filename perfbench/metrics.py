"""The benchmark's metrics, computed from finished rounds.

One percentile rule serves every latency: nearest rank, ``q`` in [0, 1],
reported only with at least ten samples beyond it.

Wall-clock metrics are reported in reference seconds (calibration.py).
"""

from __future__ import annotations

import math
import statistics

from tracing import GENERATOR, STEP_LAYERS, covered_wall, self_times


class TooFewSamples(ValueError):
    """A percentile was asked for with fewer than ten samples beyond it."""


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 1].

    Refuses (``TooFewSamples``) unless at least ten samples lie beyond the
    reported one, so a p99 needs at least 1,000 samples.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"percentile q must be in [0, 1], got {q}")
    n = len(values)
    rank = max(1, math.ceil(q * n))
    if n - rank < 10:
        raise TooFewSamples(
            f"p{q * 100:g} of {n} samples has {max(n - rank, 0)} beyond it"
        )
    return sorted(values)[rank - 1]


def per_query_median(repetitions) -> list[float]:
    """Each query's median latency over the rounds of a run.

    Every round replays the same queries against the same states, so the
    median drops a stall of the host that hit one repetition only, and
    keeps the query's own cost.
    """
    return [statistics.median(times) for times in zip(*repetitions)]


def end_to_end(rounds, setups: list[float],
               peak_rss_mb: float) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics of a run of identical rounds.

    Wall figures, in reference seconds, are medians over rounds; query
    latency percentiles are taken over each query's median across rounds
    (:func:`per_query_median`).  The modeled ``_sim_`` figures come from
    the first round, which every later round reproduces exactly.
    """
    first = rounds[0].recorder
    adhoc_wall = per_query_median(r.adhoc_ref_s for r in rounds)
    ops_per_s = [r.recorder.ops_issued / r.steady_ref_s for r in rounds]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "pipeline_ops_per_s": (statistics.median(ops_per_s), "ops/s"),
    }
    for label, q in (("p50", 0.5), ("p99", 0.99)):
        metrics[f"query_ms_{label}"] = (percentile(adhoc_wall, q) * 1e3, "ms")
        metrics[f"query_sim_ms_{label}"] = (
            percentile(first.adhoc_sim_s, q) * 1e3, "ms")
        metrics[f"service_query_sim_ms_{label}"] = (
            percentile(first.service_sim_s, q) * 1e3, "ms")
        metrics[f"visible_lag_sim_ms_{label}"] = (
            percentile(first.lag_sim_s, q) * 1e3, "ms")
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    return metrics


def wall_figures(rounds) -> dict[str, tuple[float, str]]:
    """The wall-clock metrics before rescaling, for comparison only."""
    adhoc_wall = per_query_median(r.recorder.adhoc_wall_s for r in rounds)
    return {
        "wall_setup_s": (
            statistics.median(r.setup_s for r in rounds), "s"),
        "wall_pipeline_ops_per_s": (statistics.median(
            r.recorder.ops_issued / r.steady_s for r in rounds), "ops/s"),
        "wall_query_ms_p50": (percentile(adhoc_wall, 0.5) * 1e3, "ms"),
    }


def per_layer(traced, untraced) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced round (``untraced`` is the same
    round without tracing, for the overhead ratio)."""
    tracer = traced.tracer
    counts = tracer.counts
    spans = tracer.spans()
    self_s: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        self_s[span.name] = self_s.get(span.name, 0.0) + own
    wall = traced.wall_s + traced.check_s

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: dict[str, tuple[float, str]] = {
        "db.primary.self_s": (self_s.get("db.primary", 0.0), "s"),
        "db.primary.calls": (counts["db.primary.calls"], "count"),
    }
    for layer in STEP_LAYERS:
        m[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
        for name in ("busy_steps", "idle_steps"):
            m[f"{layer}.{name}"] = (counts[f"{layer}.{name}"], "count")
        m[f"{layer}.modeled_s"] = (counts[f"{layer}.modeled_s"], "s")
    publishes = counts["adg.coordinator.publishes"]
    m["adg.coordinator.publishes"] = (publishes, "count")
    m["adg.coordinator.publish_frac"] = (
        ratio(publishes, counts["adg.coordinator.busy_steps"]), "ratio")
    builds = counts["imcs.imcu.calls"]
    retries = traced.quiesce_retries
    m["imcs.population.builds"] = (builds, "count")
    m["imcs.population.build_frac"] = (ratio(builds, builds + retries), "ratio")
    for layer in ("dbim_adg.mining", "dbim_adg.flush"):
        m[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
        m[f"{layer}.calls"] = (counts[f"{layer}.calls"], "count")
    m["dbim_adg.flush.nodes_flushed"] = (
        counts["dbim_adg.flush.nodes_flushed"], "count")
    build_s = self_s.get("imcs.imcu", 0.0)
    build_rows = counts["imcs.imcu.build_rows"]
    m["imcs.imcu.build_s"] = (build_s, "s")
    m["imcs.imcu.build_rows"] = (build_rows, "count")
    m["imcs.imcu.build_rows_per_s"] = (ratio(build_rows, build_s), "rows/s")
    m["imcs.scan.self_s"] = (self_s.get("imcs.scan", 0.0), "s")
    m["imcs.scan.calls"] = (counts["imcs.scan.calls"], "count")
    m["imcs.scan.rows_out"] = (counts["imcs.scan.rows_out"], "count")
    m["imcs.scan.fallback_frac"] = (ratio(
        counts["imcs.scan.fallback_rows"], counts["imcs.scan.rows_examined"]
    ), "ratio")
    m["imcs.scan.prune_frac"] = (ratio(
        counts["imcs.scan.imcus_pruned"], counts["imcs.scan.imcus_seen"]
    ), "ratio")
    m["query.service.submit_self_s"] = (self_s.get("query.service", 0.0), "s")
    lookups = counts["query.cache.calls"]
    m["query.cache.lookups"] = (lookups, "count")
    m["query.cache.hit_frac"] = (
        ratio(counts["query.cache.hits"], lookups), "ratio")
    busy = sum(counts[k] for k in counts if k.endswith(".busy_steps"))
    idle = sum(counts[k] for k in counts if k.endswith(".idle_steps"))
    m["sim.unattributed_s"] = (wall - covered_wall(spans), "s")
    m["sim.idle_step_frac"] = (ratio(idle, busy + idle), "ratio")
    m["bench.generator_self_s"] = (self_s.get(GENERATOR, 0.0), "s")
    m["bench.trace_overhead_frac"] = (
        traced.wall_s / untraced.wall_s - 1.0, "ratio")
    return m

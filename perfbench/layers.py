"""The per-layer metrics of a traced run.

Every traced run reports every name below; a layer a workload does not
exercise reports 0, which is the expected reading for the layers the
workload's rationale says should not move.

Normalisation: ``*.ms`` metrics of the read path are self milliseconds
per timed read, those of the write path per timed write, replication
ones per poll; ``durability.recover.ms_per_record`` is the whole
``recover`` call (snapshot restore included) over the WAL records it
replayed.  Counter-derived ratios are taken over a fixed prefix of the
operation sequence, so with one client they repeat exactly for a given
seed.
"""

from __future__ import annotations

STRATEGIES = ("nok", "partitioned", "structural-join", "pathstack",
              "twigstack", "navigational", "index-scan", "columnar")

PER_LAYER = (
    ("xquery.parse.ms", "ms"),
    ("xquery.parse.calls", "calls/read"),
    ("algebra.translate.ms", "ms"),
    ("algebra.rewrite.ms", "ms"),
    ("engine.cache.plan_hit_ratio", "ratio"),
    ("engine.cache.result_hit_ratio", "ratio"),
    ("engine.cache.result_entries", "count"),
    ("physical.choose.ms", "ms"),
    ("physical.tau.ms", "ms"),
    *((f"physical.strategy.{name}.share", "ratio") for name in STRATEGIES),
    ("physical.rows_examined_per_result", "ratio"),
    ("physical.nodes_visited_per_query", "count"),
    ("physical.postings_per_query", "count"),
    ("physical.residual.calls", "calls/read"),
    ("physical.residual.ms", "ms"),
    ("storage.columns.build.ms", "ms"),
    ("storage.columns.builds", "count/op"),
    ("storage.pages.reads_per_query", "count"),
    ("storage.pool_hit_ratio", "ratio"),
    ("storage.splice.ms", "ms"),
    ("engine.construct.ms", "ms"),
    ("xml.serialize.ms", "ms"),
    ("xml.serialize.bytes_per_request", "bytes"),
    ("server.admit.wait_ms", "ms"),
    ("server.dispatch.ms", "ms"),
    ("server.worker.ms", "ms"),
    ("server.wire.ms", "ms"),
    ("server.rejections", "count"),
    ("engine.write.locate.ms", "ms"),
    ("engine.write.clone.ms", "ms"),
    ("engine.write.other.ms", "ms"),
    ("durability.wal.append.ms", "ms"),
    ("durability.wal.bytes_per_write", "bytes"),
    ("durability.checkpoint.ms", "ms"),
    ("durability.checkpoints", "count/100writes"),
    ("durability.disk_bytes_per_doc_byte", "ratio"),
    ("durability.recover.ms_per_record", "ms"),
    ("replication.fetch.ms", "ms"),
    ("replication.apply.ms", "ms"),
    ("replication.records_per_poll", "count"),
    ("replication.bytes_per_record", "bytes"),
    ("runtime.gc.gen2_ms", "ms"),
    ("runtime.gc.gen2_count", "count/1000op"),
    ("bench.gen_late_p99_ms", "ms"),
    ("bench.unattributed_share", "ratio"),
    ("bench.trace_overhead_ratio", "ratio"),
)

UNITS = dict(PER_LAYER)


def empty() -> dict:
    return {name: 0.0 for name, _ in PER_LAYER}


def _per(value: float, count: int) -> float:
    return value / count if count else 0.0


def read_path(metrics: dict, recorder, reads: int,
              not_under=()) -> None:
    """Self times of the read-path layers, per read (spans below a
    ``not_under`` span belong to another path)."""
    def per(*names):
        return _per(recorder.select(names, not_under=not_under)[0], reads)

    def calls(name):
        return _per(recorder.select((name,), not_under=not_under)[1], reads)

    metrics["xquery.parse.ms"] = per("parse_xquery")
    metrics["xquery.parse.calls"] = calls("parse_xquery")
    metrics["algebra.translate.ms"] = per("backward_translate")
    metrics["algebra.rewrite.ms"] = per("rewrite_plan")
    metrics["physical.choose.ms"] = per("planner.choose")
    metrics["physical.tau.ms"] = per("run_tau", "planner.match",
                                     "planner.match_bindings")
    metrics["physical.residual.calls"] = calls("residual_ok")
    metrics["physical.residual.ms"] = per("residual_ok")
    metrics["storage.columns.build.ms"] = per("columnar_view")
    metrics["engine.construct.ms"] = per("run_plan")
    metrics["xml.serialize.ms"] = per("serialize")


def cache_ratios(metrics: dict, samples: list) -> None:
    """Plan- and result-cache hit ratios over :func:`read_sample`
    samples."""
    if samples:
        metrics["engine.cache.plan_hit_ratio"] = sum(
            1 for sample in samples if sample[3]) / len(samples)
        metrics["engine.cache.result_hit_ratio"] = sum(
            1 for sample in samples if sample[4]) / len(samples)


def read_counters(metrics: dict, samples: list) -> None:
    """Counter ratios over per-read samples: ``(strategy, stats, io,
    plan_hit, result_hit)`` as ``QueryResult`` reports them."""
    if not samples:
        return
    count = len(samples)
    for name in STRATEGIES:
        metrics[f"physical.strategy.{name}.share"] = sum(
            1 for sample in samples if sample[0] == name) / count
    total = lambda table, key: sum(  # noqa: E731
        sample[table].get(key, 0) for sample in samples)
    metrics["physical.rows_examined_per_result"] = _per(
        total(1, "intermediate_results"), total(1, "solutions"))
    metrics["physical.nodes_visited_per_query"] = total(
        1, "nodes_visited") / count
    metrics["physical.postings_per_query"] = total(
        1, "postings_scanned") / count
    metrics["storage.pages.reads_per_query"] = total(2, "page_reads") / count
    hits = total(2, "pool_hits")
    metrics["storage.pool_hit_ratio"] = _per(
        hits, hits + total(2, "page_reads"))


def read_sample(result) -> tuple:
    cache = result.stats.get("cache", {})
    return (result.strategy, result.stats, result.io,
            cache.get("plan") == "hit", cache.get("result") == "hit")


def harness(metrics: dict, gc_monitor, ops: int, latencies: list,
            recorder=None) -> None:
    """GC pauses and the share of end-to-end time no span covers."""
    metrics["runtime.gc.gen2_ms"] = _per(1e3 * gc_monitor.seconds,
                                         gc_monitor.count)
    metrics["runtime.gc.gen2_count"] = _per(1000.0 * gc_monitor.count, ops)
    if recorder is not None:
        busy = sum(latencies)
        metrics["bench.unattributed_share"] = max(
            0.0, _per(busy - recorder.top_level_seconds(), busy))

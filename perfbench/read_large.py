"""read-large: in-process reads over a document larger than the buffer
pool, with a working set larger than both serving caches.

One client runs a closed loop over a seeded pool of distinct query
texts, issued in the same order every cycle.  The pool (320 texts) is
larger than the plan cache (128) and the result cache (256), so with
LRU eviction every read compiles and executes: τ, storage and γ do the
work.  No durability, server or replication code runs.
"""

from __future__ import annotations

import time

import common
import layers
import queries
from spans import GcMonitor, SpanRecorder

SCALE = 400
POOL = 320
SETUPS = 3


def _set_up(pool: list, first: dict):
    """Load, then warm up: the warm-up texts and one full cycle of the
    pool, which fills the strategy memo and leaves both caches in the
    state every later cycle sees."""
    from repro.engine.database import Database

    started = time.perf_counter()
    database = Database()
    database.load(common.build_document_text(SCALE), uri="xmark.xml")
    for text in (*queries.WARMUP, *pool):
        first[text] = database.query(text).items
    return database, time.perf_counter() - started


def _phase(database, pool: list, seconds: float, start: int,
           recorder=None) -> dict:
    """Closed loop over ``pool`` from ``start``; a phase continues the
    previous one's cycle, so no phase begins with texts still cached."""
    latencies = []
    samples = []
    failed = 0
    position = start
    clock = common.Clock(seconds)
    with GcMonitor() as gc_monitor:
        while clock.running():
            text = pool[position % len(pool)]
            position += 1
            if recorder is not None:
                recorder.request_id = position
            started = time.perf_counter()
            try:
                result = database.query(text)
            except Exception:  # counted, and fails the correctness gate
                failed += 1
                continue
            latencies.append(time.perf_counter() - started)
            if position - start <= len(pool):
                samples.append(layers.read_sample(result))
        elapsed = clock.elapsed()
    return {"latencies": latencies, "samples": samples, "failed": failed,
            "attempted": position - start, "end": position,
            "elapsed": elapsed, "gc": gc_monitor}


def run(seed: int, seconds: float, trace: bool, work_dir) -> dict:
    pool = queries.read_large_pool(seed, POOL, SCALE,
                                   exclude=queries.WARMUP)
    first: dict = {}
    setups = []
    database = None
    for _ in range(SETUPS):
        database = None  # free the previous set-up's copy first
        database, took = _set_up(pool, first)
        setups.append(took)

    # Set-up issued every text once; those answers are the ones checked.
    phase = _phase(database, pool, seconds, 0)
    metrics = {}
    if trace:
        recorder = SpanRecorder()
        recorder.install()
        try:
            traced = _phase(database, pool, seconds, phase["end"],
                            recorder)
        finally:
            recorder.uninstall()
        metrics = layers.empty()
        reads = len(traced["latencies"])
        layers.read_path(metrics, recorder, reads)
        layers.read_counters(metrics, traced["samples"])
        layers.cache_ratios(metrics, traced["samples"])
        metrics["engine.cache.result_entries"] = \
            database.result_cache.report()["entries"]
        layers.harness(metrics, traced["gc"], reads, traced["latencies"],
                       recorder)
        metrics["bench.trace_overhead_ratio"] = (
            common.median(traced["latencies"])
            / common.median(phase["latencies"]))
        attempted = phase["attempted"] + traced["attempted"]
        failed = phase["failed"] + traced["failed"]
    else:
        attempted, failed = phase["attempted"], phase["failed"]

    texts = sorted(first)
    got = [common.digest(first[text]) for text in texts]
    expected = common.reference_digests(SCALE, texts)
    mismatches = [text for text, a, b in zip(texts, got, expected)
                  if a != b]

    latencies = phase["latencies"]
    return {
        "end_to_end": {
            "setup_s": common.median(setups),
            "read_p50_ms": 1e3 * common.median(latencies),
            "read_p99_ms": 1e3 * common.percentile(latencies, 0.99),
            "ops_per_s": len(latencies) / phase["elapsed"],
            "peak_rss_mb": common.peak_rss_mb(),
        },
        "extra": {"reads": (len(latencies), "count"),
                  "distinct_texts_checked": (len(texts), "count")},
        "per_layer": metrics, "attempted": attempted, "failed": failed,
        "problems": [f"reference mismatch: {text}" for text in mismatches],
    }

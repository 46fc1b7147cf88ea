"""served-mixed: reads over the binary protocol through one forked
worker, arriving on a fixed schedule.

Two client threads send 50 requests per second, well below one
worker's capacity, and time each from the moment it was due (an open
loop: a stall delays every later request, and that wait counts).  80% of
requests come from a small hot set that fits both caches, so framing,
admission, dispatch, the worker round trip and encoding dominate.  18%
are ad-hoc texts whose literals never repeat, half of them asking for
XML output.  2% are context-free residual predicates, whose cost grows
with the square of the document (ROADMAP 2c); their head-of-line
blocking sets p99."""

from __future__ import annotations

import random
import threading
import time

import common
import layers
import queries
from spans import GcMonitor, stitched_self_ms

SCALE = 25
RATE = 50.0          # requests per second
SETUPS = 9
# Pause between set-ups: the previous frontend's shutdown work ends
# before the next set-up is timed, and the median samples several
# seconds of the machine rather than one burst.
SETUP_GAP_S = 0.5
CLIENTS = 2


def _requests(seed: int, count: int) -> list:
    """The seeded request sequence: ``(kind, text, output)``.

    Each block of 50 requests holds one residual in the middle, then nine
    ad-hoc requests and each hot text four times at seeded positions, so
    neither the mix nor the spacing of the slow requests, and with them
    every percentile, drifts with the seed."""
    rng = random.Random(f"served-mixed:{seed}")
    out = []
    for serial in range(count):
        if serial % 50 == 0:
            block = ([("ad-hoc", None)] * 9
                     + [("hot", text) for text in queries.HOT * 4])
            rng.shuffle(block)
            block.insert(25, ("residual", None))
        kind, text = block[serial % 50]
        if kind == "residual":
            out.append((kind, queries.residual_text(rng, serial), "values"))
        elif kind == "ad-hoc":
            out.append((kind, queries.ad_hoc_text(rng, serial),
                        "xml" if serial % 2 else "values"))
        else:
            out.append((kind, text, "values"))
    return out


def _set_up(directory):
    from repro.engine.database import Database
    from repro.server import ServerClient, ServerFrontend

    started = time.perf_counter()
    database = Database.open(directory)
    database.load(common.build_document_text(SCALE), uri="xmark.xml")
    database.checkpoint()
    database.close()
    frontend = ServerFrontend(data_dir=str(directory), workers=1).start()
    try:
        clients = [ServerClient(*frontend.address) for _ in range(CLIENTS)]
        for text in queries.HOT:
            clients[0].query(text)
    except BaseException:
        frontend.stop()  # joins the forked worker
        raise
    return frontend, clients, time.perf_counter() - started


def _phase(clients, plan: list, seconds: float, first: dict,
           collect=None) -> dict:
    """Send ``plan`` on schedule from the client threads; ``collect`` is
    called about twice a second meanwhile."""
    count = len(plan)
    records: list = [None] * count
    cursor = iter(range(count))
    lock = threading.Lock()
    due_zero = time.perf_counter() + 0.05

    def client_loop(client) -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            kind, text, output = plan[index]
            due = due_zero + index / RATE
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            try:
                response = client.query(text, output=output)
            except Exception as exc:  # counted as failed
                records[index] = (None, sent - due, None, repr(exc))
                continue
            done = time.perf_counter()
            records[index] = (done - due, sent - due, done - sent, response)

    with GcMonitor() as gc_monitor:
        threads = [threading.Thread(target=client_loop, args=(client,))
                   for client in clients]
        for thread in threads:
            thread.start()
        while any(thread.is_alive() for thread in threads):
            if collect is not None:
                collect()
            for thread in threads:
                thread.join(0.5)
        if collect is not None:
            collect()
        elapsed = time.perf_counter() - due_zero
    failed = []
    for index, (latency, _, _, response) in enumerate(records):
        if latency is None:
            failed.append(f"{plan[index][1]}: {response}")
            continue
        kind, text, output = plan[index]
        first.setdefault((text, output), response["items"])
    return {"records": records, "failed": failed, "elapsed": elapsed,
            "gc": gc_monitor, "count": count}


def _fleet_counters(frontend) -> dict:
    """``{(family, cache or reason label): summed value}`` from the
    fleet ``/metrics`` exposition."""
    from repro.observability.metrics import parse_exposition

    totals: dict = {}
    for family, entry in parse_exposition(frontend.metrics_text()).items():
        for _, labels, value in entry["samples"]:
            labels = dict(labels)
            key = (family, labels.get("cache") or labels.get("reason"))
            totals[key] = totals.get(key, 0.0) + value
    return totals


def _delta(before: dict, after: dict, family: str, label=None) -> float:
    return sum(value - before.get(key, 0.0) for key, value in after.items()
               if key[0] == family and label in (None, key[1]))


def _walk(node: dict):
    yield node
    for child in node.get("children") or []:
        yield from _walk(child)


def _served_layers(traced: dict, plan: list, traces: list, before: dict,
                   after: dict) -> dict:
    metrics = layers.empty()
    served = [(plan[index], record)
              for index, record in enumerate(traced["records"])
              if record[0] is not None]
    requests = max(1, len(traces))
    # The worker is another process: its stitched engine spans stand in
    # for the wrappers the in-process workloads install.
    self_ms, calls = stitched_self_ms(traces)
    per = lambda name: self_ms.get(name, 0.0) / requests  # noqa: E731
    total_ms = lambda name: 1e3 * sum(  # noqa: E731
        node["duration_seconds"] or 0.0 for trace in traces
        for node in _walk(trace) if node["name"] == name) / requests
    metrics["xquery.parse.ms"] = per("parse")
    metrics["xquery.parse.calls"] = calls.get("parse", 0) / requests
    metrics["algebra.translate.ms"] = per("translate")
    metrics["algebra.rewrite.ms"] = per("rewrite")
    metrics["physical.tau.ms"] = per("execute.tau")
    metrics["engine.construct.ms"] = per("execute") + per("construct")
    # Self time of the worker span: decoding the request and encoding
    # the result (string values or serialized XML).
    metrics["xml.serialize.ms"] = per("server.worker")
    metrics["server.worker.ms"] = total_ms("server.worker")
    metrics["server.admit.wait_ms"] = total_ms("server.admit")
    metrics["server.dispatch.ms"] = per("server.dispatch")
    request_seconds = sum(trace["duration_seconds"] or 0.0
                          for trace in traces)
    from_send = sum(record[2] for _, record in served)
    metrics["server.wire.ms"] = 1e3 * max(
        0.0, from_send - request_seconds) / requests
    metrics["server.rejections"] = _delta(
        before, after, "repro_server_rejections_total")
    for cache in ("plan", "result"):
        hits = _delta(before, after, "repro_cache_hits_total", cache)
        misses = _delta(before, after, "repro_cache_misses_total", cache)
        metrics[f"engine.cache.{cache}_hit_ratio"] = (
            hits / (hits + misses) if hits + misses else 0.0)
    metrics["engine.cache.result_entries"] = after.get(
        ("repro_cache_entries", "result"), 0.0)
    # The response carries no I/O counters, so the storage ratios stay 0.
    layers.read_counters(metrics, [
        (record[3].get("strategy"), record[3].get("stats", {}), {},
         False, False) for _, record in served])
    xml_bytes = sum(len(item) for (_, _, output), record in served
                    if output == "xml" for item in record[3]["items"])
    metrics["xml.serialize.bytes_per_request"] = xml_bytes / max(
        1, len(served))
    metrics["bench.gen_late_p99_ms"] = 1e3 * common.percentile(
        [record[1] for record in traced["records"]], 0.99)
    latencies = [record[0] for _, record in served]
    layers.harness(metrics, traced["gc"], len(served), latencies)
    metrics["bench.unattributed_share"] = max(
        0.0, 1.0 - request_seconds / sum(latencies))
    return metrics


def run(seed: int, seconds: float, trace: bool, work_dir) -> dict:
    from repro.engine.database import Database

    count = int(RATE * seconds)
    # The traced phase continues the sequence: no ad-hoc text repeats.
    plan = _requests(seed, 2 * count)
    setups = []
    stoppers = []
    frontend = None
    clients: list = []
    first: dict = {}
    # Every frontend started here is stopped, and its worker joined, on
    # every way out of this block.
    try:
        for index in range(SETUPS):
            if frontend is not None:
                for client in clients:
                    client.close()
                stopper = threading.Thread(target=frontend.stop)
                stopper.start()
                stoppers.append(stopper)
                frontend = None
                time.sleep(SETUP_GAP_S)
            frontend, clients, took = _set_up(work_dir / f"s{index}")
            setups.append(took)
        # Earlier set-ups' frontends finish stopping before anything is
        # timed.
        for stopper in stoppers:
            stopper.join()
        phase = _phase(clients, plan[:count], seconds, first)
        metrics = {}
        attempted, failed = phase["count"], list(phase["failed"])
        if trace:
            before = _fleet_counters(frontend)
            frontend.tracer.clear()
            frontend.tracer.set_sample_rate(1.0)
            seen: dict = {}

            def collect() -> None:
                for span in frontend.tracer.finished_traces():
                    seen.setdefault(id(span), span)

            traced = _phase(clients, plan[count:], seconds, first, collect)
            frontend.tracer.set_sample_rate(0.01)
            after = _fleet_counters(frontend)
            traces = [span.to_dict() for span in seen.values()]
            metrics = _served_layers(traced, plan[count:], traces, before,
                                     after)
            metrics["bench.trace_overhead_ratio"] = (
                common.median([r[0] for r in traced["records"]
                               if r[0] is not None])
                / common.median([r[0] for r in phase["records"]
                                 if r[0] is not None]))
            attempted += traced["count"]
            failed += traced["failed"]
    finally:
        for client in clients:
            client.close()
        if frontend is not None:
            stop_started = time.perf_counter()
            frontend.stop()
            stop_s = time.perf_counter() - stop_started
        for stopper in stoppers:
            stopper.join()

    reference = Database()
    reference.load(common.build_document_text(SCALE), uri="xmark.xml")
    problems = [f"failed request: {entry}" for entry in failed]
    for (text, output), items in first.items():
        expected = common.reference_value_digest(
            reference.reference_query(text), xml=(output == "xml"))
        if common.value_digest(items) != expected:
            problems.append(f"reference mismatch ({output}): {text}")

    latencies = [record[0] for record in phase["records"]
                 if record[0] is not None]
    return {
        "end_to_end": {
            "setup_s": common.median(setups),
            "read_p50_ms": 1e3 * common.median(latencies),
            "read_p99_ms": 1e3 * common.percentile(latencies, 0.99),
            "ops_per_s": len(latencies) / phase["elapsed"],
            "peak_rss_mb": common.peak_rss_mb(),
        },
        "extra": {"stop_s": (stop_s, "s"),
                  "reads": (len(latencies), "count"),
                  "distinct_texts_checked": (len(first), "count")},
        "per_layer": metrics, "attempted": attempted,
        "failed": len(failed), "problems": problems,
    }

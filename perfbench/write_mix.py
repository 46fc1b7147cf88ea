"""write-mix: durable person inserts and deletes, each shipped to an
in-process replica and followed by reads.

One client runs a closed loop of cycles on ``Database.open`` with fsync
and a checkpoint every 64 WAL records.  A cycle writes (insert a
``person``, or delete the oldest inserted one by its distinct ``@id``
path), lets the replica ``poll_once()``, then reads: the changed person
and half of 22 auction reads with never-repeating literals on the
replica, the other half and one fixed count on the primary.  The first
auction read on each database has a descendant step and rebuilds the
columnar view the write invalidated, so a read-path gain that costs
writes shows here.

Both result caches keep their default size on purpose.  Cached results
of distinct-literal texts pin the whole ``DocumentVersion`` they came
from until LRU eviction, so a long-running writer or replica holds
dozens of old versions; timing starts only once both caches are full,
the state such a process lives in.  At the end the database is
checkpointed, takes a fixed WAL suffix of 16 records, is closed and
reopened.
"""

from __future__ import annotations

import collections
import random
import time

import common
import layers
import queries
from spans import GcMonitor, SpanRecorder

SCALE = 120
CHECKPOINT_EVERY = 64
WAL_SUFFIX = 16
LIVE_WINDOW = 8
SETUPS = 3
STABLE_READS = 22
COUNT_TEXT = "count(/site/people/person)"
WRITE_SPANS = ("db.insert", "db.delete")


def _open(directory):
    from repro.engine.database import Database

    return Database.open(directory, checkpoint_every=CHECKPOINT_EVERY,
                         fsync=True)


def _base_set_up(directory) -> tuple:
    """Generate, open, load, checkpoint and bootstrap the replica."""
    from repro.replication import LocalSource, Replica, ReplicationPublisher

    started = time.perf_counter()
    database = _open(directory)
    database.load(common.build_document_text(SCALE), uri="xmark.xml")
    database.checkpoint()
    publisher = ReplicationPublisher(database)
    replica = Replica(LocalSource(publisher), replica_id="perfbench")
    replica.bootstrap()
    return database, publisher, replica, time.perf_counter() - started


class Cycles:
    """The cycle sequence, with every check the loop must not time."""

    def __init__(self, seed: int, database, replica):
        self.seed = seed
        self.database = database
        self.replica = replica
        self.rng = random.Random(f"write-mix:{seed}")
        self.serial = 0
        self.live: collections.deque = collections.deque()
        self.inserted: set = set()
        self.deleted: set = set()
        self.stable: dict = {}       # text -> digest of first result
        self.problems: list = []
        self.count_checked = False

    def write(self) -> str:
        """One insert or delete; returns the touched person id."""
        serial = self.serial
        if serial % 2 == 0 or len(self.live) < LIVE_WINDOW:
            person = f"bench{self.seed}-{serial}"
            self.database.insert(
                "/site/people",
                f"<person id=\"{person}\"><name>Bench {serial}</name>"
                f"<emailaddress>mailto:{person}@example.com</emailaddress>"
                f"<profile income=\"{20000 + serial}\"><education>College"
                f"</education></profile></person>")
            self.live.append(person)
            self.inserted.add(person)
        else:
            person = self.live.popleft()
            self.database.delete(f"/site/people/person[@id = '{person}']")
            self.inserted.discard(person)
            self.deleted.add(person)
        return person

    def reads(self, person: str) -> list:
        """``(database, text, checked at once)`` for one cycle.  The
        replica serves the changed-person read (read-your-writes after
        its poll) and every other auction read, the primary the rest;
        the first auction read on each has a descendant step."""
        primary, replica = self.database, self.replica.database
        out = [(replica, f"/site/people/person[@id = '{person}']/name",
                True)]
        for k in range(STABLE_READS):
            text = queries.stable_read_text(
                self.rng, self.serial * STABLE_READS + k, descendant=k < 2)
            out.append((replica if k % 2 else primary, text, False))
        out.append((primary, COUNT_TEXT, not self.count_checked))
        self.count_checked = True
        return out

    def check_now(self, database, text: str, items: list) -> None:
        """Reads whose answer depends on the version (the changed person,
        the first count) are checked against the reference interpreter
        at once; the auction reads are checked after the run."""
        expected = common.digest(database.reference_query(text))
        if common.digest(items) != expected:
            self.problems.append(f"reference mismatch: {text}")

    def run(self, clock, samples=None, sample_cycles: int = 0,
            recorder=None, until=None) -> dict:
        """Cycles until ``clock`` runs out or ``until()`` holds;
        latencies in seconds."""
        out = {"write": [], "lag": [], "read": [], "failed": 0,
               "attempted": 0, "cycles": 0, "builds": 0}
        while clock.running() and not (until and until()):
            if recorder is not None:
                recorder.request_id = self.serial
            out["attempted"] += 1
            started = time.perf_counter()
            try:
                person = self.write()
            except Exception as exc:  # counted, and fails the gate
                out["failed"] += 1
                self.problems.append(f"write failed: {exc!r}")
                self.serial += 1
                continue
            acked = time.perf_counter()
            out["write"].append(acked - started)
            self.replica.poll_once()
            out["lag"].append(time.perf_counter() - acked)
            for database, text, check_now in self.reads(person):
                out["attempted"] += 1
                started = time.perf_counter()
                try:
                    result = database.query(text)
                except Exception as exc:
                    out["failed"] += 1
                    self.problems.append(f"read failed: {text}: {exc!r}")
                    continue
                out["read"].append(time.perf_counter() - started)
                if samples is not None and out["cycles"] < sample_cycles:
                    samples.append(layers.read_sample(result))
                # Digest at once: holding result nodes would pin their
                # versions in the benchmark itself.
                with clock.pause():
                    if check_now:
                        self.check_now(database, text, result.items)
                    elif text != COUNT_TEXT and text not in self.stable:
                        self.stable[text] = common.digest(result.items)
            if samples is not None:
                # Each version's runtime builds its columnar view at most
                # once, and every cycle publishes a new version on both.
                out["builds"] += sum(
                    db.document().runtime.column_builds
                    for db in (self.database, self.replica.database))
            self.serial += 1
            out["cycles"] += 1
        out["elapsed"] = clock.elapsed()
        return out


def _write_layers(metrics, recorder, traced, database, replica, publisher,
                  before) -> None:
    writes = len(traced["write"])
    polls = len(traced["lag"])
    reads = len(traced["read"])

    def ms(names, **kwargs):
        return recorder.select(names, **kwargs)[0]

    layers.read_path(metrics, recorder, reads,
                     not_under=WRITE_SPANS + ("replica.poll_once",))
    primary = {"not_under": ("replica.poll_once",)}
    metrics["engine.write.locate.ms"] = ms(
        ("db.query",), under=WRITE_SPANS, self_time=False, **primary) / writes
    metrics["engine.write.clone.ms"] = ms(
        ("materialise_tree", "content.clone", "succinct.clone",
         "interval.clone"), under=WRITE_SPANS, **primary) / writes
    metrics["engine.write.other.ms"] = ms(WRITE_SPANS, **primary) / writes
    metrics["storage.splice.ms"] = ms(
        ("succinct.insert_subtree", "succinct.delete_subtree",
         "interval.insert_subtree", "interval.delete_subtree"),
        under=WRITE_SPANS, **primary) / writes
    metrics["durability.wal.append.ms"] = ms(("wal.append",)) / writes
    checkpoint_ms, checkpoints = recorder.select(("write_checkpoint",),
                                                 self_time=False)
    metrics["durability.checkpoint.ms"] = (checkpoint_ms / checkpoints
                                           if checkpoints else 0.0)
    metrics["durability.checkpoints"] = 100.0 * checkpoints / writes
    fetch_ms, _ = recorder.select(("publisher.handle",),
                                  under=("replica.poll_once",),
                                  self_time=False)
    poll_ms, _ = recorder.select(("replica.poll_once",), self_time=False)
    metrics["replication.fetch.ms"] = fetch_ms / polls
    metrics["replication.apply.ms"] = (poll_ms - fetch_ms) / polls

    report = database.durability_report()
    metrics["durability.wal.bytes_per_write"] = (
        (report["bytes_logged"] - before["durability"]["bytes_logged"])
        / max(1, report["records_logged"]
              - before["durability"]["records_logged"]))
    status, shipped = replica.status(), publisher.report()
    metrics["replication.records_per_poll"] = (
        (status["records_applied"] - before["replica"]["records_applied"])
        / max(1, status["batches_received"]
              - before["replica"]["batches_received"]))
    metrics["replication.bytes_per_record"] = (
        (shipped["bytes_shipped"] - before["publisher"]["bytes_shipped"])
        / max(1, shipped["records_shipped"]
              - before["publisher"]["records_shipped"]))
    metrics["storage.columns.builds"] = traced["builds"] / max(
        1, writes + reads)
    metrics["engine.cache.result_entries"] = \
        database.result_cache.report()["entries"]


def _disk_bytes(directory) -> int:
    return sum(path.stat().st_size for path in directory.rglob("*")
               if path.is_file())


def run(seed: int, seconds: float, trace: bool, work_dir) -> dict:
    setups = []
    database = publisher = replica = None
    for index in range(SETUPS):
        if database is not None:
            replica.stop()
            database.close()
        directory = work_dir / f"s{index}"
        database, publisher, replica, took = _base_set_up(directory)
        setups.append(took)
    cycles = Cycles(seed, database, replica)
    fill_started = time.perf_counter()
    caches = (database.result_cache, replica.database.result_cache)
    fill = cycles.run(common.Clock(float("inf")), until=lambda: all(
        cache.report()["entries"] >= cache.report()["capacity"]
        for cache in caches))
    setup_s = common.median(setups) + time.perf_counter() - fill_started

    phase = cycles.run(common.Clock(seconds))
    attempted = fill["attempted"] + phase["attempted"]
    failed = fill["failed"] + phase["failed"]
    metrics = {}
    recorder = None
    if trace:
        before = {"durability": database.durability_report(),
                  "replica": replica.status(),
                  "publisher": publisher.report()}
        samples: list = []
        recorder = SpanRecorder()
        recorder.install()
        try:
            with GcMonitor() as gc_monitor:
                traced = cycles.run(common.Clock(seconds), samples, 20,
                                    recorder)
        finally:
            recorder.uninstall()
        metrics = layers.empty()
        _write_layers(metrics, recorder, traced, database, replica,
                      publisher, before)
        layers.read_counters(metrics, samples)
        layers.cache_ratios(metrics, samples)
        ops = len(traced["write"]) + len(traced["read"])
        layers.harness(metrics, gc_monitor, ops,
                       traced["write"] + traced["lag"] + traced["read"],
                       recorder)
        metrics["durability.disk_bytes_per_doc_byte"] = (
            _disk_bytes(directory)
            / len(common.build_document_text(SCALE)))
        metrics["bench.trace_overhead_ratio"] = (
            common.median(traced["read"]) / common.median(phase["read"]))
        attempted += traced["attempted"]
        failed += traced["failed"]

    # A fixed WAL suffix past a fresh checkpoint, then close and reopen.
    database.checkpoint()
    for _ in range(WAL_SUFFIX):
        cycles.write()
        cycles.serial += 1
    while replica.applied_lsn < publisher.primary_lsn():
        replica.poll_once()
    problems = list(cycles.problems)
    if replica.database.version_vector() != database.version_vector():
        problems.append("replica version vector differs from the primary")
    sample_texts = [COUNT_TEXT, "/site/people/person/@id",
                    *list(cycles.stable)[:20]]
    for text in sample_texts:
        if (common.digest(replica.database.query(text).items)
                != common.digest(database.query(text).items)):
            problems.append(f"replica answer differs: {text}")
    replica.stop()
    database.close()
    recover_recorder = SpanRecorder() if trace else None
    if recover_recorder is not None:
        recover_recorder.install()
    try:
        reopen_started = time.perf_counter()
        reopened = _open(directory)
        recover_s = time.perf_counter() - reopen_started
    finally:
        if recover_recorder is not None:
            recover_recorder.uninstall()
    replayed = reopened.durability_report()["last_recovery"][
        "wal_records_replayed"]
    if replayed != WAL_SUFFIX:
        problems.append(f"recovery replayed {replayed} WAL records, "
                        f"expected {WAL_SUFFIX}")
    if recover_recorder is not None:
        metrics["durability.recover.ms_per_record"] = (
            recover_recorder.select(("recover",), self_time=False)[0]
            / max(1, replayed))
    present = {str(value) for value in
               reopened.query("/site/people/person/@id").values()}
    lost = cycles.inserted - present
    resurrected = cycles.deleted & present
    if lost:
        problems.append(f"{len(lost)} acknowledged inserts lost")
    if resurrected:
        problems.append(f"{len(resurrected)} acknowledged deletes undone")
    reopened.close()

    texts = sorted(cycles.stable)
    expected = common.reference_digests(SCALE, texts)
    problems += [f"reference mismatch: {text}"
                 for text, want in zip(texts, expected)
                 if cycles.stable[text] != want]

    reads, writes = phase["read"], phase["write"]
    return {
        "end_to_end": {
            "setup_s": setup_s,
            "read_p50_ms": 1e3 * common.median(reads),
            "read_p99_ms": 1e3 * common.percentile(reads, 0.99),
            "ops_per_s": (len(reads) + len(writes)) / phase["elapsed"],
            "peak_rss_mb": common.peak_rss_mb(),
        },
        "extra": {
            "write_p50_ms": (1e3 * common.median(writes), "ms"),
            "write_p95_ms": (1e3 * common.percentile(writes, 0.95), "ms"),
            "replica_lag_p50_ms": (1e3 * common.median(phase["lag"]),
                                   "ms"),
            "recover_s": (recover_s, "s"),
            "writes": (len(writes), "count"),
            "reads": (len(reads), "count"),
            "distinct_texts_checked": (len(texts), "count"),
        },
        "per_layer": metrics, "attempted": attempted, "failed": failed,
        "problems": problems,
    }

"""Helpers shared by the workloads: statistics, result digests, the
reference-interpreter check and the result line."""

from __future__ import annotations

import contextlib
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def percentile(samples: list, fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in [0, 1])."""
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, round(fraction * len(ordered)) - 1))
    return ordered[index]


def median(samples: list) -> float:
    return statistics.median(samples)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(items) -> str:
    """Order-sensitive digest of a result sequence: nodes by their XML
    text, atomics by type and value."""
    from repro.xml import model
    from repro.xml.serializer import serialize

    hasher = hashlib.sha1()
    for item in items:
        if isinstance(item, model.Node):
            text = "n:" + serialize(item)
        elif isinstance(item, bool):
            text = f"b:{item}"
        elif isinstance(item, (int, float)):
            text = f"d:{float(item)!r}"
        else:
            text = f"s:{item}"
        hasher.update(text.encode())
        hasher.update(b"\0")
    return hasher.hexdigest()


def value_digest(values) -> str:
    """Digest of a served response's ``items`` (string values or XML
    text), comparable with :func:`reference_value_digest`."""
    hasher = hashlib.sha1()
    for value in values:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            text = f"{value}"
        else:
            text = f"{float(value)!r}"
        hasher.update(text.encode())
        hasher.update(b"\0")
    return hasher.hexdigest()


def reference_value_digest(items, xml: bool) -> str:
    from repro.xml import model
    from repro.xml.serializer import serialize

    values = []
    for item in items:
        if isinstance(item, model.Node):
            values.append(serialize(item) if xml else item.string_value())
        else:
            values.append(str(item) if xml else item)
    return value_digest(values)


# One document per scale: the workload seed varies the query literals,
# request order and write targets, not the document, so run-to-run
# spread reflects the program rather than a different input size.
DOCUMENT_SEED = 42


def build_document_text(scale: int) -> str:
    from repro.workload import generate_xmark
    from repro.xml.serializer import serialize

    return serialize(generate_xmark(scale=scale, seed=DOCUMENT_SEED))


def _reference_worker(scale: int, texts: list) -> list:
    """Reference-interpreter digests for ``texts`` over a freshly
    generated document (runs in a child interpreter)."""
    from repro.engine.database import Database

    database = Database()
    database.load(build_document_text(scale), uri="xmark.xml")
    return [digest(database.reference_query(text)) for text in texts]


def reference_digests(scale: int, texts: list,
                      processes: int = 2) -> list:
    """Digests of ``Database.reference_query`` for each text, computed
    on the unmodified generated document in ``processes`` child
    interpreters (each text is checked once, outside any timed region).

    Every child is waited for, or killed and then waited for, before
    this returns or raises, so none outlives the benchmark."""
    import subprocess

    if not texts:
        return []
    children = []
    try:
        for index in range(processes):
            child = subprocess.Popen(
                [sys.executable, __file__, str(scale)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
            children.append(child)
            child.stdin.write(json.dumps(texts[index::processes]) + "\n")
            child.stdin.flush()
        chunks = []
        for child in children:
            out, _ = child.communicate(timeout=150)
            if child.returncode != 0:
                raise RuntimeError(
                    f"reference worker exited with {child.returncode}")
            chunks.append(json.loads(out))
    finally:
        for child in children:
            if child.poll() is None:
                child.kill()
            child.wait()
    results: list = [None] * len(texts)
    for index, chunk in enumerate(chunks):
        results[index::processes] = chunk
    return results


class Clock:
    """A measured phase that can exclude untimed intervals (the
    correctness checks that must run between operations)."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.started = time.perf_counter()
        self.paused = 0.0

    def running(self) -> bool:
        return self.elapsed() < self.seconds

    def elapsed(self) -> float:
        return time.perf_counter() - self.started - self.paused

    @contextlib.contextmanager
    def pause(self):
        """Leave the enclosed interval out of the measured time."""
        at = time.perf_counter()
        try:
            yield
        finally:
            self.paused += time.perf_counter() - at


def emit(result: dict, table: list) -> None:
    """Print the human-readable table, then the result line last."""
    for name, value, unit in table:
        print(f"  {name:<40} {value:>14.4f} {unit}")
    print(json.dumps(result, sort_keys=False))


if __name__ == "__main__":
    # Reference worker: one JSON line of texts in, their digests out.
    sys.path.insert(0, str(SRC))
    print(json.dumps(_reference_worker(int(sys.argv[1]),
                                       json.loads(sys.stdin.readline()))))

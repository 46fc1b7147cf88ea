"""One seeded benchmark for the engine: in-process reads, served reads
and durable replicated writes.

    python3 perfbench/run.py --workload read-large --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` first repeats the untraced phase, then runs a traced phase
of the same length and reports the per-layer metrics (see ``layers``).
Every answer is checked; a failed check makes the exit code non-zero.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import importlib
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = {"read-large": "read_large", "served-mixed": "served_mixed",
             "write-mix": "write_mix"}
UNITS = {"setup_s": "s", "read_p50_ms": "ms", "read_p99_ms": "ms",
         "ops_per_s": "1/s", "peak_rss_mb": "MB"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: engine sources not found under {SRC}",
              file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Fixed string hashing, so set iteration order inside the engine
        # (and every count derived from it) repeats from run to run.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    sys.path.insert(0, str(SRC))

    import common
    import layers

    module = importlib.import_module(WORKLOADS[args.workload])
    # Scratch files stay inside the checkout and are removed at exit.
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                     dir=work_root))
    try:
        outcome = module.run(args.seed, args.seconds, bool(args.trace),
                             work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if not any(work_root.iterdir()):
            work_root.rmdir()
    table = [(name, value, UNITS[name])
             for name, value in outcome["end_to_end"].items()]
    table += [(name, value, unit)
              for name, (value, unit) in outcome["extra"].items()]
    attempted, failed = outcome["attempted"], outcome["failed"]
    table.append(("error_ratio", failed / max(1, attempted), "ratio"))
    if args.trace:
        metrics = {name: {"value": value, "unit": layers.UNITS[name]}
                   for name, value in outcome["per_layer"].items()}
        table += [(name, value, layers.UNITS[name])
                  for name, value in outcome["per_layer"].items()]
    else:
        metrics = {name: {"value": value, "unit": UNITS[name]}
                   for name, value in outcome["end_to_end"].items()}
    for problem in outcome["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    correct = not outcome["problems"] and failed == 0
    print(f"workload {args.workload} seed {args.seed} "
          f"seconds {args.seconds:g} trace {args.trace}")
    common.emit({"correct": correct, "attempted": attempted,
                 "failed": failed, "metrics": metrics}, table)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

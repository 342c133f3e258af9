"""One pass of one workload in a fresh interpreter; prints one JSON line.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/worker.py --workload span-deg5 --seed 1 [--traced] [--stats]

The first thing the pass does is import algforge, which parses the fixture
corpus; the monotonic clock reading taken right after is reported as
``ready``, so the caller can compute set-up time from interpreter start.
The pass then samples the interpreter's speed (``speed.py``) once for the
set-up and all through the timed part, and reports both speed factors.
"""

import sys
import time

if "--traced" in sys.argv:
    # the corpus is parsed while algforge.fixtures is imported, so its
    # parse_file spans need the wrapper in place before that import
    import spans

    TRACER = spans.Tracer()
    import algforge.parsing

    TRACER.install(only=spans.EARLY)
else:
    TRACER = None

import algforge.cli  # noqa: E402  (imports every module and parses the corpus)

READY = time.monotonic()

from speed import SETUP_BLOCKS, Speed  # noqa: E402  (found beside this script, first on sys.path)

SETUP_SPEED = Speed()
SETUP_SPEED.sample(SETUP_BLOCKS)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--stats", action="store_true")
    args = parser.parse_args()

    lib = workloads.Lib()
    spec = workloads.generate(args.workload, args.seed)
    inputs = workloads.materialize(args.workload, lib, spec)
    speed = Speed()
    if TRACER is not None:
        TRACER.clock = speed.now  # equal to perf_counter until the first sample
        TRACER.install()
    try:
        result = workloads.run(args.workload, lib, inputs, probe=TRACER is None, speed=speed)
    finally:
        if TRACER is not None:
            TRACER.restore()
    verdicts = result["verdicts"]
    checked = workloads.post_check(args.workload, lib, inputs, verdicts, args.stats)
    out = {
        "ready": READY,
        "wall_s": result["wall_s"],
        "ops_s": result["ops_s"],
        "builds_s": result["builds_s"],
        "sections_s": result.get("sections_s", {}),
        "speed_factor": speed.factor(),
        "speed_samples": len(speed.blocks),
        "setup_speed_factor": SETUP_SPEED.factor(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "errors": verdicts.errors[:10],
        "verdict_digest": verdicts.digest(),
        "report_digest": result.get("report_digest"),
        "input_digest": checked["input_digest"],
        "extra": checked["extra"],
    }
    if TRACER is not None:
        out["layers"] = TRACER.summary(result["t0"], result["wall_s"])
        out["absent"] = TRACER.absent
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

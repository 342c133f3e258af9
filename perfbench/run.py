"""algforge benchmark: run one workload for a while and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload span-deg5 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

A run is a sequence of passes.  Each pass is a fresh, single-threaded
interpreter (``worker.py``) that imports algforge from ``src/``, builds the
workload's inputs from the seed and times only the calls into the library,
so every pass pays the import, the corpus parse and cold module caches, as
every ``forge`` invocation does.  Passes run one after another and the
runner itself only waits while one runs.  A pass starts only if it is
expected to end within ``--seconds`` (at least three run with ``--trace 0``).

With ``--trace 0`` every time is first divided by its pass's speed factor
(``speed.py``: the pass's mean reference-block time over the nominal one), so
it reads as at the nominal interpreter speed whatever share of the shared
host a neighbour took.  ``setup_s`` and ``wall_s`` are medians over the
passes.  Every pass of a seed runs the same units (queries, builds,
sections) in the same order, so each unit's time is averaged over the
passes, and ``op_*``/``build_*`` are percentiles over those unit averages.
The table also prints the raw (undivided) medians.
With ``--trace 1`` untraced and traced passes alternate; the per-layer
metrics are medians over the traced passes, times divided by the pass's speed
factor, and the tracing overhead is the traced minus the untraced median
divided wall time.

The run checks every verdict against its known answer and that every pass
of the seed saw the same inputs and gave the same verdicts (and, for
``replay-all``, the same report bytes), traced or not.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from workloads import HEAVY_SECTIONS, WORKLOADS  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("build_p50_ms", "ms"),
)
MIN_PLAIN_PASSES = 3
PASS_TIMEOUT_S = 120
RUN_BUDGET_S = 150  # no pass starts that could end after this


def _percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


class Runner:
    def __init__(self, root: Path):
        self.root = root
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.env = env

    def warm_up(self) -> str | None:
        """Import once untimed (byte-compiles the sources); error text or None."""
        proc = subprocess.run(
            [sys.executable, "-c", "import algforge.cli"],
            cwd=self.root, env=self.env, capture_output=True, text=True,
            timeout=PASS_TIMEOUT_S,
        )
        return None if proc.returncode == 0 else proc.stderr.strip()[-2000:]

    def one_pass(self, workload: str, seed: int, traced: bool, stats: bool) -> dict:
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(seed)]
        cmd += ["--traced"] if traced else []
        cmd += ["--stats"] if stats else []
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=PASS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return {"error": f"pass timed out after {PASS_TIMEOUT_S} s", "traced": traced}
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = proc.stderr.strip().splitlines()[-5:]
            return {"error": f"pass exited {proc.returncode}: " + " | ".join(tail),
                    "traced": traced}
        out = json.loads(lines[-1])
        out["setup_s"] = out["ready"] - spawned
        out["traced"] = traced
        return out

    def run(self, workload: str, seed: int, seconds: float, trace: bool) -> dict:
        start = time.monotonic()
        passes: list[dict] = []
        longest = 0.0
        while True:
            traced = trace and len(passes) % 2 == 1
            t0 = time.monotonic()
            passes.append(self.one_pass(workload, seed, traced, stats=not passes))
            longest = max(longest, time.monotonic() - t0)
            elapsed = time.monotonic() - start
            plain = sum(1 for p in passes if not p["traced"])
            enough = (plain >= 1 and len(passes) >= 2) if trace else plain >= MIN_PLAIN_PASSES
            if (elapsed + longest > seconds and enough) or elapsed + longest > RUN_BUDGET_S:
                break
        return summarize(workload, seed, passes, trace)


def _unit_means(per_pass: list[list[float]], factors: list[float]) -> list[float]:
    """Each unit's speed-divided time, averaged over the passes that ran
    every unit (a pass with a raised unit is already an incorrect run)."""
    n = max(map(len, per_pass))
    full = [(times, k) for times, k in zip(per_pass, factors) if len(times) == n]
    return [statistics.fmean(times[i] / k for times, k in full) for i in range(n)]


def summarize(workload: str, seed: int, passes: list[dict], trace: bool) -> dict:
    good = [p for p in passes if "error" not in p]
    problems = [p["error"] for p in passes if "error" in p]
    attempted = sum(p["attempted"] for p in good) + len(problems)
    failed = sum(p["failed"] for p in good) + len(problems)
    for p in good:
        problems += p["errors"]
    for key in ("input_digest", "verdict_digest", "report_digest"):
        values = {p[key] for p in good}
        if len(values) > 1:
            problems.append(f"{key} differs between passes of one seed: {sorted(map(str, values))}")
    plain = [p for p in good if not p["traced"]]
    traced = [p for p in good if p["traced"]]
    result = {
        "workload": workload, "seed": seed,
        "passes": len(passes), "plain": len(plain), "traced": len(traced),
        "correct": not problems and failed == 0 and bool(plain),
        "attempted": max(attempted, 1), "failed": failed, "problems": problems,
        "digests": {k: good[0][k] for k in ("input_digest", "verdict_digest", "report_digest")}
        if good else {},
        "extra": good[0]["extra"] if good else {},
        "metrics": {},
        "info": {},
    }
    if not plain:
        return result
    if not all(p["speed_factor"] and p["setup_speed_factor"] for p in good):
        result["correct"] = False
        problems.append("a pass took no speed sample")
        return result
    ops = [x for p in plain for x in p["ops_s"]]
    builds = [x for p in plain for x in p["builds_s"]]
    wall = statistics.median(p["wall_s"] for p in plain)
    info = {"error_rate": failed / max(attempted, 1), "ops": len(ops), "builds": len(builds),
            "pass_wall_s": " ".join(f"{p['wall_s']:.3f}" for p in plain)}
    if ops and builds:
        info.update({
            "raw.setup_s": statistics.median(p["setup_s"] for p in plain),
            "raw.wall_s": wall,
            "raw.op_p50_ms": _percentile(ops, 50) * 1000,
            "raw.build_p50_ms": _percentile(builds, 50) * 1000,
        })
    for name in HEAVY_SECTIONS:  # speed-divided, like the metrics
        times = [p["sections_s"][name] / p["speed_factor"]
                 for p in plain if name in p["sections_s"]]
        if times:
            info[f"section.{name}_s"] = statistics.median(times)
    result["info"] = info
    if not trace:
        if not ops or not builds:
            result["correct"] = False
            problems.append("no op or build latency was recorded")
            return result
        k = [p["speed_factor"] for p in plain]
        info["speed_factor"] = statistics.median(k)
        unit_ops = _unit_means([p["ops_s"] for p in plain], k)
        unit_builds = _unit_means([p["builds_s"] for p in plain], k)
        values = {
            "setup_s": statistics.median(p["setup_s"] / p["setup_speed_factor"] for p in plain),
            "wall_s": statistics.median(p["wall_s"] / f for p, f in zip(plain, k)),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
            "op_p50_ms": _percentile(unit_ops, 50) * 1000,
            "op_p90_ms": _percentile(unit_ops, 90) * 1000,
            "build_p50_ms": _percentile(unit_builds, 50) * 1000,
        }
        units = dict(END_TO_END)
    else:
        if not traced:
            result["correct"] = False
            problems.append("no traced pass completed")
            return result
        units = dict(spans.per_layer_metrics())
        values = spans.median_metrics([
            {k: v / p["speed_factor"] if units.get(k) == "s" else v for k, v in p["layers"].items()}
            for p in traced
        ])
        values["trace.untraced_wall_s"] = statistics.median(p["wall_s"] / p["speed_factor"]
                                                            for p in plain)
        values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
        absent = sorted({name for p in traced for name in p["absent"]})
        info["absent_targets"] = ", ".join(absent) or "none"
    result["metrics"] = {k: {"value": values[k], "unit": units[k]} for k in units}
    return result


def _print_table(res: dict) -> None:
    print(f"== {res['workload']}  seed {res['seed']}  passes {res['passes']} "
          f"(untraced {res['plain']}, traced {res['traced']})")
    for key, value in res["digests"].items():
        if value is not None:
            print(f"  {key:<28} {value}")
    print(f"  {'verdicts':<28} {res['attempted'] - res['failed']}/{res['attempted']} correct")
    for key, value in sorted(res["info"].items()):
        print(f"  {key:<28} {value:.6g}" if isinstance(value, float) else f"  {key:<28} {value}")
    for key, value in sorted(res["extra"].items()):
        print(f"  {key:<28} {value:.6g}")
    for name, m in res["metrics"].items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    for problem in res["problems"][:10]:
        print(f"  PROBLEM: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "algforge" / "__init__.py").is_file():
        print(f"error: no algforge sources under {root / 'src'}; run from the "
              "repository root", file=sys.stderr)
        return 2
    runner = Runner(root)
    failure = runner.warm_up()
    if failure is not None:
        print(f"error: algforge does not import: {failure}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        res = runner.run(name, args.seed, args.seconds, bool(args.trace))
        _print_table(res)
        results.append(res)
    if any(not r["metrics"] for r in results):
        print("error: no pass produced metrics", file=sys.stderr)
        return 1
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": m for r in results for k, m in r["metrics"].items()}
    line = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())

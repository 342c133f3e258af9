"""Self-tests of the benchmark: seeded inputs, verdict checking, tracer wiring.

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SEEDED = ("span-deg5", "jordan-deg5", "systems-3d")


@pytest.fixture(scope="module")
def lib():
    return workloads.Lib()


def _input_digest(workload, lib, seed):
    inputs = workloads.materialize(workload, lib, workloads.generate(workload, seed))
    return workloads.post_check(workload, lib, inputs, workloads.Verdicts(), False)["input_digest"]


@pytest.mark.parametrize("workload", SEEDED)
def test_seed_reproducibility(workload, lib):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)
    assert _input_digest(workload, lib, 7) == _input_digest(workload, lib, 7)
    assert _input_digest(workload, lib, 7) != _input_digest(workload, lib, 8)


def test_span_known_answers_hold_and_a_flipped_one_is_flagged(lib):
    spec = workloads.gen_span(3)
    spec["sessions"] = spec["sessions"][:3]
    spec["equivs"] = spec["equivs"][:1]
    inputs = workloads.materialize("span-deg5", lib, spec)
    assert workloads.run_span(lib, inputs)["verdicts"].failed == 0

    spec["sessions"][1]["queries"][0]["expected"] ^= True
    verdicts = workloads.run_span(lib, inputs)["verdicts"]
    assert verdicts.failed == 1
    assert verdicts.errors[0].startswith("s1q0:")


def test_replay_checker_flags_flipped_missing_and_new_failing_claims():
    pins = workloads.load_pins()
    assert len(pins) == 105
    assert sum(status == "FAIL" for _, status, _ in pins) == 7

    def score(observed, exit_code=1):
        verdicts = workloads.Verdicts()
        workloads.score_replay(observed, exit_code, pins, verdicts)
        return verdicts

    assert score(list(pins)).failed == 0
    flipped = list(pins)
    sec, status, name = flipped[10]
    flipped[10] = (sec, "FAIL" if status == "PASS" else "PASS", name)
    assert score(flipped).failed == 1
    assert score(pins[1:]).failed == 1
    assert score(pins + [("sec8", "FAIL", "a new claim")]).failed == 1
    assert score(pins + [("sec8", "PASS", "a new claim")]).failed == 0
    assert score(list(pins), exit_code=0).failed == 1


def test_parse_report_strips_details():
    text = "== thm7.1 ==\nPASS  a claim\nFAIL  b claim  [8 violating triples]\n-- thm7.1: FAIL\n"
    assert workloads.parse_report(text) == [("thm7.1", "PASS", "a claim"),
                                            ("thm7.1", "FAIL", "b claim")]


def _fake_pass(failed=0, traced=False):
    return {"attempted": 10, "failed": failed, "errors": ["x: got 1, expected 2"] * failed,
            "input_digest": "i", "verdict_digest": "v", "report_digest": None,
            "extra": {}, "traced": traced, "ops_s": [0.001, 0.002], "builds_s": [0.01],
            "sections_s": {}, "wall_s": 1.0, "setup_s": 0.1, "peak_rss_mb": 30.0,
            "speed_factor": 1.25, "setup_speed_factor": 1.0}


def test_summary_reports_error_rate_and_incorrect_run():
    ok = run.summarize("span-deg5", 1, [_fake_pass(), _fake_pass()], trace=False)
    assert ok["correct"] and ok["info"]["error_rate"] == 0
    assert [k for k in ok["metrics"]] == [k for k, _ in run.END_TO_END]

    bad = run.summarize("span-deg5", 1, [_fake_pass(), _fake_pass(failed=1)], trace=False)
    assert not bad["correct"] and bad["info"]["error_rate"] > 0

    drift = _fake_pass()
    drift["verdict_digest"] = "w"
    assert not run.summarize("span-deg5", 1, [_fake_pass(), drift], trace=False)["correct"]


def test_summary_divides_times_by_each_pass_speed_factor():
    slow = _fake_pass()
    slow.update(speed_factor=2.5, wall_s=2.0, ops_s=[0.002, 0.004], builds_s=[0.02])
    metrics = run.summarize("span-deg5", 1, [_fake_pass(), slow], trace=False)["metrics"]
    assert metrics["wall_s"]["value"] == pytest.approx(0.8)
    assert metrics["setup_s"]["value"] == pytest.approx(0.1)
    # unit averages over the passes: 0.0008 and 0.0016 s
    assert metrics["op_p50_ms"]["value"] == pytest.approx(1.2)
    assert metrics["build_p50_ms"]["value"] == pytest.approx(8.0)

    unsampled = _fake_pass()
    unsampled["speed_factor"] = None
    assert not run.summarize("span-deg5", 1, [_fake_pass(), unsampled], trace=False)["correct"]


def test_traced_summary_divides_layer_times_but_not_counts():
    plain = _fake_pass()
    traced = _fake_pass(traced=True)
    traced["speed_factor"] = 2.0
    traced["layers"] = {name: 3.0 for name, _ in spans.per_layer_metrics()}
    traced["absent"] = []
    metrics = run.summarize("span-deg5", 1, [plain, traced], trace=True)["metrics"]
    assert metrics["core.relabel.self_s"]["value"] == 1.5
    assert metrics["core.relabel.calls"]["value"] == 3.0
    assert metrics["trace.untraced_wall_s"]["value"] == pytest.approx(0.8)
    assert metrics["trace.overhead_s"]["value"] == pytest.approx(1.5 - 0.8)


def test_speed_clock_leaves_out_sampling_time():
    import speed

    clock = speed.Speed()
    t0 = clock.now()
    clock.sample(5)
    assert len(clock.blocks) == 5
    assert clock.now() - t0 < sum(clock.blocks) / 2
    assert clock.factor() > 0

    timed = speed.Speed()
    with timed.sampling():
        start, t0 = time.perf_counter(), timed.now()
        while time.perf_counter() - start < 20 * speed.INTERVAL_S:
            pass
        elapsed = timed.now() - t0
    assert len(timed.blocks) >= 5
    assert elapsed == pytest.approx(20 * speed.INTERVAL_S - timed.spent, abs=0.005)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert speed.Speed().factor() is None


def _bindings(original):
    return [m for m in spans._library_modules() if any(v is original for v in m.__dict__.values())]


def test_wrappers_cover_every_import_site_and_are_restored(lib):
    resolved = {t: spans._resolve(t) for t in spans.TARGETS}
    assert all(resolved.values()), [t.span for t, r in resolved.items() if r is None]
    sites = {t: _bindings(r[2]) for t, r in resolved.items() if not isinstance(r[0], type)}
    sections = dict(lib.checks.SECTIONS)
    # names copied by ``from .x import f`` into other modules
    relabel = next(t for t in sites if t.span == "core.relabel")
    fixture = next(t for t in sites if t.span == "fixtures.fixture")
    assert {m.__name__ for m in sites[relabel]} >= {"algforge", "algforge.consequence"}
    assert {m.__name__ for m in sites[fixture]} >= {"algforge.checks", "algforge.cli"}

    tracer = spans.Tracer()
    tracer.install()
    try:
        for target, (owner, attr, original) in resolved.items():
            if isinstance(owner, type):
                assert owner.__dict__[attr].__wrapped__ is original
                continue
            for module in sites[target]:
                bound = module.__dict__[attr]
                if target.boundary and module is owner:
                    assert bound is original
                else:
                    assert bound is not original and bound.__wrapped__ is original
        for name, fn in lib.checks.SECTIONS.items():
            assert fn.__wrapped__ is sections[name]
        assert tracer.absent == []
    finally:
        tracer.restore()

    for target, (owner, attr, original) in resolved.items():
        if isinstance(owner, type):
            assert owner.__dict__[attr] is original
        else:
            for module in sites[target]:
                assert module.__dict__[attr] is original
    assert lib.checks.SECTIONS == sections
    for module in spans._library_modules():
        assert not any(hasattr(v, "__wrapped__") for v in vars(module).values()
                       if callable(v) and not isinstance(v, type))


def test_spans_nest_and_self_time_excludes_children(lib):
    tracer = spans.Tracer()
    tracer.install()
    try:
        fx = lib.fixtures
        vs = lib.core.variables("abc")
        result = lib.consequence.sets_equivalent(
            [fx.fixture("right-anticomm")], [fx.fixture("right-anticomm")], 3, vs)
    finally:
        tracer.restore()
    assert result.equivalent
    summary = tracer.summary(0.0, 1.0)
    assert summary["consequence.sets_equivalent.calls"] == 1
    assert summary["linalg.PivotTable.add.calls"] > 0
    names = {s[0]: s[2] for s in tracer.spans}
    parents = {names[s[1]] for s in tracer.spans if s[2] == "linalg.PivotTable.add"}
    assert parents == {"consequence.SpanChecker.build"}
    total = sum(s[4] - s[3] for s in tracer.spans if s[2] == "consequence.sets_equivalent")
    assert 0 <= summary["consequence.sets_equivalent.self_s"] < total


def test_missing_target_is_reported_absent(monkeypatch, lib):
    gone = spans.Target("linalg.rref", "algforge.linalg", "no_such_function")
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (gone,))
    tracer = spans.Tracer()
    tracer.install()
    tracer.restore()
    assert tracer.absent == ["linalg.rref"]


def test_benchmark_json_matches_the_runner():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == spans.per_layer_metrics()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "replay-all", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""The benchmark's own tests: entry point, percentile rule, checks, tracing."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import qoct  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(tmp_path, *args, root=ROOT):
    proc = subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), *args, "--results", str(tmp_path)],
        cwd=root, capture_output=True, text=True, timeout=600,
    )
    return proc


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_through_entry_point(tmp_path, workload):
    proc = bench(tmp_path, "--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True
    assert doc["attempted"] >= 1
    if workload in {w["name"] for w in SPEC["workloads"]}:
        assert doc["failed"] == 0
    assert set(doc["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert doc["metrics"][m["name"]]["unit"] == m["unit"]
        assert doc["metrics"][m["name"]]["value"] > 0
    record = json.loads((tmp_path / f"{workload}-seed3-trace0.json").read_text())
    assert record["selfcheck"]["untraced_imports_no_wrapper"]
    assert {"git_sha", "git_dirty", "python", "numpy", "nproc", "cpu_model", "seed"} <= set(
        record["provenance"]
    )


def test_traced_run_reports_per_layer_metrics_and_repeats_counts(tmp_path):
    runs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        proc = bench(out, "--workload", "export", "--seed", "5", "--seconds", "0", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        assert doc["correct"] is True
        assert set(doc["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
        runs.append(json.loads((out / "export-seed5-trace1.json").read_text()))
    for record in runs:
        assert record["selfcheck"]["self_times_nonnegative"]
        assert record["selfcheck"]["self_times_sum_to_wall_rel_err"] < 1e-9
        assert record["selfcheck"]["traced_answers_match_untraced"]

    def counts(record):
        return [
            {k: v for k, v in o["counts"].items() if not k.endswith("_s")}
            for o in record["ops"]
        ]

    assert counts(runs[0]) == counts(runs[1])


def test_exits_nonzero_without_result_when_sources_are_missing(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench(tmp_path / "out", "--workload", "synth", "--seed", "1", "--seconds", "1",
                 "--trace", "0", root=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tail_percentile_rule():
    xs = [float(v) for v in range(1, 101)]
    value, pct = run.tail(xs[::-1])
    assert value == 90.0  # ten samples (91..100) lie beyond it
    assert sum(x > value for x in xs) == 10
    assert pct == pytest.approx(100.0 * 89 / 99)
    # with more samples the percentile stops at p95
    ys = [float(v) for v in range(1, 1002)]
    assert run.tail(ys) == (951.0, 95.0)
    value, pct = run.tail(xs[:41])
    assert (value, pct) == (31.0, 75.0)
    # below 41 samples the rule's percentile is under p75: the median instead
    assert run.tail(xs[:40]) == (20.5, 50.0)
    assert run.tail([3.0, 1.0, 2.0]) == (2.0, 50.0)


class _WrongSynth(workloads.Synth):
    def run(self, q, inp, variant):
        law = super().run(q, inp, variant)
        law[-1][2] += 1e-6  # a fake wrong answer: the last arc runs long
        return law


class _CrashingSynth(workloads.Synth):
    def run(self, q, inp, variant):
        raise TypeError("not a qoct error")


def test_wrong_answer_counts_as_failed(tmp_path):
    ops = run.run_plain(_WrongSynth(1, str(tmp_path)), qoct, 0.0)
    assert len(ops) == 1
    assert not ops[0]["ok"] and not ops[0]["crash"]
    assert ops[0]["error"] == "WrongAnswer"
    honest = run.run_plain(workloads.Synth(1, str(tmp_path)), qoct, 0.0)
    assert honest[0]["ok"]


def test_pulse_search_check():
    best, pulse = qoct.sample_search_min_time(1.0, 500, 5, 5)
    assert workloads._check_search(1.0, best, pulse)[0]
    # no candidate in the ball: an infinite time and no pulse is the answer
    assert workloads._check_search(1.0, math.inf, None)[0]
    # a fake wrong pulse: same durations, last arc turned the other way
    u1, u2, dur = pulse[-1]
    ok, detail = workloads._check_search(1.0, best, (*pulse[:-1], (-u1, -u2, dur)))
    assert not ok and "from the target" in detail


def test_non_qoct_exception_is_a_crash(tmp_path):
    ops = run.run_plain(_CrashingSynth(1, str(tmp_path)), qoct, 0.0)
    assert ops[0]["crash"] and ops[0]["error"] == "TypeError"


def test_inputs_repeat_for_a_seed_and_differ_across_seeds(tmp_path):
    a, b = workloads.Synth(7, str(tmp_path)), workloads.Synth(8, str(tmp_path))
    first = [a.input(i) for i in range(50)]
    assert first == [workloads.Synth(7, str(tmp_path)).input(i) for i in range(50)]
    assert first != [b.input(i) for i in range(50)]
    assert len({tuple(x["target"]) for x in first}) == 50
    for x in first:
        assert workloads.ALPHA_LO <= x["alpha"] <= workloads.ALPHA_HI
        assert min(x["target"]) > 0.0


def test_wrappers_see_every_rk4_step_of_a_solve():
    # about 208k RK4 steps at alpha = 0.1, three control evaluations each;
    # the steps are only visible through integrator calls made by min_energy
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _, exc, wall, counts = tracer.run_op(0, lambda: qoct.solve_m3(0.1, 1e-8))
    finally:
        tracer.uninstall()
    assert exc is None
    steps = counts["integrator.control_evals"] / 3
    assert 195_000 < steps < 220_000
    assert counts["elliptic.calls"] >= counts["integrator.control_evals"]
    assert counts["min_energy.shoot_evals"] == counts["integrator.calls"]
    assert sum(v for k, v in counts.items() if k.endswith(".self_s")) == pytest.approx(wall, rel=1e-9)
    assert not hasattr(qoct.solve_m3, "__wrapped__")

"""qoct benchmark: times the public API end to end and, traced, per layer.

Usage (from the repository root):

    python3 bench/run.py --workload shoot --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --seed 1 --seconds 55          # every workload
    python3 bench/run.py --compare DIR_A DIR_B          # two result sets

One process, one caller, closed loop: the next op starts when the previous
one has returned, after four untimed warm-up ops on another seed's inputs.
Each op's answer is checked outside the timed region; an op that raises or
fails its check counts as failed and the run goes on.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every op
twice, untraced and traced in alternating order, and prints the per-layer
metrics normalised per op.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller record,
with provenance, goes to ``<results>/<workload>-seed<n>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_RUNS = 9
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import qoct; print(repr(time.perf_counter() - t))"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "elliptic.calls": "calls/op",
    "elliptic.self_s": "s/op",
    "integrator.calls": "calls/op",
    "integrator.self_s": "s/op",
    "integrator.control_evals": "evals/op",
    "integrator.errors": "errors/op",
    "min_energy.calls": "calls/op",
    "min_energy.self_s": "s/op",
    "min_energy.shoot_evals": "evals/op",
    "min_energy.evals_per_solve": "evals/solve",
    "min_energy.errors": "errors/op",
    "so3.calls": "calls/op",
    "so3.self_s": "s/op",
    "time_optimal.calls": "calls/op",
    "time_optimal.self_s": "s/op",
    "time_optimal.rodrigues_per_law": "calls/law",
    "lift.calls": "calls/op",
    "lift.self_s": "s/op",
    "lift.pulse_evals": "evals/op",
    "oracle.calls": "calls/op",
    "oracle.self_s": "s/op",
    "oracle.candidates": "cands/op",
    "cli.self_s": "s/op",
    "cli.bytes_out": "B/op",
    "trace.overhead_s": "s/op",
}


TAIL_CAP = 95.0
# the first energy sweep of a process runs ~1.5x slower than the rest
WARMUP_OPS = 4
WARMUP_SEED_OFFSET = 1 << 40


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, up to p95.

    Returns (value, percentile).  With ``n`` sorted samples that is the
    ``n - 11``-th (0-based), at percentile ``100 * (n - 11) / (n - 1)``.
    Below 41 samples that percentile is under p75: too close to the median
    to be a tail, and set by the few ops around it, so the median is
    returned at percentile 50.  Above p95 the op times on a shared host are
    set by the host's stalls more than by the program, so the percentile
    stops there.
    """
    xs = sorted(values)
    n = len(xs)
    if n < 41:
        return statistics.median(xs), 50.0
    k = min(n - 11, int(TAIL_CAP / 100.0 * (n - 1)))
    return xs[k], 100.0 * k / (n - 1)


def measure_setup(runs: int = SETUP_RUNS) -> list[float]:
    """Seconds to ``import qoct`` in a fresh interpreter, once per run."""
    out = []
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise SystemExit(f"import qoct failed in a fresh interpreter:\n{proc.stderr}")
        out.append(float(proc.stdout.strip()))
    return out


def provenance(seed: int) -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args):
        try:
            proc = subprocess.run(
                ["git", *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if sha else None
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or platform.machine(),
        "platform": platform.platform(),
        "seed": seed,
    }


def attempt(workload, q, inp, variant):
    """One op, timed.  Returns (output, exception or None, wall seconds)."""
    t0 = time.perf_counter()
    try:
        out, exc = workload.run(q, inp, variant), None
    except Exception as caught:  # classified by the caller
        out, exc = None, caught
    return out, exc, time.perf_counter() - t0


def judge(workload, q, inp, out, exc) -> dict:
    """Check one op's answer; never raises."""
    if exc is not None:
        crash = not isinstance(exc, q.QoctError)
        detail = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        if crash:
            detail = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
        return {"ok": False, "crash": crash, "error": type(exc).__name__, "detail": detail}
    try:
        ok, detail = workload.check(q, inp, out)
    except Exception as caught:  # a check that cannot read the answer fails the op
        return {"ok": False, "crash": False, "error": "CheckError",
                "detail": f"{type(caught).__name__}: {caught}"}
    return {"ok": bool(ok), "crash": False, "error": None if ok else "WrongAnswer", "detail": detail}


def warm_up(workload_cls, q, seed: int, workdir: str):
    """Untimed ops, so the timed ones pay no first-call costs.

    Their inputs come from another seed's stream, so no timed input is seen
    before it is timed.
    """
    warm = workload_cls(seed + WARMUP_SEED_OFFSET, workdir)
    for i in range(WARMUP_OPS):
        attempt(warm, q, warm.input(i), "warmup")


def run_plain(workload, q, seconds: float) -> list[dict]:
    ops, timed, i = [], 0.0, 0
    while True:
        inp = workload.input(i)
        out, exc, wall = attempt(workload, q, inp, "plain")
        timed += wall
        ops.append({"i": i, "input": inp, "wall_s": wall, **judge(workload, q, inp, out, exc)})
        i += 1
        if timed >= seconds and i % workload.round_size == 0:
            return ops


def run_traced(workload, q, seconds: float, tracer) -> list[dict]:
    """Each op twice, plain and traced, alternating which goes first."""
    ops, spent, i = [], 0.0, 0
    while True:
        inp = workload.input(i)
        if i % 2:
            out, exc, wall, counts = tracer.run_op(i, lambda: workload.run(q, inp, "traced"))
        plain_out, plain_exc, plain_wall = attempt(workload, q, inp, "plain")
        if not i % 2:
            out, exc, wall, counts = tracer.run_op(i, lambda: workload.run(q, inp, "traced"))
        spent += plain_wall + wall
        if isinstance(out, bytes):  # export ops return the file they wrote
            counts["cli.bytes_out"] = len(out)
        rec = {"i": i, "input": inp, "wall_s": wall, "wall_untraced_s": plain_wall,
               "counts": counts, **judge(workload, q, inp, out, exc)}
        rec["same_as_untraced"] = (
            type(exc) is type(plain_exc) if exc or plain_exc else out == plain_out
        )
        ops.append(rec)
        i += 1
        if spent >= seconds and i % workload.round_size == 0:
            return ops


def end_to_end(ops: list[dict], setup: list[float]) -> tuple[dict, dict]:
    walls = [o["wall_s"] for o in ops]
    n_ok = sum(o["ok"] for o in ops)
    value, pct = tail(walls)
    metrics = {
        "setup_s": statistics.median(setup),
        "op_p50_s": statistics.median(walls),
        "op_tail_s": value,
        "ops_per_s": n_ok / sum(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "fail_frac": 1.0 - n_ok / len(ops),
        "op_tail_percentile": pct,
        "ops": len(ops),
        "setup_samples_s": setup,
    }
    return metrics, extra


def per_layer(ops: list[dict]) -> tuple[dict, dict]:
    n = len(ops)
    total: dict[str, float] = {}
    for o in ops:
        for k, v in o["counts"].items():
            total[k] = total.get(k, 0) + v
    metrics = {}
    for name in PER_LAYER_UNITS:
        metrics[name] = total.get(name, 0) / n
    solves = total.get("calls:min_energy.solve_m3", 0)
    laws = total.get("calls:time_optimal.synthesis_law", 0)
    metrics["min_energy.evals_per_solve"] = (
        total.get("min_energy.shoot_evals", 0) / solves if solves else 0.0
    )
    metrics["time_optimal.rodrigues_per_law"] = (
        total.get("time_optimal.rodrigues_in_law", 0) / laws if laws else 0.0
    )
    metrics["trace.overhead_s"] = sum(o["wall_s"] - o["wall_untraced_s"] for o in ops) / n
    # self times of one op are >= 0 and sum to its wall time
    worst = 0.0
    negative = False
    for o in ops:
        selfs = [v for k, v in o["counts"].items() if k.endswith(".self_s")]
        negative = negative or min(selfs) < -1e-12
        worst = max(worst, abs(sum(selfs) - o["wall_s"]) / o["wall_s"])
    checks = {
        "self_times_nonnegative": not negative,
        "self_times_sum_to_wall_rel_err": worst,
        "traced_answers_match_untraced": all(o["same_as_untraced"] for o in ops),
        "totals": total,
    }
    return metrics, checks


def run_one(args) -> int:
    if not (SRC / "qoct" / "__init__.py").is_file():
        print(f"error: no qoct sources under {SRC}", file=sys.stderr)
        return 2
    workload_cls = WORKLOADS[args.workload]
    results = Path(args.results)
    workdir = results / "tmp"
    workdir.mkdir(parents=True, exist_ok=True)

    setup = measure_setup() if not args.trace else []
    sys.path.insert(0, str(SRC))
    import qoct
    import qoct.cli  # noqa: F401  (the export workload drives it)

    warm_up(workload_cls, qoct, args.seed, str(workdir))
    workload = workload_cls(args.seed, str(workdir))
    prov = provenance(args.seed)
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "provenance": prov}
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        record["wrapped_functions"] = tracer.install()
        try:
            ops = run_traced(workload, qoct, args.seconds, tracer)
        finally:
            tracer.uninstall()
        metrics, checks = per_layer(ops)
        units = PER_LAYER_UNITS
        spans_path = results / f"{args.workload}-seed{args.seed}-trace1-spans.json"
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
        record["spans_file"] = spans_path.name
    else:
        ops = run_plain(workload, qoct, args.seconds)
        metrics, extra = end_to_end(ops, setup)
        record.update(extra)
        units = END_TO_END_UNITS
        checks = {
            # the untraced run must not have loaded or installed any wrapper
            "untraced_imports_no_wrapper": "tracing" not in sys.modules
            and not any(hasattr(getattr(qoct, n), "__wrapped__") for n in dir(qoct)),
        }
        if not checks["untraced_imports_no_wrapper"]:
            raise SystemExit("the untraced run loaded the tracing wrappers")

    failed = sum(not o["ok"] for o in ops)
    crashed = sum(o["crash"] for o in ops)
    correct = crashed == 0 and (not args.trace or checks["traced_answers_match_untraced"])
    record.update({"metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
                   "selfcheck": checks, "attempted": len(ops), "failed": failed,
                   "crashed": crashed, "correct": correct, "ops": ops})
    out_path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {len(ops)}  failed {failed}  crashed {crashed}")
    if not args.trace:
        print(f"fail_frac {record['fail_frac']:.4f}  op_tail_s is p{record['op_tail_percentile']:.1f} "
              f"of {len(ops)} ops")
    for name, value in metrics.items():
        print(f"  {name:<32} {value:.6g} {units[name]}")
    for o in ops:
        if not o["ok"]:
            print(f"  failed op {o['i']} {o['error']}: {o['detail'].splitlines()[-1]}",
                  file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own fresh process."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--results", str(args.results)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"workload {name} exited with code {proc.returncode}")
        doc = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and doc["correct"]
        summary["attempted"] += doc["attempted"]
        summary["failed"] += doc["failed"]
        for k, v in doc["metrics"].items():
            summary["metrics"][f"{name}.{k}"] = v
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--results", default=str(HERE / "results"),
                   help="directory for result files (default bench/results)")
    p.add_argument("--compare", nargs=2, metavar=("BASE_DIR", "NEW_DIR"),
                   help="compare two directories of result files and exit")
    args = p.parse_args(argv)
    if args.compare:
        import compare

        return compare.main(*args.compare, ROOT / "BENCHMARK.json")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

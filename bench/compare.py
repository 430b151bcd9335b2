"""Compare two sets of benchmark result files.

Prints one row per workload and end-to-end metric: both medians with their
quartiles, the change, and a verdict against the bound in BENCHMARK.json:

- ``worse``: the new median is worse than the base median by more than the
  bound;
- ``better``: the new median is better by more than the base runs' own
  spread (quartile distance over median) and, when both sets hold runs of
  the same seeds, the new side wins at least nine tenths of those pairs;
- ``unresolved``: the base runs spread wider than the bound, unless every
  new run beats (or loses to) every base run;
- ``within-bound``: anything else.

Then one row per workload and per-layer metric from the traced runs, with
the medians and their relative change.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def load(directory) -> dict:
    """{(workload, trace): {seed: metrics}} from every result file in a directory."""
    sets: dict = {}
    for path in sorted(Path(directory).glob("*-trace[01].json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        key = (doc["workload"], doc["trace"])
        values = {k: m["value"] for k, m in doc["metrics"].items()}
        sets.setdefault(key, {})[doc["provenance"]["seed"]] = values
    return sets


def verdict(base: dict, new: dict, better: str, bound: float) -> tuple[str, float, float]:
    """Verdict for one metric; ``base`` and ``new`` map seed -> value.

    Returns (verdict, relative change with worse positive, base spread).
    """
    sign = 1.0 if better == "lower" else -1.0
    a, b = list(base.values()), list(new.values())
    qa1, ma, qa3 = quartiles(a)
    mb = statistics.median(b)
    change = sign * (mb - ma) / abs(ma)
    spread = (qa3 - qa1) / abs(ma)
    if all(sign * y < sign * x for x in a for y in b):
        return "better", change, spread
    if all(sign * y > sign * x for x in a for y in b):
        return "worse", change, spread
    if spread > bound:
        return "unresolved", change, spread
    if change > bound:
        return "worse", change, spread
    seeds = base.keys() & new.keys()
    wins = sum(sign * new[s] < sign * base[s] for s in seeds)
    if -change > spread and (not seeds or wins >= 0.9 * len(seeds)):
        return "better", change, spread
    return "within-bound", change, spread


def main(base_dir, new_dir, benchmark_json) -> int:
    spec = json.loads(Path(benchmark_json).read_text(encoding="utf-8"))
    base, new = load(base_dir), load(new_dir)
    workloads = [w["name"] for w in spec["workloads"]]
    print(f"{'workload':<8} {'metric':<12} {'base median [q1, q3]':<36} "
          f"{'new median [q1, q3]':<36} {'change':>8} {'spread':>7} verdict")
    for w in workloads:
        a, b = base.get((w, 0), {}), new.get((w, 0), {})
        if not a or not b:
            print(f"{w:<8} (no untraced runs in both sets)")
            continue
        for m in spec["end_to_end"]:
            name = m["name"]
            va = {s: v[name] for s, v in a.items()}
            vb = {s: v[name] for s, v in b.items()}
            res, change, spread = verdict(va, vb, m["better"], m["bound"])
            qa, qb = quartiles(list(va.values())), quartiles(list(vb.values()))
            print(f"{w:<8} {name:<12} {_fmt(qa):<36} {_fmt(qb):<36} "
                  f"{change:+8.1%} {spread:7.1%} {res}")
    print()
    print(f"{'workload':<8} {'per-layer metric':<32} {'base median':>13} {'new median':>13} {'change':>8}")
    for w in workloads:
        a, b = base.get((w, 1), {}), new.get((w, 1), {})
        if not a or not b:
            print(f"{w:<8} (no traced runs in both sets)")
            continue
        for m in spec["per_layer"]:
            name = m["name"]
            ma = statistics.median(v[name] for v in a.values())
            mb = statistics.median(v[name] for v in b.values())
            change = f"{(mb - ma) / abs(ma):+8.1%}" if ma else "       -"
            print(f"{w:<8} {name:<32} {ma:13.6g} {mb:13.6g} {change}")
    return 0


def _fmt(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"

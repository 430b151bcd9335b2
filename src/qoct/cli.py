"""Command-line interface: compute laws, solve the dichotomy, emit plot data.

All floating-point output is printed with 17 significant digits so files
round-trip exactly and identical flags produce byte-identical output.
Exit codes: 0 on success, 2 on a domain error, 3 on verification failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from itertools import repeat

import numpy as np

from . import acceptance
from . import tolerances as tol
from .errors import QoctError, require
from .lift import ComplexState, LevelSpec, simulate_complex
from .min_energy import (
    EnergyExtremal,
    classify,
    energy_sweep,
    extremal_control,
    extremal_control_bulk,
    m3_bounds,
    solve_m3,
    transfer_time,
)
from .oracle import sample_search_min_time
from .so3 import SOURCE, StateS2
from .time_optimal import min_time_law, propagate_law, synthesis_law, synthesis_sweep

SCHEMA_COMMENT = "# schema=qoct-v1"


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _to_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad}  "{k}": {_to_json(v, indent + 1)}' for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[" + ", ".join(_to_json(v, indent) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, float):
        return _fmt(obj) if math.isfinite(obj) else "null"
    if isinstance(obj, int):
        return str(obj)
    return '"' + str(obj).replace("\\", "\\\\").replace('"', '\\"') + '"'


def _write(text: str, out_path: str | None):
    if out_path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        try:
            fh = open(out_path, "w", encoding="utf-8", newline="")
        except OSError as exc:
            raise QoctError(f"cannot write {out_path}: {exc.strerror}") from exc
        with fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")


def _csv(header: list[str], rows) -> str:
    """Rows of floats, one per header column; "%.17g" % x == format(x, ".17g")."""
    fmt = ",".join(["%.17g"] * len(header))
    lines = [SCHEMA_COMMENT, ",".join(header)]
    lines.extend(fmt % tuple(row) for row in rows)
    return "\n".join(lines) + "\n"


def _law_json(law) -> dict:
    return {
        "law": [
            {"u1": s.u1, "u2": s.u2, "duration": s.duration} for s in law.segments
        ],
        "total_time": law.total_duration,
        "endpoint": [float(v) for v in propagate_law(SOURCE, law).endpoint],
    }


def _parse_floats(text: str, count: int) -> tuple[float, ...]:
    """``count`` comma-separated numbers; anything else raises QoctError."""
    parts = text.split(",")
    if len(parts) != count:
        raise QoctError(f"expected {count} comma-separated values, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise QoctError(f"expected {count} comma-separated numbers, got {text!r}") from None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_min_time(args) -> int:
    if args.target is None:
        law = min_time_law(args.alpha)
    else:
        x, y, z = _parse_floats(args.target, 3)
        law = synthesis_law(args.alpha, StateS2(x, y, z))
    _write(_to_json(_law_json(law)), args.out)
    return 0


def _cmd_min_energy(args) -> int:
    m3 = solve_m3(args.alpha, args.tol)
    lo, hi = m3_bounds(args.alpha)
    doc = {
        "m3_0": m3,
        "transfer_time": transfer_time(args.alpha, m3),
        "bounds": [lo, hi],
        "regime": classify(args.alpha, m3).value,
    }
    _write(_to_json(doc), args.out)
    return 0


def _time_sweep(alpha: float, n: int, samples: int):
    """Sample the time synthesis: laws across the families, run to octant exit."""
    return [
        (
            param,
            propagate_law(
                SOURCE, law, max_step=max(law.total_duration / samples, tol.SAMPLE_STEP_FLOOR)
            ),
        )
        for param, law in synthesis_sweep(alpha, n)
    ]


def _cmd_sweep_synthesis(args) -> int:
    if args.n < 1 or args.samples < 1:
        raise QoctError("need --n >= 1 and --samples >= 1")
    sweep = _time_sweep if args.mode == "time" else energy_sweep
    rows = [
        row
        for param, traj in sweep(args.alpha, args.n, args.samples)
        for row in zip(
            traj.times.tolist(), *traj.states.T.tolist(), traj.u1.tolist(), traj.u2.tolist(),
            repeat(param),
        )
    ]
    _write(_csv(["t", "psi1", "psi2", "psi3", "u1", "u2", "param"], rows), args.out)
    return 0


def _cmd_sweep_alpha(args) -> int:
    if args.start <= 0 or args.stop <= 0 or args.n < 2:
        raise QoctError("need positive --from/--to and --n >= 2")
    rows = []
    for i in range(args.n):
        frac = i / (args.n - 1)
        alpha = args.start * (args.stop / args.start) ** frac
        m3 = solve_m3(alpha, args.tol)
        rows.append((alpha, m3, transfer_time(alpha, m3)))
    _write(_csv(["alpha", "m3_0", "transfer_time"], rows), args.out)
    return 0


def _cmd_lift(args) -> int:
    spec = LevelSpec(*_parse_floats(args.energies, 3), *_parse_floats(args.phases, 2))
    require("step h", args.h)
    if args.mode == "time":
        law = min_time_law(args.alpha)
        ctrl, bulk, switches = law.control, law.control_bulk, law.switch_times()
        T = law.total_duration
    else:
        m3 = solve_m3(args.alpha, args.tol)
        extremal = EnergyExtremal(args.alpha, m3)
        ctrl, bulk = extremal_control(extremal), extremal_control_bulk(extremal)
        T = transfer_time(args.alpha, m3)
        switches = ()
    psi0 = ComplexState(np.array([1.0 + 0.0j, 0.0j, 0.0j]))
    traj = simulate_complex(
        psi0, ctrl, bulk, spec, args.alpha, T, args.h, switch_times=switches,
        record_every=max(1, math.ceil(T / args.h / 400)),
    )
    final_population = float(np.abs(traj.endpoint[2]) ** 2)
    traj_file = None
    if args.trajectory_out is not None:
        pops = (np.abs(traj.states) ** 2).T.tolist()
        rows = zip(traj.times.tolist(), *pops)
        _write(_csv(["t", "pop1", "pop2", "pop3"], rows), args.trajectory_out)
        traj_file = args.trajectory_out
    doc = {"final_population": final_population, "trajectory_file": traj_file}
    _write(_to_json(doc), args.out)
    return 0


def _cmd_oracle(args) -> int:
    best_time, _ = sample_search_min_time(
        args.alpha, args.n, args.max_segments, args.seed
    )
    closed = min_time_law(args.alpha).total_duration
    doc = {
        "best_time": best_time,
        "closed_form_time": closed,
        "margin": best_time - closed,
    }
    _write(_to_json(doc), args.out)
    return 0


def _cmd_verify(args) -> int:
    results = acceptance.run_all(fast=args.fast)
    width = max(len(r.name) for r in results)
    lines = []
    n_fail = 0
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        if not r.ok:
            n_fail += 1
        lines.append(f"{r.name:<{width}}  {status}  {r.detail}")
    lines.append(f"{n_fail} of {len(results)} criteria failed" if n_fail else
                 f"all {len(results)} criteria passed")
    _write("\n".join(lines) + "\n", args.out)
    return 3 if n_fail else 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qoct",
        description=(
            "Minimum-time and minimum-energy population transfer for a "
            "nonisotropic three-level system reduced to the positive octant "
            "of the sphere."
        ),
    )
    sub = p.add_subparsers(dest="command", required=True)

    mt = sub.add_parser(
        "min-time",
        help="closed-form minimum-time law (optionally to an arbitrary target)",
        description=(
            "Targets on the psi2 = 0 boundary are outside the synthesis "
            "except the corners (1,0,0) and (0,0,1)."
        ),
    )
    mt.add_argument("--alpha", type=float, required=True)
    mt.add_argument("--target", type=str, default=None, help="x,y,z on the octant")
    mt.add_argument("--out", type=str, default=None)
    mt.set_defaults(fn=_cmd_min_time)

    me = sub.add_parser("min-energy", help="dichotomy for the shooting parameter")
    me.add_argument("--alpha", type=float, required=True)
    me.add_argument("--tol", type=float, default=1e-8)
    me.add_argument("--out", type=str, default=None)
    me.set_defaults(fn=_cmd_min_energy)

    ss = sub.add_parser(
        "sweep-synthesis", help="CSV of extremal trajectories filling the octant"
    )
    ss.add_argument("--alpha", type=float, required=True)
    ss.add_argument("--mode", choices=("time", "energy"), required=True)
    ss.add_argument("--n", type=int, required=True, help="number of trajectories")
    ss.add_argument("--samples", type=int, default=120, help="samples per trajectory")
    ss.add_argument("--out", type=str, default=None)
    ss.set_defaults(fn=_cmd_sweep_synthesis)

    sa = sub.add_parser(
        "sweep-alpha", help="CSV of (alpha, m3_0, transfer_time) on a log grid"
    )
    sa.add_argument("--from", dest="start", type=float, required=True)
    sa.add_argument("--to", dest="stop", type=float, required=True)
    sa.add_argument("--n", type=int, required=True)
    sa.add_argument("--tol", type=float, default=1e-8)
    sa.add_argument("--out", type=str, default=None)
    sa.set_defaults(fn=_cmd_sweep_alpha)

    lf = sub.add_parser(
        "lift", help="simulate the complex three-level system with lifted pulses"
    )
    lf.add_argument("--alpha", type=float, required=True)
    lf.add_argument("--mode", choices=("time", "energy"), required=True)
    lf.add_argument("--energies", type=str, required=True, help="E1,E2,E3")
    lf.add_argument("--phases", type=str, default="0,0", help="xi1,xi2")
    lf.add_argument("--tol", type=float, default=1e-8)
    lf.add_argument("--h", type=float, default=1e-3)
    lf.add_argument("--trajectory-out", type=str, default=None)
    lf.add_argument("--out", type=str, default=None)
    lf.set_defaults(fn=_cmd_lift)

    orc = sub.add_parser("oracle", help="random-pulse search optimality certificate")
    orc.add_argument("--alpha", type=float, required=True)
    orc.add_argument("--n", type=int, required=True)
    orc.add_argument("--seed", type=int, required=True)
    orc.add_argument("--max-segments", type=int, default=5)
    orc.add_argument("--out", type=str, default=None)
    orc.set_defaults(fn=_cmd_oracle)

    vf = sub.add_parser("verify", help="run the acceptance suite")
    vf.add_argument("--fast", action="store_true", help="reduced sample sizes")
    vf.add_argument("--out", type=str, default=None)
    vf.set_defaults(fn=_cmd_verify)

    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses: building one costs ~20x a parse."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except QoctError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Regression of the CLI against output recorded before refactors.

``tests/data`` holds ``sweep-synthesis --mode time --n 4 --samples 10`` CSVs at
alpha in {0.3, 1, 3} and ``min-time --target`` JSON for targets in every
synthesis family, including the three-arc family above one, recorded before
the time sweep moved into ``time_optimal`` and its octant exit became closed
form.  Controls, row counts and sweep parameters must match exactly; every
other number to 1e-13.

It also holds ``min-energy`` JSON at alpha 0.5 and 2, an energy
``sweep-synthesis --n 4 --samples 10`` CSV at alpha 2 and a time-mode
``lift`` population history at alpha 0.7, recorded before the complex lift
and the sphere shared one RK4 and K and the Jacobi functions one AGM chain.
The first three must match byte for byte; the lift to 1e-14.

``export_sweeps/`` holds the ``sweep-synthesis --n 10`` CSVs of both modes
at alpha 0.5, 0.8 and 1.25 that the figure export writes, recorded by
``make_export_sweeps.py`` before the energy-extremal RK4 scan ran its steps
in one call and the Jacobi kernel kept its last value.  They must match
byte for byte.

``lift_goldens/`` holds ``lift --trajectory-out`` population CSVs in time mode
at alpha 0.5, 0.8, 1.25 and 1.9 and in energy mode at 0.8, with their final
populations, recorded by ``make_lift_goldens.py`` before the RK4 read its
controls from bulk tables.  They must match byte for byte.

``synthesis_laws.json`` holds 1450 ``synthesis_law`` answers (segment
controls and durations as float hex, or the exception's name) across the
factor range, near one, in the three-arc family and on the boundaries,
recorded by ``make_synthesis_laws.py`` before ``rodrigues_exp`` stopped
re-checking its matrices.  They must match bit for bit.

These nets pin today's algorithm, not the truth.  ``energy_references.json``,
written by ``make_references.py`` with mpmath at 30 digits, holds the
target-reaching m3(0), k' and transfer time of the minimum-energy extremal
at the factors of ``GOLDEN_M3``; ``tests/test_min_energy.py`` bounds the
solved answers' distance from it by the distance measured when it was
recorded, plus 10 %.

A change that keeps every output bit keeps the byte-exact nets above as its
guard.  A change that moves bits may re-record a byte-exact net with that
net's own ``make_*.py`` only when all three of these hold:

1. every control, regime and exception type stays the same;
2. the reference tests show the new answers, case by case, no farther from
   the reference, with the counts of closer and farther cases and the worst
   case reported;
3. CHANGES.md names the net, the number of moved values and the largest
   move.

The 40-digit references for the 1450-case synthesis net (the endpoint miss
of each law, composed again with ``mpmath.expm``) are not recorded yet; they
are left for a later change; until then no change can show condition 2
for that net.
"""

import gzip
import json
import pathlib

import numpy as np
import pytest

from qoct import QoctError, StateS2, synthesis_law
from qoct.cli import main

DATA = pathlib.Path(__file__).parent / "data"
CLOSE = 1e-13


@pytest.mark.parametrize("alpha", ["0.3", "1", "3"])
def test_time_sweep_matches_golden(alpha, tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep-synthesis", "--alpha", alpha, "--mode", "time", "--n", "4",
                 "--samples", "10", "--out", str(out)]) == 0
    golden = DATA / f"sweep_time_alpha{alpha}.csv"
    assert out.read_text().splitlines()[:2] == golden.read_text().splitlines()[:2]
    got = np.genfromtxt(out, delimiter=",", skip_header=2)
    ref = np.genfromtxt(golden, delimiter=",", skip_header=2)
    assert got.shape == ref.shape
    assert np.array_equal(got[:, 4:], ref[:, 4:])  # u1, u2, param
    assert np.max(np.abs(got[:, :4] - ref[:, :4])) <= CLOSE


def _min_time_cases():
    return json.loads((DATA / "min_time_targets.json").read_text())


@pytest.mark.parametrize("case", _min_time_cases(), ids=lambda c: f"{c['argv'][2]}:{c['argv'][4]}")
def test_min_time_target_matches_golden(case, capsys):
    assert main(case["argv"]) == 0
    got = json.loads(capsys.readouterr().out)
    ref = case["output"]
    assert [(s["u1"], s["u2"]) for s in got["law"]] == [(s["u1"], s["u2"]) for s in ref["law"]]
    for a, b in zip(got["law"], ref["law"]):
        assert abs(a["duration"] - b["duration"]) <= CLOSE
    assert abs(got["total_time"] - ref["total_time"]) <= CLOSE
    assert np.max(np.abs(np.subtract(got["endpoint"], ref["endpoint"]))) <= CLOSE


@pytest.mark.parametrize("alpha", ["0.5", "2"])
def test_min_energy_matches_golden_bytes(alpha, capsys):
    assert main(["min-energy", "--alpha", alpha]) == 0
    assert capsys.readouterr().out == (DATA / f"min_energy_alpha{alpha}.json").read_text()


def test_energy_sweep_matches_golden_bytes(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep-synthesis", "--mode", "energy", "--n", "4", "--samples", "10",
                 "--alpha", "2", "--out", str(out)]) == 0
    assert out.read_text() == (DATA / "sweep_energy_alpha2.csv").read_text()


@pytest.mark.parametrize("mode", ["energy", "time"])
@pytest.mark.parametrize("alpha", ["0.5", "0.8", "1.25"])
def test_export_sweep_matches_golden_bytes(mode, alpha, tmp_path):
    # the sweeps of the figure export, recorded by make_export_sweeps.py
    out = tmp_path / "sweep.csv"
    assert main(["sweep-synthesis", "--mode", mode, "--n", "10", "--alpha", alpha,
                 "--out", str(out)]) == 0
    golden = DATA / "export_sweeps" / f"sweep_{mode}_n10_alpha{alpha}.csv.gz"
    want = gzip.decompress(golden.read_bytes()).decode()
    got = out.read_text()
    if got != want:
        pairs = zip(got.splitlines(), want.splitlines())
        line, (a, b) = next((i, p) for i, p in enumerate(pairs) if p[0] != p[1])
        pytest.fail(f"line {line + 1} differs: {a!r} != {b!r}")
    assert got == want


def test_lift_populations_match_golden(tmp_path, capsys):
    traj = tmp_path / "lift.csv"
    assert main(["lift", "--alpha", "0.7", "--mode", "time", "--energies=-1,0.3,0.7",
                 "--phases", "0.3,-1", "--trajectory-out", str(traj)]) == 0
    got = json.loads(capsys.readouterr().out)
    ref = json.loads((DATA / "lift_time_alpha0.7.json").read_text())
    assert abs(got["final_population"] - ref["final_population"]) <= 1e-14
    golden = DATA / "lift_time_alpha0.7.csv"
    assert traj.read_text().splitlines()[:2] == golden.read_text().splitlines()[:2]
    a = np.genfromtxt(traj, delimiter=",", skip_header=2)
    b = np.genfromtxt(golden, delimiter=",", skip_header=2)
    assert a.shape == b.shape
    assert np.max(np.abs(a - b)) <= 1e-14


LIFT_CASES = [("time", "0.5"), ("time", "0.8"), ("time", "1.25"), ("time", "1.9"),
              ("energy", "0.8")]


@pytest.mark.parametrize("mode, alpha", LIFT_CASES)
def test_lift_matches_golden_bytes(mode, alpha, tmp_path, capsys):
    # recorded by make_lift_goldens.py
    traj = tmp_path / "lift.csv"
    assert main(["lift", "--mode", mode, "--alpha", alpha, "--energies=-1,0.3,0.7",
                 "--phases", "0.3,-1", "--trajectory-out", str(traj)]) == 0
    name = f"lift_{mode}_alpha{alpha}"
    finals = json.loads((DATA / "lift_goldens" / "final_populations.json").read_text())
    assert json.loads(capsys.readouterr().out)["final_population"] == float(finals[name])
    want = gzip.decompress((DATA / "lift_goldens" / f"{name}.csv.gz").read_bytes())
    assert traj.read_bytes() == want


def _synthesis_cases():
    return json.loads((DATA / "synthesis_laws.json").read_text())


SYNTHESIS_GROUPS = sorted({c["group"] for c in _synthesis_cases()})


@pytest.mark.parametrize("group", SYNTHESIS_GROUPS)
def test_synthesis_laws_match_golden_bits(group):
    # recorded by make_synthesis_laws.py
    for case in _synthesis_cases():
        if case["group"] != group:
            continue
        alpha = float.fromhex(case["alpha"])
        target = StateS2(*(float.fromhex(c) for c in case["target"]))
        try:
            law = synthesis_law(alpha, target, case["reject_psi1_boundary"])
            got = [[s.u1, s.u2, s.duration.hex()] for s in law.segments]
        except QoctError as exc:
            got = type(exc).__name__
        assert got == case["answer"], (case["alpha"], case["target"])

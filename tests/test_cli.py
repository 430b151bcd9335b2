"""CLI wiring: JSON/CSV output, determinism, exit codes."""

import json
import math

import numpy as np
import pytest

import qoct.acceptance
import qoct.cli
from qoct.acceptance import CriterionResult
from qoct.cli import SCHEMA_COMMENT, _csv, _fmt, build_parser, main


def run_cli(args, capsys):
    rc = main(args)
    out = capsys.readouterr().out
    return rc, out


def test_min_time_json(capsys):
    rc, out = run_cli(["min-time", "--alpha", "1"], capsys)
    assert rc == 0
    doc = json.loads(out)
    assert abs(doc["total_time"] - math.pi / math.sqrt(2.0)) < 1e-15
    assert len(doc["law"]) == 1
    assert np.linalg.norm(np.array(doc["endpoint"]) - [0, 0, 1]) < 1e-10


def test_min_time_with_target(capsys):
    rc, out = run_cli(["min-time", "--alpha", "2", "--target", "0,1,0"], capsys)
    assert rc == 0
    doc = json.loads(out)
    assert abs(doc["total_time"] - math.pi / 2.0) < 1e-12


def test_min_time_readme_target(capsys):
    target = [0.1, 0.7, 0.7071067811865476]
    rc, out = run_cli(["min-time", "--alpha", "0.5", "--target", "0.1,0.7,0.7071067811865476"], capsys)
    assert rc == 0
    assert np.linalg.norm(np.array(json.loads(out)["endpoint"]) - target) < 1e-9


def test_min_time_domain_error_exit_code(capsys):
    assert main(["min-time", "--alpha", "0"]) == 2


@pytest.mark.parametrize("mode", ["time", "energy"])
def test_sweep_synthesis_rejects_zero_samples(mode, capsys):
    # --samples 0 used to divide by zero instead of exiting with a domain error
    argv = ["sweep-synthesis", "--alpha", "1", "--mode", mode, "--n", "2", "--samples", "0"]
    assert main(argv) == 2


def test_min_time_unreachable_target_exit_code(capsys):
    assert main(["min-time", "--alpha", "1", "--target", "0.7071067811865476,0,0.7071067811865476"]) == 2


def test_min_energy_json(capsys):
    rc, out = run_cli(["min-energy", "--alpha", "1", "--tol", "1e-7"], capsys)
    assert rc == 0
    doc = json.loads(out)
    assert abs(doc["m3_0"] - 1.0 / math.sqrt(3.0)) < 1e-7
    assert abs(doc["transfer_time"] - math.sqrt(3.0) * math.pi / 2.0) < 1e-6
    assert doc["regime"] == "super-critical"
    assert doc["bounds"][0] == 0.0


def test_sweep_synthesis_deterministic(tmp_path):
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    args = ["sweep-synthesis", "--alpha", "2", "--mode", "time", "--n", "3",
            "--samples", "25"]
    assert main(args + ["--out", str(p1)]) == 0
    assert main(args + ["--out", str(p2)]) == 0
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    assert b1.startswith(b"# schema=qoct-v1\nt,psi1,psi2,psi3,u1,u2,param\n")


def test_sweep_synthesis_stays_in_octant(tmp_path):
    p = tmp_path / "energy.csv"
    assert main(["sweep-synthesis", "--alpha", "0.5", "--mode", "energy",
                 "--n", "3", "--samples", "30", "--out", str(p)]) == 0
    tab = np.genfromtxt(p, delimiter=",", skip_header=2)
    assert np.all(np.isfinite(tab))
    assert tab[:, 1:4].min() >= -1e-9


def test_sweep_alpha_csv(tmp_path):
    p = tmp_path / "sweep.csv"
    assert main(["sweep-alpha", "--from", "0.5", "--to", "2", "--n", "3",
                 "--tol", "1e-7", "--out", str(p)]) == 0
    tab = np.genfromtxt(p, delimiter=",", skip_header=2)
    assert tab.shape == (3, 3)
    assert abs(tab[1, 0] - 1.0) < 1e-12
    assert abs(tab[1, 1] - 1.0 / math.sqrt(3.0)) < 1e-6


def test_oracle_json(capsys):
    rc, out = run_cli(["oracle", "--alpha", "1", "--n", "500", "--seed", "5"], capsys)
    assert rc == 0
    doc = json.loads(out)
    assert doc["margin"] == doc["best_time"] - doc["closed_form_time"]
    assert doc["margin"] >= -5e-3


def test_oracle_json_without_hit_is_valid(capsys):
    rc, out = run_cli(["oracle", "--alpha", "0.7", "--n", "200", "--seed", "1"], capsys)
    assert rc == 0
    doc = json.loads(out)
    assert doc["best_time"] is None and doc["margin"] is None


def test_lift_json(capsys, tmp_path):
    traj = tmp_path / "traj.csv"
    rc, out = run_cli(
        ["lift", "--alpha", "1", "--mode", "time", "--energies=-1,0.3,0.7",
         "--phases", "0,0", "--trajectory-out", str(traj)],
        capsys,
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["final_population"] >= 1.0 - 1e-5
    assert doc["trajectory_file"] == str(traj)
    tab = np.genfromtxt(traj, delimiter=",", skip_header=2)
    assert np.allclose(tab[:, 1:].sum(axis=1), 1.0, atol=1e-9)


@pytest.mark.parametrize(
    "args",
    [
        ["min-time", "--alpha", "1", "--out"],
        ["lift", "--alpha", "1", "--mode", "time", "--energies=-1,0.3,0.7", "--trajectory-out"],
    ],
    ids=["out", "trajectory-out"],
)
def test_an_unwritable_output_path_is_a_domain_error(args, tmp_path, capsys):
    path = tmp_path / "missing" / "x"
    assert main(args + [str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {path}: ")
    assert not path.parent.exists()


def test_verify_exit_codes(monkeypatch, capsys):
    ok = [CriterionResult("A01-x", True, "fine")]
    monkeypatch.setattr(qoct.acceptance, "run_all", lambda fast=False: ok)
    assert main(["verify"]) == 0
    bad = [CriterionResult("A01-x", True, "fine"), CriterionResult("A02-y", False, "boom")]
    monkeypatch.setattr(qoct.acceptance, "run_all", lambda fast=False: bad)
    assert main(["verify", "--fast"]) == 3
    out = capsys.readouterr().out
    assert "FAIL" in out and "1 of 2" in out


def test_float_formatting_round_trips(capsys):
    rc, out = run_cli(["min-time", "--alpha", "0.3"], capsys)
    doc = json.loads(out)
    from qoct import min_time_law

    assert doc["total_time"] == min_time_law(0.3).total_duration


def test_csv_rows_format_like_each_value():
    # one C-level format per row of floats writes each value as _fmt does
    rng = np.random.default_rng(3)
    bits = rng.integers(0, 2**64, size=(300, 3), dtype=np.uint64)
    specials = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e16, 1e17, 0.1]
    rows = [tuple(float(v) for v in row.view(np.float64)) for row in bits]
    rows += [(a, -a, np.float64(a)) for a in specials] + [[0.25, 0.5, 1.0]]
    want = [SCHEMA_COMMENT, "a,b,c"] + [",".join(_fmt(v) for v in row) for row in rows]
    assert _csv(["a", "b", "c"], rows) == "\n".join(want) + "\n"


_ALPHA_FORMS = {
    "min-time": ["min-time"],
    "min-time-target": ["min-time", "--target", "0,1,0"],
    "min-energy": ["min-energy"],
    "sweep-time": ["sweep-synthesis", "--mode", "time", "--n", "2"],
    "sweep-energy": ["sweep-synthesis", "--mode", "energy", "--n", "2"],
    "lift-time": ["lift", "--mode", "time", "--energies=-1,0.3,0.7"],
    "lift-energy": ["lift", "--mode", "energy", "--energies=-1,0.3,0.7"],
    "oracle": ["oracle", "--n", "10", "--seed", "1"],
}


@pytest.mark.parametrize("alpha", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("form", list(_ALPHA_FORMS))
def test_bad_alpha_exits_2_with_library_message(form, alpha, capsys):
    # the library entry point behind each subcommand guards the factor
    assert main(_ALPHA_FORMS[form] + ["--alpha", alpha]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: nonisotropy factor must be finite and > 0, got ")


@pytest.mark.parametrize(
    "argv",
    [
        ["lift", "--alpha", "1", "--mode", "time", "--energies", "1,2,x"],
        ["min-time", "--alpha", "1", "--target", "1,0,x"],
        ["lift", "--alpha", "1", "--mode", "time", "--energies", "1,2,3", "--phases", "1,2,3"],
        ["lift", "--alpha", "1", "--mode", "time", "--energies", "1,2,3", "--phases", "1,y"],
        ["lift", "--alpha", "1", "--mode", "time", "--energies", "1,2,3", "--h", "0"],
        ["lift", "--alpha", "1", "--mode", "time", "--energies", "1,2,3", "--h", "nan"],
        ["lift", "--alpha", "1", "--mode", "time", "--energies", "1,2,3", "--h=-1e-3"],
        ["lift", "--alpha", "1", "--mode", "time", "--energies", "1,inf,3"],
        ["lift", "--alpha", "1", "--mode", "energy", "--energies", "1,2,3", "--phases", "nan,0"],
    ],
)
def test_malformed_numbers_exit_2_with_an_error_line(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("alpha, h", [("1", "1e300"), ("0.7", "0.5")])
def test_too_long_lift_step_names_the_step(alpha, h, capsys):
    # propagate already cuts steps at the switching times; the step is too long
    assert main(["lift", "--mode", "time", "--energies=-1,0.3,0.7", "--alpha", alpha,
                 "--h", h]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: renormalization correction ")
    assert "in the step h=" in err and "use a smaller h" in err
    assert "switching" not in err


_LIFT = ["lift", "--alpha", "1", "--mode", "time", "--energies=-1,0.3,0.7"]
_SWEEP = ["sweep-synthesis", "--alpha", "2", "--mode", "time", "--n", "3"]


@pytest.mark.parametrize(
    "earlier, later, flag",
    [
        (_SWEEP + ["--samples", "5"], _SWEEP, "--out"),
        # the lift's populations move in their last bits with the phases
        (_LIFT + ["--phases", "1,2"], _LIFT, "--trajectory-out"),
    ],
    ids=["sweep-samples", "lift-phases"],
)
def test_the_shared_parser_carries_no_option_into_the_next_call(
    earlier, later, flag, tmp_path, capsys
):
    first, tweaked, again = (tmp_path / name for name in ("first", "tweaked", "again"))
    # a fresh parser is what a first call in a new process uses
    args = build_parser().parse_args(later + [flag, str(first)])
    assert args.fn(args) == 0
    assert main(earlier + [flag, str(tweaked)]) == 0
    assert main(later + [flag, str(again)]) == 0
    assert tweaked.read_bytes() != first.read_bytes()
    assert again.read_bytes() == first.read_bytes()


def test_main_builds_its_parser_once(monkeypatch, capsys):
    assert main(["min-time", "--alpha", "1"]) == 0
    monkeypatch.setattr(qoct.cli, "build_parser", lambda: pytest.fail("parser rebuilt"))
    assert main(["min-time", "--alpha", "2"]) == 0


def test_verify_prints_tolerances_as_written():
    # the tolerances come from qoct.tolerances, and verify keeps printing
    # them as written before: 1e-6, not Python's 1e-06
    tol_text = qoct.acceptance._tol
    for value, text in [(1e-12, "1e-12"), (1e-9, "1e-9"), (1e-6, "1e-6"), (5e-3, "5e-3")]:
        assert tol_text(value) == text
    detail = qoct.acceptance.evaluate("A01", qoct.acceptance.criterion_01, True).detail
    assert "(tol 1e-12)" in detail and "(tol 1e-10)" in detail
    detail = qoct.acceptance.evaluate("A04", qoct.acceptance.criterion_04, True).detail
    assert "(tol 1e-8)" in detail and "(tol 1e-10)" in detail

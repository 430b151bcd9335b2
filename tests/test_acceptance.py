"""Acceptance gate: every criterion at its stated tolerance.

Each criterion runs through ``evaluate``, as ``qoct verify`` runs it; the
test prints its line (visible with ``pytest -s`` or in the failure report)
and asserts the outcome.
"""

import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from qoct import acceptance
from qoct.cli import main


@pytest.mark.parametrize("name,fn", acceptance._CRITERIA, ids=[n for n, _ in acceptance._CRITERIA])
def test_criterion_passes(name, fn):
    result = acceptance.evaluate(name, fn, False)
    print(f"{name}: {'PASS' if result.ok else 'FAIL'} [{result.detail}]")
    assert result.ok, f"{name}: {result.detail}"


def test_a10_elapsed_time_ignores_a_wall_clock_jump(monkeypatch):
    # setting the system clock an hour ahead during the search must not
    # count as search time
    wall = time.time
    offset = [0.0]
    monkeypatch.setattr(time, "time", lambda: wall() + offset[0])
    search = acceptance.sample_search_min_time

    def jumping_search(*args, **kwargs):
        offset[0] += 3600.0
        return search(*args, **kwargs)

    monkeypatch.setattr(acceptance, "sample_search_min_time", jumping_search)
    result = acceptance.evaluate("A10", acceptance.criterion_10, True)
    assert offset[0] == 3 * 3600.0
    assert result.ok, result.detail
    assert {label: value for label, value, _ in result.checks}["elapsed s"] < 60.0


@pytest.mark.parametrize(
    "checks,ok,line",
    [
        ([("err", 1e-7, 1e-6), ("inside", True, None)], True, "err 1.00e-07 (tol 1e-6), inside True"),
        ([("err", 1e-6, 1e-6)], True, "err 1.00e-06 (tol 1e-6)"),  # a bound is inclusive
        ([("err", 2e-6, 1e-6)], False, "err 2.00e-06 (tol 1e-6)"),
        ([("err", math.nan, 1e-6)], False, "err nan (tol 1e-6)"),
        ([("inside", False, None)], False, "inside False"),
        ([], False, ""),  # a criterion that measures nothing certifies nothing
    ],
)
def test_evaluate_derives_verdict_and_line_from_the_checks(checks, ok, line):
    result = acceptance.evaluate("A00", lambda fast: checks, True)
    assert (result.ok, result.detail, result.checks) == (ok, line, tuple(checks))


@pytest.mark.parametrize(
    "samples,ok,line",
    [
        ([1e-7, math.nan], False, "err nan (tol 1e-6)"),  # NaN is not dropped as a worst
        ([], False, "err nan (tol 1e-6)"),  # no sample certifies nothing
        ([0.0, 3e-7, 2e-7], True, "err 3.00e-07 (tol 1e-6)"),
    ],
)
def test_evaluate_checks_the_worst_of_the_samples(samples, ok, line):
    result = acceptance.evaluate("A00", lambda fast: [("err", samples, 1e-6)], True)
    assert (result.ok, result.detail) == (ok, line)


def test_a05_fails_on_a_nan_endpoint(monkeypatch):
    endpoint = acceptance.transfer_endpoint
    monkeypatch.setattr(
        acceptance,
        "transfer_endpoint",
        lambda alpha, m3: np.full(3, np.nan) if alpha == 2.0 else endpoint(alpha, m3),
    )
    result = acceptance.evaluate("A05", acceptance.criterion_05, True)
    assert not result.ok
    assert "worst endpoint miss nan (tol 1e-6)" in result.detail


def test_a11_fails_on_a_nan_mismatch_in_its_energy_case(monkeypatch):
    # the energy case alone compares against an integrated reference
    integrate = acceptance.integrate

    def nan_reference(*args, **kwargs):
        ref = integrate(*args, **kwargs)
        return SimpleNamespace(times=ref.times, states=np.full_like(ref.states, np.nan))

    monkeypatch.setattr(acceptance, "integrate", nan_reference)
    result = acceptance.evaluate("A11", acceptance.criterion_11, True)
    assert not result.ok
    assert "worst population mismatch nan (tol 1e-5)" in result.detail


def test_a_check_over_its_bound_or_a_raise_fails_verify(monkeypatch, capsys):
    def raising(fast):
        raise ZeroDivisionError("float division by zero")

    monkeypatch.setattr(acceptance, "_CRITERIA", [
        ("A01-over", lambda fast: [("err", 2e-6, 1e-6)]),
        ("A02-raises", raising),
        ("A03-fine", lambda fast: [("err", 0.0, 1e-6)]),
    ])
    assert main(["verify", "--fast"]) == 3
    assert capsys.readouterr().out.splitlines() == [
        "A01-over    FAIL  err 2.00e-06 (tol 1e-6)",
        "A02-raises  FAIL  raised ZeroDivisionError: float division by zero",
        "A03-fine    PASS  err 0.00e+00 (tol 1e-6)",
        "2 of 3 criteria failed",
    ]

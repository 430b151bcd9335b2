"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one pass/fail line (visible with ``pytest -s`` or in the
failure report) and asserts the criterion outcome.  The same checks back the
``qoct verify`` subcommand.
"""

import re
import time

import pytest

from qoct import acceptance

CRITERIA = {name: fn for name, fn in acceptance._CRITERIA}


def _run(name):
    ok, detail = CRITERIA[name](False)
    print(f"{name}: {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"{name}: {detail}"


def test_a01_min_time_isotropic():
    _run("A01-min-time-isotropic")


def test_a02_min_time_nonisotropic():
    _run("A02-min-time-nonisotropic")


def test_a03_inversion_symmetry():
    _run("A03-inversion-symmetry")


def test_a04_min_energy_isotropic():
    _run("A04-min-energy-isotropic")


def test_a05_min_energy_nonisotropic():
    _run("A05-min-energy-nonisotropic")


def test_a06_conserved_integrals():
    _run("A06-conserved-integrals")


def test_a07_closed_form_ode_residuals():
    _run("A07-closed-form-ode-residuals")


def test_a08_elliptic_suite():
    _run("A08-elliptic-suite")


def test_a09_switching_rules():
    _run("A09-switching-rules")


def test_a10_brute_force_certificate():
    _run("A10-brute-force-certificate")


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
    ok, detail = CRITERIA["A10-brute-force-certificate"](True)
    assert offset[0] == 3 * 3600.0
    assert ok, detail
    assert float(re.search(r"elapsed ([0-9.]+)s", detail).group(1)) < 60.0


def test_a11_resonant_lift():
    _run("A11-resonant-lift")


def test_a12_figure_data():
    _run("A12-figure-data")

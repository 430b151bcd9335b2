"""Lift real optimal controls to resonant complex laser pulses and simulate
the original three-level dynamics with drift.

Each real control is modulated at exactly the energy gap it couples, with an
arbitrary phase.  Simulating the resulting complex system and undoing the
interaction-picture and phase transformations must reproduce the reduced real
trajectory; population histories agree regardless of the chosen phases.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields

import numpy as np

from . import tolerances as tol
from .errors import ConsistencyError, DomainError, require
from .integrator import Trajectory, propagate


@dataclass(frozen=True)
class LevelSpec:
    """Level energies (hbar = 1) and the two laser phases, any finite reals."""

    e1: float
    e2: float
    e3: float
    xi1: float = 0.0
    xi2: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise DomainError(
                    f"level spec {f.name} must be finite, got {getattr(self, f.name)!r}"
                )


@dataclass(frozen=True)
class ComplexState:
    """A normalized complex 3-vector of level amplitudes."""

    amplitudes: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", a)
        if a.shape != (3,):
            raise DomainError("complex state must have three amplitudes")
        n = float(np.sum(np.abs(a) ** 2))
        if not abs(n - 1.0) <= tol.STATE_NORM:  # NaN fails too
            raise DomainError(
                f"complex state norm^2 = {n!r} is not 1 within {tol.STATE_NORM:g}"
            )

    def populations(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def _phasors(phase: np.ndarray) -> np.ndarray:
    """``cmath.exp(1j * p)`` for each element p of a float array."""
    z = (1j * phase).tolist()
    return np.fromiter(map(cmath.exp, z), complex, len(z))


def lift_controls(bulk_control, spec: LevelSpec):
    """Resonant complex pulses from a real control law: ts -> (F1s, F2s).

    Args:
        bulk_control: function ts -> (u1s, u2s) of a 1-d float array.
        spec: level energies and phases.

    Fj(t) = uj(t) * exp(i (wj t + xij)), wj the gap that control j couples,
    as Python forms it element by element: the exponentials come from
    ``cmath.exp``, and numpy multiplies a real by a complex number as Python
    does, (u + 0j) * z.
    """
    w1 = spec.e2 - spec.e1
    w2 = spec.e3 - spec.e2

    def pulses(ts):
        u1, u2 = bulk_control(ts)
        return u1 * _phasors(w1 * ts + spec.xi1), u2 * _phasors(w2 * ts + spec.xi2)

    return pulses


def _schrodinger_rhs(spec: LevelSpec, alpha: float):
    """i * da/dt = H a, with couplings f1 and alpha*f2 on the off-diagonals."""
    e1, e2, e3 = spec.e1, spec.e2, spec.e3

    def rhs(a1, a2, a3, f1, f2):
        d1 = -1j * (e1 * a1 + f1 * a2)
        d2 = -1j * (f1.conjugate() * a1 + e2 * a2 + alpha * f2 * a3)
        d3 = -1j * (alpha * f2.conjugate() * a2 + e3 * a3)
        return d1, d2, d3

    return rhs


def simulate_complex(
    psi0: ComplexState,
    control,
    bulk_control,
    spec: LevelSpec,
    alpha: float,
    T: float,
    h: float,
    switch_times=(),
    record_every: int = 1,
) -> Trajectory:
    """RK4 integration of the three-level Schroedinger equation driven by
    the resonant pulses of a real control law.

    The same renormalized RK4 as ``integrate``: the norm is rescaled to one
    after every step, and steps never straddle a control switching time
    passed in ``switch_times``.  The steps read their pulses from
    ``lift_controls(bulk_control, spec)`` (see ``integrator.propagate``);
    ``control``, t -> (u1, u2) and equal to ``bulk_control`` element by
    element, gives the recorded |u1(t)| and |u2(t)|, the pulse moduli.

    Returns:
        Trajectory of complex state samples; the final population of level
        three is ``abs(traj.endpoint[2])**2``.
    """
    require("nonisotropy factor", alpha)
    records = propagate(
        tuple(complex(z) for z in psi0.amplitudes),
        None,
        _schrodinger_rhs(spec, alpha),
        T,
        h,
        switch_times,
        record_every,
        lift_controls(bulk_control, spec),
    )
    ts, states = zip(*records)
    u1, u2 = zip(*map(control, ts))
    return Trajectory(ts, states, np.abs(u1), np.abs(u2))


def interaction_picture(traj: Trajectory, spec: LevelSpec) -> Trajectory:
    """Undo the free evolution and the phase transformation, recover reals.

    Applies the inverse interaction-picture rotation and the constant phase
    matrix built from the spec phases; for a real initial state driven by the
    matching resonant pulses the result is real up to integration error.

    Raises:
        ConsistencyError: when imaginary residues exceed
            ``tolerances.IMAGINARY_RESIDUE`` (wrong phases or off-resonant
            drive).
    """
    v_inv = np.array(
        [
            1.0,
            cmath.exp(1j * (math.pi / 2.0 + spec.xi1)),
            cmath.exp(1j * (math.pi + spec.xi1 + spec.xi2)),
        ]
    )
    energies = np.array([spec.e1, spec.e2, spec.e3])
    u_inv = np.exp(1j * energies * traj.times[:, None])
    chi = v_inv * (u_inv * traj.states.astype(complex))
    worst = float(np.max(np.abs(chi.imag)))
    if worst > tol.IMAGINARY_RESIDUE:
        raise ConsistencyError(
            f"imaginary residue {worst:.3e} after undoing the resonant phases"
        )
    # row by row: a 1-d norm is a dot product, which rounds differently from
    # an axis reduction
    norms = np.array([np.linalg.norm(row) for row in chi.real])
    return Trajectory(traj.times, chi.real / norms[:, None], traj.u1, traj.u2)

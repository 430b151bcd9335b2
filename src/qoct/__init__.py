"""Optimal population-transfer controls for a nonisotropic three-level system.

Two complete syntheses on the positive octant of the sphere: minimum time
with bounded controls (bang and singular circle arcs) and minimum energy in
fixed time (Jacobi-elliptic controls indexed by one shooting parameter),
together with independent verification oracles and a resonant lift back to
the full complex dynamics.
"""

from .elliptic import complete_k, sncndn, sncndn_bulk
from .errors import (
    BracketError,
    ConsistencyError,
    DomainError,
    HorizonError,
    NoSolutionError,
    QoctError,
    QuadratureDepthError,
    RegimeError,
    SingularLocusError,
    StepError,
)
from .integrator import ExitFace, Trajectory, first_exit, integrate
from .lift import (
    ComplexState,
    LevelSpec,
    interaction_picture,
    lift_controls,
    simulate_complex,
)
from .min_energy import (
    EnergyExtremal,
    Regime,
    classify,
    controls_at,
    energy_cost,
    energy_sweep,
    exit_face,
    extremal_control,
    extremal_control_bulk,
    m3_bounds,
    solve_m3,
    transfer_endpoint,
    transfer_time,
)
from .oracle import Splitmix64, bisect_root, quadrature, sample_search_min_time
from .so3 import (
    SOURCE,
    TARGET,
    SkewGenerator,
    StateS2,
    bracket,
    generator,
    rodrigues_exp,
)
from .time_optimal import (
    ControlLaw,
    Segment,
    delta_a,
    delta_b1,
    delta_b2,
    f1,
    f2,
    min_time_law,
    propagate_law,
    switching_propagator,
    synthesis_law,
    synthesis_sweep,
    t_alpha,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

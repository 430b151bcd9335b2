"""Central table of numerical tolerances.

Every hard-coded threshold used by the library lives here so that the
accuracy contracts can be audited in one place.
"""

# structural checks at construction time (unit norm), and the slack of
# ``StateS2.in_octant``
STRUCTURAL = 1e-12

# rotation angle below which the Rodrigues coefficients switch to series
ROTATION_SERIES_ANGLE = 1e-6

# stop the arithmetic-geometric mean when the gap drops below this
AGM_GAP = 1e-15

# moduli closer than this to 0 are routed to the trigonometric closed forms
ELLIPTIC_DEGENERATE = 1e-10

# 1 - k below this is routed to the hyperbolic closed forms; the Landen
# chain stays accurate far closer to 1 than to 0, and the solved shooting
# parameter sits an exponentially small distance above its critical value
# for extreme nonisotropy factors, so this gate sits at float resolution
ELLIPTIC_DEGENERATE_ONE = 4e-16

# |sn| of the Landen phase below this returns (u, 1, 1), the correctly
# rounded values there: the backward Landen recurrence overflows once |sn|
# falls below about 1e-154
LANDEN_SN_FLOOR = 1e-150

# the critical-regime window on m3(0)^2 - (1-alpha^2)/alpha^2, in units of
# float spacing of the threshold; only float-indistinguishable parameters
# are routed to the hyperbolic forms
CRITICAL_WINDOW_ULPS = 8.0

# |psi2| below this counts as sitting on the singular locus
SINGULAR_LOCUS = 1e-12

# a segment control may exceed the unit box by this much (rounding slack)
CONTROL_BOUND_SLACK = 1e-12

# segments shorter than this are dropped from a synthesized law and from
# the alpha <= 1 minimum-time law (its singular arc at alpha = 1)
SEGMENT_MIN_DURATION = 1e-12

# a target this close to the source or the target corner is that corner
CORNER_BALL = 1e-12

# a candidate law must be shorter by more than this to replace the best one
DURATION_TIE = 1e-12

# an arc whose off-axis part |B| is below this is a point on the axis
ARC_ON_AXIS = 1e-12

# a final-arc angle within this of 2*pi wraps to zero
ARC_ANGLE_WRAP = 1e-9

# |psi1| below this puts a target on the psi1 = 0 boundary (reject flag)
PSI1_BOUNDARY = 1e-9

# floor on the sampling step of a synthesized law
SAMPLE_STEP_FLOOR = 1e-9


# synthesis root finding: accepted endpoint miss (and octant undershoot) of a
# candidate law, minimal bracket width, and the scan value that counts as a
# root at a grid point
SYNTHESIS_ACCEPT = 1e-9
BRACKET_MIN = 1e-14
SYNTHESIS_SNAP = 1e-13

# the reach screen of a synthesis family skips it when the cone-level miss of
# its final arc, the sinusoid c0 + R cos(w a - phi) in the first switching
# time, has |c0| - R beyond this; the margin covers SYNTHESIS_SNAP and the
# rounding between the sinusoid and the composed rotations (~1e-15), so a
# skipped family is one whose scan could find no sign change and no snap
SYNTHESIS_SCREEN_MARGIN = 1e-9

# a coordinate must dip below -ARC_EXIT_DIP along an arc to count as an exit
ARC_EXIT_DIP = 1e-12

# energy shooting: the RK4 step of the transfer endpoint, the exit face and
# the fine stages of the m3(0) solve
SHOOT_STEP = 1e-3

# the coarse stages of the m3(0) solve, and the energy sweep
SHOOT_COARSE_STEP = 6e-3  # RK4 step of the solve while its bracket is wide
SHOOT_COARSE_WIDTH = 1e-5  # a bracket narrower than this in m3(0) steps SHOOT_STEP
SWEEP_STEP = 2e-3  # RK4 step of the energy sweep's trajectories
SWEEP_SOLVE = 1e-7  # tolerance of the solve that centres the sweep's m3(0) spread

# energy shooting: a solve whose best RK4 transfer endpoint misses the target
# by more than this raises instead of returning its best point
SHOOT_MISS_LIMIT = 1e-3

# event location: boundary-crossing time resolved to this width
EXIT_TIME_BISECT = 1e-11

# a component must undershoot zero by this much to count as a crossing;
# filters integration-noise grazing near the target corner, where the first
# component crosses with a cubically flat tangency
EXIT_DEAD_BAND = 1e-11

# exit points closer than this to (0,0,1) count as hitting the target
TARGET_BALL = 1e-8

# per-step renormalization correction above this aborts the integrator
RENORM_LIMIT = 1e-6

# span/h is reduced by this before rounding up to a step count, so a span
# that is a whole number of steps up to rounding takes exactly that many
STEP_COUNT_SLACK = 1e-12

# a recorded state (real or complex) is off the unit sphere beyond this norm^2
# deviation
STATE_NORM = 1e-10

# largest imaginary residue accepted after undoing the resonant phases
IMAGINARY_RESIDUE = 1e-4

# random pulse search: an arc angle below PULSE_SMALL_ANGLE uses the series
# coefficients, and a squared rate below PULSE_NO_MOTION is a standing arc,
# which never hits; every other hit is decided once, without margins, at the
# analytic psi3 peak or the arc end
PULSE_SMALL_ANGLE = 1e-9
PULSE_NO_MOTION = 1e-24

# RK4 stage times at a subinterval's right end are pulled inside it by this
# share of its width, so a piecewise-constant control is read on the left
STAGE_TIME_NUDGE = 1e-10

# absolute tolerance of the adaptive quadrature of the laser energy
ENERGY_QUADRATURE = 1e-10

# acceptance criteria behind ``qoct verify`` (``qoct.acceptance``); each
# is the bound of a measured check, which its line prints
VERIFY_ISOTROPIC_DURATION = 1e-12  # A01: duration against pi/sqrt(2)
VERIFY_EXACT_ENDPOINT = 1e-10  # A01, A02: exact endpoints and intermediate points
VERIFY_TIME_INVERSION = 1e-12  # A03: bounded-control transfer times
VERIFY_ENERGY_INVERSION = 1e-6  # A03: minimum-energy transfer times
VERIFY_ISOTROPIC_M3 = 1e-8  # A04: m3(0) against 1/sqrt(3)
VERIFY_ISOTROPIC_TRANSFER = 1e-10  # A04: transfer time against sqrt(3)*pi/2
VERIFY_ENERGY_ENDPOINT = 1e-6  # A05: RK4 transfer endpoint miss
VERIFY_FIRST_ZERO = 1e-7  # A05: transfer time against the first v1 zero
VERIFY_FIRST_INTEGRAL = 1e-10  # A06: arclength integral K1
VERIFY_SECOND_INTEGRAL = 1e-9  # A06: second integral K2
VERIFY_ODE_RESIDUAL = 1e-6  # A07: finite-difference residuals
VERIFY_ELLIPTIC_IDENTITY = 1e-11  # A08: sn^2 + cn^2 = 1 and dn^2 + k^2 sn^2 = 1
VERIFY_QUADRATURE = 1e-10  # A08: K(k) against adaptive Simpson
VERIFY_SINGULAR_LOCUS = 1e-9  # A09: singular arcs stay on their face
VERIFY_SEARCH_MARGIN = 5e-3  # A10: the pulse search may beat the optimum by this
VERIFY_SEARCH_SECONDS = 60.0  # A10: time limit of the pulse searches
VERIFY_POPULATION = 1e-5  # A11: final population deficit and population mismatch
VERIFY_COMPONENT_FLOOR = 1e-9  # A12: undershoot of exported synthesis trajectories
# solves and references the criteria run: the shooting tolerance of A03,
# A05 and A11, A04's isotropic solve, A05's v1-zero bisection width, A07's central
# difference step and A08's quadrature tolerance
VERIFY_SOLVE = 1e-8
VERIFY_ISOTROPIC_SOLVE = 1e-10
VERIFY_ZERO_BISECT = 1e-12
VERIFY_FD_STEP = 1e-6
VERIFY_QUADRATURE_REFERENCE = 1e-12
# A12 continuity: a sweep step may not exceed VERIFY_JUMP_FACTOR times its
# neighbours' mean plus VERIFY_JUMP_SLACK * (1 + |value|)
VERIFY_JUMP_FACTOR = 10.0
VERIFY_JUMP_SLACK = 1e-9

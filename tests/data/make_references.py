"""Write ``energy_references.json``: 30-digit roots of the minimum-energy
shooting problem, independent of qoct.

For each factor alpha (the double nearest the decimal, taken exactly) the
target-reaching extremal is the one whose adjoint angle turns by pi up to
the transfer time T, the first zero of v1.  With L = (v2/alpha^2, -m3, v1),
|L| = sqrt(1 + m3(0)^2) is conserved and psi stays orthogonal to L; psi
turns in the plane orthogonal to L at theta' = |L| / rho^2 with
rho^2 = v1^2 + v2^2/alpha^4.  Over [0, T] that is a complete elliptic
integral of the third kind.  In Carlson form, with k' the complementary
modulus of the control closed forms,

- alpha < 1: theta(T) = |L|/rate * [R_F(0, k'^2, 1)
  + (1 - alpha^-2)/3 * R_J(0, k'^2, 1, alpha^-2)],
  with m3(0) = sqrt(1 - alpha^2)/(alpha k) and rate = sqrt(1 - alpha^2)/k;
- alpha > 1: theta(T) = |L|/rate * [R_F(0, k'^2, 1)
  + k'^2 (1 - alpha^-2)/3 * R_J(0, k'^2, 1, k'^2/alpha^2)],
  with m3(0) = k' sqrt(alpha^2 - 1)/(alpha k) and rate = sqrt(alpha^2 - 1)/k;

and T = R_F(0, k'^2, 1)/rate = K/rate.  The script bisects
theta(T) = pi in ln k' at 45 digits and records m3(0), k' and T at 30.

As an independent check, at alpha = 2 it integrates the Pontryagin system
(psi with the controls v1, v2 and the adjoint m3 as states,
v1' = -v2 m3, v2' = alpha^2 v1 m3, m3' = (1 - alpha^-2) v1 v2) from the
recorded m3(0) to the recorded T with mpmath's Taylor ``odefun``, and
requires the endpoint to miss the target (0, 0, 1) by less than 1e-20.

The factors are those of ``GOLDEN_M3`` in ``tests/test_min_energy.py``
(0.2, 0.5, 2, 5), which include the ``min-energy`` goldens (0.5, 2).

Run from the repository root, at any commit (takes about ten seconds):

    python tests/data/make_references.py
"""

import json
import pathlib

import mpmath as mp

OUT = pathlib.Path(__file__).parent / "energy_references.json"
DIGITS = 30
WORK_DIGITS = 45
FACTORS = ("0.2", "0.5", "2", "5")
ODE_FACTOR = "2"
ODE_MISS_LIMIT = mp.mpf("1e-20")


def extremal(alpha, kp):
    """(m3(0), rate, theta(T)) of the super-critical (alpha < 1) or
    above-one extremal with complementary modulus kp."""
    kp2 = kp * kp
    k = mp.sqrt(1 - kp2)
    if alpha < 1:
        m3 = mp.sqrt(1 - alpha**2) / (alpha * k)
        rate = mp.sqrt(1 - alpha**2) / k
        third = (1 - alpha**-2) / 3 * mp.elliprj(0, kp2, 1, alpha**-2)
    else:
        m3 = kp * mp.sqrt(alpha**2 - 1) / (alpha * k)
        rate = mp.sqrt(alpha**2 - 1) / k
        third = kp2 * (1 - alpha**-2) / 3 * mp.elliprj(0, kp2, 1, kp2 / alpha**2)
    theta = mp.sqrt(1 + m3 * m3) / rate * (mp.elliprf(0, kp2, 1) + third)
    return m3, rate, theta


def root_kp(alpha):
    """k' with theta(T) = pi, bisected in ln k'.

    theta(T) grows without bound as k' -> 0 (R_F ~ ln(4/k')) and tends to
    pi/2 or below as k' -> 1, where m3(0) grows without bound.
    """
    lo, hi = mp.log(mp.mpf("1e-60")), mp.log(mp.mpf("0.999999"))
    miss = lambda x: extremal(alpha, mp.exp(x))[2] - mp.pi  # noqa: E731
    if not (miss(lo) > 0 > miss(hi)):
        raise RuntimeError(f"theta(T) - pi does not change sign at alpha {alpha}")
    while hi - lo > mp.mpf(10) ** -(WORK_DIGITS - 5):
        mid = (lo + hi) / 2
        if miss(mid) > 0:
            lo = mid
        else:
            hi = mid
    return mp.exp((lo + hi) / 2)


def ode_miss(alpha, m3, T):
    """|psi(T) - (0, 0, 1)| from the Pontryagin system, by Taylor series."""
    a2 = alpha**2
    c = 1 - 1 / a2

    def rhs(t, y):
        p1, p2, p3, v1, v2, m = y
        return [-v1 * p2, v1 * p1 - v2 * p3, v2 * p2, -v2 * m, a2 * v1 * m, c * v1 * v2]

    y = mp.odefun(rhs, 0, [mp.mpf(1), 0, 0, mp.mpf(1), 0, m3])(T)
    return mp.sqrt(y[0] ** 2 + y[1] ** 2 + (y[2] - 1) ** 2)


def main():
    mp.mp.dps = WORK_DIGITS
    cases = []
    for text in FACTORS:
        alpha = mp.mpf(float(text))  # the double the code sees, exactly
        kp = root_kp(alpha)
        m3, rate, _ = extremal(alpha, kp)
        T = mp.elliprf(0, kp * kp, 1) / rate
        case = {
            "alpha": text,
            "m3_0": mp.nstr(m3, DIGITS),
            "comodulus": mp.nstr(kp, DIGITS),
            "transfer_time": mp.nstr(T, DIGITS),
        }
        if text == ODE_FACTOR:
            miss = ode_miss(alpha, mp.mpf(case["m3_0"]), mp.mpf(case["transfer_time"]))
            if not miss < ODE_MISS_LIMIT:
                raise RuntimeError(f"odefun endpoint misses the target by {miss}")
            case["odefun_target_miss"] = mp.nstr(miss, 3)
        cases.append(case)
    doc = {
        "digits": DIGITS,
        "method": "bisection of theta(T) = pi in ln k' (Carlson R_F/R_J)",
        "cases": cases,
    }
    OUT.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()

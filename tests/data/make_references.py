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

It also writes ``synthesis_references.json``: for every case of
``synthesis_laws.json`` that has a law, the distance from the target of the
law's endpoint, composed exactly from the source at 40 digits.  Each segment
(u1, u2, t) is the rotation exp(tG) = I + sin(wt)/w G + (1 - cos(wt))/w^2 G^2
of the skew generator G with (2,1)-entry u1 and (3,2)-entry alpha*u2,
w = sqrt(u1^2 + alpha^2 u2^2), and the inputs (alpha, target, durations) are
the recorded doubles, taken exactly.

It also writes ``carlson_references.json``: R_F(x, y, z) and
R_J(x, y, z, p) at 20 digits for seeded doubles (taken exactly), the
checks of ``qoct.elliptic.carlson_rf`` and ``carlson_rj``.  Half the
points are the shooting problem's, x = 0, y = k'^2, z = 1, with k' from
1e-150 to 1 and p either k'^2 b^2 (b from 1e-2 to 1) or from 1e-3 to 1e3;
the rest have x, y, z, p from 1e-8 to 1e8, x = 0 in a third of them.

Run from the repository root, at any commit (takes about ten seconds):

    python tests/data/make_references.py
"""

import json
import pathlib
import random

import mpmath as mp

DATA = pathlib.Path(__file__).parent
OUT = DATA / "energy_references.json"
SYNTHESIS_OUT = DATA / "synthesis_references.json"
CARLSON_OUT = DATA / "carlson_references.json"
CARLSON_DIGITS = 20
CARLSON_POINTS = 400
CARLSON_SEED = 19
DIGITS = 30
SYNTHESIS_DIGITS = 40
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


def rotation(u1, u2, alpha, t):
    """exp(tG) for the generator of the controls (u1, u2), by Rodrigues."""
    m1, m2 = mp.mpf(u1), alpha * u2
    g = mp.matrix([[0, -m1, 0], [m1, 0, -m2], [0, m2, 0]])
    w = mp.sqrt(m1 * m1 + m2 * m2)
    return mp.eye(3) + mp.sin(w * t) / w * g + (1 - mp.cos(w * t)) / (w * w) * (g * g)


def law_miss(alpha, target, rows):
    """|endpoint - target| of the law [u1, u2, duration hex] from (1, 0, 0)."""
    state = mp.matrix([1, 0, 0])
    for u1, u2, dur in rows:
        state = rotation(u1, u2, alpha, mp.mpf(float.fromhex(dur))) * state
    return mp.norm(state - mp.matrix(target))


def synthesis_references():
    """Write the 40-digit endpoint miss of every law of the synthesis net."""
    mp.mp.dps = SYNTHESIS_DIGITS
    cases = json.loads((DATA / "synthesis_laws.json").read_text())
    records = []
    for i, case in enumerate(cases):
        if isinstance(case["answer"], str):
            continue
        alpha = mp.mpf(float.fromhex(case["alpha"]))
        target = [mp.mpf(float.fromhex(c)) for c in case["target"]]
        miss = law_miss(alpha, target, case["answer"])
        records.append({"case": i, "miss": mp.nstr(miss, 6, min_fixed=1, max_fixed=0)})
    body = ",\n".join(json.dumps(r) for r in records)
    SYNTHESIS_OUT.write_text(
        "{\n"
        f'"digits": {SYNTHESIS_DIGITS},\n'
        '"method": "endpoint of each law of synthesis_laws.json composed with '
        'Rodrigues rotations; miss = |endpoint - target|",\n'
        f'"cases": [\n{body}\n]\n}}\n'
    )


def carlson_points(rng):
    """Seeded (x, y, z, p) doubles: the shooting problem's, then general ones."""
    decade = lambda lo, hi: 10.0 ** rng.uniform(lo, hi)  # noqa: E731
    for i in range(CARLSON_POINTS):
        if i < CARLSON_POINTS // 2:
            kp2 = decade(-150, 0) ** 2
            p = kp2 * decade(-2, 0) ** 2 if i % 2 else decade(-3, 3)
            yield 0.0, kp2, 1.0, p
        else:
            x = 0.0 if i % 3 == 0 else decade(-8, 8)
            yield x, decade(-8, 8), decade(-8, 8), decade(-8, 8)


def carlson_references():
    """Write R_F and R_J at the seeded points, the inputs as float hex."""
    mp.mp.dps = WORK_DIGITS
    records = []
    for x, y, z, p in carlson_points(random.Random(CARLSON_SEED)):
        rf = mp.elliprf(x, y, z)
        rj = mp.elliprj(x, y, z, p)
        records.append({
            "args": [v.hex() for v in (x, y, z, p)],
            "rf": mp.nstr(rf, CARLSON_DIGITS),
            "rj": mp.nstr(rj, CARLSON_DIGITS),
        })
    body = ",\n".join(json.dumps(r) for r in records)
    CARLSON_OUT.write_text(
        "{\n"
        f'"digits": {CARLSON_DIGITS},\n'
        '"method": "mpmath elliprf(x, y, z) and elliprj(x, y, z, p) at the float-hex args",\n'
        f'"points": [\n{body}\n]\n}}\n'
    )


def main():
    synthesis_references()
    carlson_references()
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

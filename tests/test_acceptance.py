"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line for its criterion; all run within
the stated time budgets on a laptop-class machine.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from formcalc import meshes, scenarios
from formcalc.cochain import Cochain, twist_cochain
from formcalc.cohomology import betti_numbers
from formcalc.forms import PolyForm, PolyVectorField
from formcalc.grid import RectGrid
from formcalc.maxwell import EMState, PointCharge, evolve_leapfrog, lorentz_force
from formcalc.metric import Metric, form_magnitude, gamma_factor
from formcalc.parity import Parity
from formcalc.poly import Poly


def report(label, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} {label}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{label}: {detail}"


# -- criterion 1: Stokes disk figure ------------------------------------------

def test_acceptance_1_stokes_disk_minus7():
    start = time.time()
    lhs, rhs = scenarios.stokes_disk_minus7().values["pairing"]
    elapsed = time.time() - start
    ok = lhs == Fraction(-7) and rhs == Fraction(-7) and elapsed < 1.0
    report("criterion 1: Stokes disk pairing = (-7, -7)", ok,
           f"pairing = ({lhs}, {rhs}), {elapsed:.3f}s")


# -- criterion 2: randomized exact identity suite ------------------------------

def _random_poly(rng, n):
    expo = tuple(rng.randint(0, 2) for _ in range(n))
    return Poly(n, {expo: Fraction(rng.randint(-3, 3), rng.randint(1, 2))})


def _random_form(rng, n, p):
    form = PolyForm.zero(n, p)
    for _ in range(rng.randint(1, 2)):
        idx = tuple(sorted(rng.sample(range(n), p)))
        form = form + PolyForm.basis(n, idx).scale(_random_poly(rng, n))
    return form


def test_acceptance_2_identity_suite():
    start = time.time()
    rng = random.Random(101)
    counts = dict.fromkeys(
        ["wedge", "dd", "leibniz", "pullback", "antiderivation", "ii", "hodge"], 0)
    failures = []
    for trial in range(1000):
        n = rng.randint(2, 5)
        g = Metric.euclidean(n) if trial % 2 == 0 else Metric.minkowski(n)

        p = rng.randint(0, n)
        q = rng.randint(0, n - p)
        a, b = _random_form(rng, n, p), _random_form(rng, n, q)
        if a.wedge(b) != b.wedge(a).scale((-1) ** (p * q)):
            failures.append(("wedge", trial))
        counts["wedge"] += 1

        w = _random_form(rng, n, rng.randint(0, n - 1))
        if not w.d().d().is_zero():
            failures.append(("dd", trial))
        counts["dd"] += 1

        if a.wedge(b).d() != a.d().wedge(b) + a.wedge(b.d()).scale((-1) ** p):
            failures.append(("leibniz", trial))
        counts["leibniz"] += 1

        m = rng.randint(1, 3)
        phi = [_random_poly(rng, m) for _ in range(n)]
        if w.d().pullback(phi) != w.pullback(phi).d():
            failures.append(("pullback", trial))
        counts["pullback"] += 1

        V = PolyVectorField(n, tuple(_random_poly(rng, n) for _ in range(n)))
        pa = max(p, 1) if p <= n - 1 else n - 1
        aa = _random_form(rng, n, pa)
        bb = _random_form(rng, n, rng.randint(1, n - pa))
        lhs = aa.wedge(bb).interior(V)
        rhs = aa.interior(V).wedge(bb) + aa.wedge(bb.interior(V)).scale((-1) ** pa)
        if lhs != rhs:
            failures.append(("antiderivation", trial))
        counts["antiderivation"] += 1

        if not aa.interior(V).interior(V).is_zero():
            failures.append(("ii", trial))
        counts["ii"] += 1

        det_sign = 1 if g.det() > 0 else -1
        pw = w.degree
        if w.hodge(g).hodge(g) != w.scale(Fraction((-1) ** (pw * (n - pw)) * det_sign)):
            failures.append(("hodge", trial))
        counts["hodge"] += 1
    elapsed = time.time() - start
    ok = not failures and all(c == 1000 for c in counts.values()) and elapsed < 30.0
    report("criterion 2: 1000x exact identity suite", ok,
           f"failures = {failures[:3]}, {elapsed:.1f}s")


# -- criterion 3: cohomology ---------------------------------------------------

def test_acceptance_3_cohomology():
    start = time.time()
    tables = {
        "annulus": (meshes.annulus(), (1, 1, 0)),
        "sphere": (meshes.sphere_octahedron(), (1, 0, 1)),
        "disk": (meshes.disk(), (1, 0, 0)),
    }
    ok = all(betti_numbers(cx).betti == betti for cx, betti in tables.values())
    ok = ok and scenarios.torus_betti().values["betti"] == (1, 2, 1)
    ok = ok and not betti_numbers(meshes.mobius_minimal()).orientable

    hole = scenarios.annulus_hole().values
    ok = ok and hole["closed"] and not hole["exact"]

    around, trivial = hole["hole"], hole["contractible"]
    elapsed = time.time() - start
    ok = ok and around != 0 and trivial == 0 and elapsed < 5.0
    report("criterion 3: Betti tables + winding cochain", ok,
           f"hole integral = {around}, contractible = {trivial}, {elapsed:.2f}s")


# -- criterion 4: twisted-form semantics ----------------------------------------

def test_acceptance_4_twisted_semantics():
    mobius = scenarios.mobius_twisted_only().values
    total = mobius["twisted_integral"]
    errored = mobius["straight_error"] is not None

    cx = meshes.annulus()
    _, signs = cx.orientability()
    rng = random.Random(41)
    round_trips = 0
    for _ in range(1000):
        degree = rng.randint(0, 2)
        c = Cochain(degree,
                    tuple(Fraction(rng.randint(-9, 9))
                          for _ in cx.simplices[degree]),
                    Parity.STRAIGHT, "exact")
        if twist_cochain(twist_cochain(c, cx, signs), cx, signs) == c:
            round_trips += 1
    ok = (total == len(meshes.mobius_minimal().simplices[2]) and errored
          and round_trips == 1000)
    report("criterion 4: twisted-only Mobius integration + twist round trip", ok,
           f"total = {total}, straight errored = {errored}, "
           f"round trips = {round_trips}/1000")


# -- criterion 5: F wedge F ------------------------------------------------------

def test_acceptance_5_ffwedge():
    ff = scenarios.ffwedge_4d().values["FF"]
    expected = PolyForm.basis(4, (0, 1, 2, 3)).scale(Fraction(2))
    report("criterion 5: F^F = 2 dt^dx^dy^dz", ff == expected, str(ff))


# -- criterion 6: electrostatics -------------------------------------------------

def test_acceptance_6_electrostatics():
    start = time.time()
    q = 5.0
    gauss = scenarios.gauss_point_charge().values
    fluxes = gauss["fluxes"]
    elapsed = time.time() - start
    ok = (gauss["charge"] == q and gauss["radii"] == (3, 6, 10)
          and all(abs(f - q) / q <= 0.01 for f in fluxes) and elapsed < 60.0)
    report("criterion 6: point-charge flux = Q on three surfaces", ok,
           f"fluxes = {[round(f, 6) for f in fluxes]}, {elapsed:.1f}s")


# -- criterion 7: magnetostatics --------------------------------------------------

def test_acceptance_7_magnetostatics():
    start = time.time()
    current = 2.5
    wire = scenarios.ampere_wire().values
    linking, non_linking = wire["linking"], wire["non_linking"]
    elapsed = time.time() - start
    ok = (wire["current"] == current and wire["radii"] == (4, 9)
          and all(abs(c - current) / current <= 0.01 for c in linking)
          and abs(non_linking) <= 0.01 * current and elapsed < 60.0)
    report("criterion 7: wire circulation = I (linking), 0 (non-linking)", ok,
           f"linking = {[round(c, 6) for c in linking]}, "
           f"non-linking = {non_linking:.2e}, {elapsed:.1f}s")


# -- criterion 8: evolution --------------------------------------------------------

def test_acceptance_8_evolution():
    start = time.time()
    wave = scenarios.plane_wave().values
    errors, max_divb = wave["errors"], max(wave["max_divB"])
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]

    # discrete continuity over 10,000 steps with a moving point charge
    n = 12
    grid = RectGrid((n, n, n), (1.0 / n,) * 3)
    state = EMState.zeros(grid)
    charge = PointCharge(3.0, (0.3, 0.4, 0.55), (0.23, -0.11, 0.05))
    state.rho[charge.cell_of(grid)] = 3.0
    dt = 0.5 * state.cfl_limit()
    vol = (1.0 / n) ** 3
    initial_residual = float(np.abs(state.div_D() - state.rho / vol).max())
    evolve_leapfrog(state, 10000, dt, lambda step: charge.push(grid, dt))
    final_residual = state.diagnostics["gauss_residual"][-1]
    drift = abs(final_residual - initial_residual) / max(initial_residual, 1.0)

    elapsed = time.time() - start
    ok = (min(orders) >= 1.8 and max_divb <= 1e-12 and drift <= 1e-12
          and elapsed < 120.0)
    report("criterion 8: order >= 1.8, |dB| <= 1e-12, continuity over 1e4 steps",
           ok, f"orders = {[round(o, 3) for o in orders]}, "
               f"max |dB| = {max_divb:.1e}, residual drift = {drift:.1e}, "
               f"{elapsed:.1f}s")


# -- criterion 9: metric suite ------------------------------------------------------

def test_acceptance_9_metric_suite():
    g2 = Metric.minkowski(2)
    gamma = gamma_factor((Fraction(1), Fraction(0)),
                         (Fraction(5, 4), Fraction(3, 4)), g2)
    gamma_ok = abs(gamma - Fraction(5, 4)) <= Fraction(1, 10 ** 12)

    g4 = Metric.minkowski(4)
    null = (Fraction(1), Fraction(1), Fraction(0), Fraction(0))
    null_ok = g4.inner(null, null) == 0

    e3 = Metric.euclidean(3)
    mag, _ = form_magnitude(PolyForm.basis(3, (0,)).scale(Fraction(7, 2)), e3)
    mag_ok = mag == 3.5

    ok = gamma_ok and null_ok and mag_ok
    report("criterion 9: gamma(0.6) = 1.25, null self-orthogonality, |3.5 dx| = 3.5",
           ok, f"gamma = {gamma}, |3.5 dx| = {mag}")


# -- criterion 10: Lorentz force ------------------------------------------------------

def test_acceptance_10_lorentz():
    g = Metric.minkowski(4)
    rng = random.Random(77)
    samples = 0
    worst = Fraction(0)
    while samples < 1000:
        vx = Fraction(rng.randint(-4, 4), 9)
        vy = Fraction(rng.randint(-4, 4), 9)
        vz = Fraction(rng.randint(-4, 4), 9)
        t2 = 1 + vx * vx + vy * vy + vz * vz
        num, den = math.isqrt(t2.numerator), math.isqrt(t2.denominator)
        root = Fraction(num, den)
        if root * root != t2:
            # fall back to a boosted frame along x with rational gamma
            vx, vy, vz = Fraction(3, 5), Fraction(0), Fraction(0)
            root = Fraction(5, 4)
            vx = root * vx
        v = (root, vx, vy, vz)
        field = PolyForm.zero(4, 2)
        for pair in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)):
            field = field + PolyForm.basis(4, pair).scale(
                Fraction(rng.randint(-5, 5)))
        out = lorentz_force(Fraction(rng.randint(1, 4)), v, field, g)
        worst = max(worst, abs(out["orthogonality"]))
        samples += 1

    rest = scenarios.lorentz_rest_charge().values
    comps = rest["force"]
    rest_ok = (rest["E0"] == 2 and rest["charge"] == 3
               and comps == [Fraction(0), Fraction(6), Fraction(0), Fraction(0)])

    ok = worst <= Fraction(1, 10 ** 12) and rest_ok
    report("criterion 10: g(f,V) = 0 on 1000 samples + rest charge = qE", ok,
           f"max |g(f,V)| = {worst}, rest force = {comps}")

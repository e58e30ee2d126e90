"""Electromagnetic field dictionary, statics, evolution, Lorentz force."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from formcalc.forms import PolyForm
from formcalc.grid import RectGrid, box_node_set
from formcalc.maxwell import (
    FIELD_DICTIONARY,
    EMState,
    PointCharge,
    charge_conservation_check,
    evolve_leapfrog,
    lorentz_force,
    solve_electrostatics,
    solve_magnetostatics,
    validate_dictionary,
)
from formcalc.metric import Metric
from formcalc.parity import Parity


def test_field_dictionary_contents():
    assert FIELD_DICTIONARY["E"] == (1, Parity.STRAIGHT, 3)
    assert FIELD_DICTIONARY["D"] == (2, Parity.TWISTED, 3)
    assert FIELD_DICTIONARY["B"] == (2, Parity.STRAIGHT, 3)
    assert FIELD_DICTIONARY["H"] == (1, Parity.TWISTED, 3)
    assert FIELD_DICTIONARY["F"] == (2, Parity.STRAIGHT, 4)
    assert FIELD_DICTIONARY["Hcal"] == (2, Parity.TWISTED, 4)
    assert validate_dictionary(FIELD_DICTIONARY) == []


def test_validate_dictionary_flags_violations():
    bad = dict(FIELD_DICTIONARY)
    bad["D"] = (2, Parity.STRAIGHT, 3)
    problems = validate_dictionary(bad)
    assert problems and any("D" in p for p in problems)


def test_electrostatics_gauss_small_grid():
    grid = RectGrid((16, 16, 16), (1.0, 1.0, 1.0))
    rho = np.zeros(grid.node_shape)
    rho[8, 8, 8] = 3.0
    result = solve_electrostatics(grid, rho.ravel(), tol=1e-10)
    for radius in (2, 5):
        flux = result.flux_through_box(radius)
        assert abs(flux - 3.0) / 3.0 < 0.01
    assert result.solution.iterations > 0


def test_electrostatics_gauss_two_materials():
    grid = RectGrid((16, 16, 16), (1.0, 1.0, 1.0))
    eps = np.ones(grid.shape)
    eps[8:] = 4.0  # the charge sits on the interface between the halves
    rho = np.zeros(grid.node_shape)
    rho[8, 8, 8] = 3.0
    result = solve_electrostatics(grid, rho.ravel(), eps=eps, tol=1e-10)
    for radius in (2, 5):
        flux = result.flux_through_box(radius)
        assert abs(flux - 3.0) / 3.0 < 0.01


def test_electrostatics_flux_excludes_outside_charge():
    grid = RectGrid((16, 16, 16), (1.0, 1.0, 1.0))
    rho = np.zeros(grid.node_shape)
    rho[8, 8, 8] = 3.0
    rho[2, 2, 2] = 4.0
    result = solve_electrostatics(grid, rho.ravel(), tol=1e-10)
    flux = result.flux_through_box(3)
    assert abs(flux - 3.0) / 3.0 < 0.01


def test_electrostatics_requires_3d():
    with pytest.raises(ValueError, match="3-dim"):
        solve_electrostatics(RectGrid((8, 8), (1.0, 1.0)), np.zeros(81))


def test_magnetostatics_ampere():
    grid = RectGrid((32, 32), (1.0, 1.0))
    j = np.zeros(grid.node_shape)
    j[16, 16] = 2.0
    result = solve_magnetostatics(grid, j.ravel(), tol=1e-10)
    circ = result.circulation_around(box_node_set(grid, 5))
    assert abs(circ - 2.0) / 2.0 < 0.01
    off = np.zeros(grid.node_shape, dtype=bool)
    off[2:6, 2:6] = True
    assert abs(result.circulation_around(off.ravel())) < 0.02


def plane_wave_state(n):
    h = 1.0 / n
    grid = RectGrid((n, 1, 1), (h, 1.0, 1.0))
    state = EMState.zeros(grid)
    dt = 0.5 * state.cfl_limit()
    steps = int(round(1.0 / dt))
    dt = 1.0 / steps
    k = 2.0 * math.pi
    x_e = (np.arange(n) * h).reshape(n, 1, 1)
    x_b = ((np.arange(n) + 0.5) * h).reshape(n, 1, 1)
    state.E[2][:] = np.cos(k * x_e)
    state.B[1][:] = -np.cos(k * (x_b + dt / 2.0))
    return state, dt, steps, x_e, k


def test_leapfrog_second_order():
    errors = []
    for n in (32, 64):
        state, dt, steps, x_e, k = plane_wave_state(n)
        evolve_leapfrog(state, steps, dt)
        exact = np.cos(k * (x_e - state.time))
        errors.append(float(np.abs(state.E[2] - exact).max()))
    assert math.log2(errors[0] / errors[1]) > 1.8


def test_leapfrog_div_b_conserved():
    state, dt, steps, _, _ = plane_wave_state(32)
    evolve_leapfrog(state, steps, dt)
    assert max(state.diagnostics["max_divB"]) <= 1e-12


def test_leapfrog_energy_bounded():
    state, dt, steps, _, _ = plane_wave_state(32)
    evolve_leapfrog(state, 2000, dt)
    energies = state.diagnostics["energy"]
    assert max(energies) / min(energies) < 1.001


def test_cfl_enforced():
    state, dt, _, _, _ = plane_wave_state(16)
    with pytest.raises(ValueError, match="CFL"):
        evolve_leapfrog(state, 1, 10 * state.cfl_limit())


def test_point_charge_deposition_conserves_charge():
    n = 8
    grid = RectGrid((n, n, n), (1.0 / n,) * 3)
    state = EMState.zeros(grid)
    charge = PointCharge(2.0, (0.31, 0.42, 0.55), (0.2, -0.13, 0.07))
    state.rho[charge.cell_of(grid)] = 2.0
    dt = 0.4 * state.cfl_limit()
    initial = np.abs(state.div_D() - state.rho / (1.0 / n) ** 3).max()
    evolve_leapfrog(state, 500, dt, lambda step: charge.push(grid, dt))
    final = state.diagnostics["gauss_residual"][-1]
    assert abs(final - initial) < 1e-9 * max(initial, 1.0)
    assert math.isclose(float(state.rho.sum()), 2.0, rel_tol=1e-12)


def test_point_charge_rejects_fast_particles():
    grid = RectGrid((8, 8, 8), (0.125, 0.125, 0.125))
    charge = PointCharge(1.0, (0.5, 0.5, 0.5), (10.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="more than one cell"):
        charge.push(grid, 0.1)


def test_charge_conservation_check_helper():
    grid = RectGrid((4, 4, 4), (1.0, 1.0, 1.0))
    rho0 = np.zeros(grid.shape)
    rho1 = np.zeros(grid.shape)
    rho0[1, 1, 1] = 1.0
    rho1[2, 1, 1] = 1.0
    region = np.zeros(grid.shape, dtype=bool)
    region[1, 1, 1] = True
    # one unit of charge left the region: side flux must account for it
    assert charge_conservation_check(rho0, rho1, 1.0, region)["closed"]
    assert not charge_conservation_check(rho0, rho1, 0.0, region)["closed"]


def test_lorentz_rest_charge():
    g = Metric.minkowski(4)
    field = PolyForm.basis(4, (0,)).wedge(PolyForm.basis(4, (1,))).scale(
        Fraction(2))
    rest = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
    out = lorentz_force(Fraction(3), rest, field, g)
    comps = [c.constant_value() for c in out["vector"].components]
    assert comps == [Fraction(0), Fraction(6), Fraction(0), Fraction(0)]
    assert out["orthogonality"] == 0


def test_lorentz_zero_when_velocity_annihilates_field():
    g = Metric.minkowski(4)
    field = PolyForm.basis(4, (2, 3))  # pure dy^dz
    rest = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
    out = lorentz_force(Fraction(1), rest, field, g)
    assert out["covector"].is_zero()


def test_lorentz_magnetic_force_orthogonal():
    g = Metric.minkowski(4)
    b_field = PolyForm.basis(4, (1, 2))  # magnetic dx^dy
    moving = (Fraction(5, 4), Fraction(3, 4), Fraction(0), Fraction(0))
    out = lorentz_force(Fraction(1), moving, b_field, g)
    assert out["orthogonality"] == 0
    comps = [c.constant_value() for c in out["vector"].components]
    assert comps[0] == 0 and comps[2] != 0


def test_lorentz_random_orthogonality():
    g = Metric.minkowski(4)
    rng = random.Random(31)
    for _ in range(100):
        vx = Fraction(rng.randint(-3, 3), 7)
        vy = Fraction(rng.randint(-3, 3), 7)
        vz = Fraction(rng.randint(-3, 3), 7)
        # normalize to unit timelike exactly: scale so -t^2+|v|^2 = -1 needs
        # rational sqrt; instead use boosts with rational gamma where possible
        space = vx * vx + vy * vy + vz * vz
        # pick t so that t^2 = 1 + space when it is a perfect rational square
        t2 = 1 + space
        root = Fraction(math.isqrt(t2.numerator), math.isqrt(t2.denominator))
        if root * root != t2:
            continue
        v = (root, vx, vy, vz)
        field = PolyForm.zero(4, 2)
        for pair in ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3)):
            field = field + PolyForm.basis(4, pair).scale(
                Fraction(rng.randint(-5, 5)))
        out = lorentz_force(Fraction(rng.randint(1, 5)), v, field, g)
        assert out["orthogonality"] == 0


def test_lorentz_rejects_non_timelike():
    g = Metric.minkowski(4)
    field = PolyForm.basis(4, (0, 1))
    with pytest.raises(ValueError):
        lorentz_force(Fraction(1),
                      (Fraction(0), Fraction(1), Fraction(0), Fraction(0)),
                      field, g)

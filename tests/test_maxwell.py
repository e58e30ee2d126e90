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
    _curl,
    _diff,
    _div,
    charge_conservation_check,
    evolve_leapfrog,
    lorentz_force,
    plane_wave,
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


def test_leapfrog_second_order():
    errors = []
    for n in (32, 64):
        state, dt, steps = plane_wave(n)
        evolve_leapfrog(state, steps, dt)
        x = np.arange(n).reshape(n, 1, 1) / n
        exact = np.cos(2.0 * math.pi * (x - state.time))
        errors.append(float(np.abs(state.E[2] - exact).max()))
    assert math.log2(errors[0] / errors[1]) > 1.8


def test_leapfrog_div_b_conserved():
    state, dt, steps = plane_wave(32)
    evolve_leapfrog(state, steps, dt)
    assert max(state.diagnostics["max_divB"]) <= 1e-12


def test_leapfrog_energy_bounded():
    state, dt, steps = plane_wave(32)
    evolve_leapfrog(state, 2000, dt)
    energies = state.diagnostics["energy"]
    assert max(energies) / min(energies) < 1.001


def test_cfl_enforced():
    state, dt, _ = plane_wave(16)
    with pytest.raises(ValueError, match="CFL"):
        evolve_leapfrog(state, 1, 10 * state.cfl_limit())


# Reference stencils written with np.roll, one per operator: _curl, div_B
# and div_D must reproduce them bit for bit.

def roll_curl(fields, h, forward):
    out = []
    for d in range(3):
        a, b = (d + 1) % 3, (d + 2) % 3
        if forward:
            da = (np.roll(fields[b], -1, axis=a) - fields[b]) / h[a]
            db = (np.roll(fields[a], -1, axis=b) - fields[a]) / h[b]
        else:
            da = (fields[b] - np.roll(fields[b], 1, axis=a)) / h[a]
            db = (fields[a] - np.roll(fields[a], 1, axis=b)) / h[b]
        out.append(da - db)
    return out


def roll_div(fields, h, forward):
    out = np.zeros(fields[0].shape)
    for d in range(3):
        if forward:
            out += (np.roll(fields[d], -1, axis=d) - fields[d]) / h[d]
        else:
            out += (fields[d] - np.roll(fields[d], 1, axis=d)) / h[d]
    return out


def same_bits(got, want):
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


@pytest.mark.parametrize("shape", [(5, 4, 3), (2, 1, 3), (6, 1, 1)])
def test_one_d_matches_roll_stencils_bitwise(shape):
    h = (0.7, 1.1, 0.4)
    rng = np.random.default_rng(11)
    state = EMState.zeros(RectGrid(shape, h))
    for f in state.E + state.B:
        f[:] = rng.standard_normal(shape)
    for dual in (False, True):
        got = _curl(state.B, h, dual=dual)
        want = roll_curl(state.B, h, forward=not dual)
        assert all(same_bits(g, w) for g, w in zip(got, want))
    assert same_bits(state.div_B(), roll_div(state.B, h, forward=True))
    assert same_bits(state.div_D(), roll_div(state.E, h, forward=False))


def integer_fields(rng, shape, count):
    return [rng.integers(-9, 10, shape).astype(float) for _ in range(count)]


@pytest.mark.parametrize("shape", [(5, 4, 3), (2, 1, 3), (6, 1, 1)])
def test_one_d_exact_identities(shape):
    h = (1.0, 1.0, 1.0)
    rng = np.random.default_rng(5)
    (phi,) = integer_fields(rng, shape, 1)
    E, B = integer_fields(rng, shape, 3), integer_fields(rng, shape, 3)
    for dual in (False, True):
        # d d = 0 on 0-forms and on 1-forms, on either lattice
        assert not _div(_curl(E, h, dual), h, dual).any()
        grad = [_diff(phi, d, h, dual) for d in range(3)]
        assert not any(c.any() for c in _curl(grad, h, dual))
    # the dual d is minus the transpose of the primal d
    assert (sum(float(np.sum(c * b)) for c, b in zip(_curl(E, h), B))
            == sum(float(np.sum(e * c)) for e, c in zip(E, _curl(B, h, dual=True))))
    grad = [_diff(phi, d, h) for d in range(3)]
    assert (float(np.sum(phi * _div(E, h, dual=True)))
            == -sum(float(np.sum(g * e)) for g, e in zip(grad, E)))


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
    charge = PointCharge(1.0, (0.5, 0.5, 0.01), (0.0, 0.0, -10.0))
    with pytest.raises(ValueError, match="more than one cell"):
        charge.push(grid, 0.1)


def scatter(shape, J, drho):
    """The sparse deposits of ``PointCharge.push`` as full grids."""
    J_full = [np.zeros(shape) for _ in range(3)]
    for (d, *cell), density in J.items():
        J_full[d][tuple(cell)] += density
    drho_full = np.zeros(shape)
    for cell, increment in drho.items():
        drho_full[cell] += increment
    return J_full, drho_full


@pytest.mark.parametrize("position, velocity", [
    ((1.99, 0.99, 0.49), (1.28, 1.28, 1.28)),     # up through every wrap face
    ((0.01, 0.01, 0.01), (-1.28, -1.28, -1.28)),  # down through every wrap face
    ((1.99, 0.01, 0.37), (1.28, -1.28, 1.28)),    # mixed, one interior face
])
def test_point_charge_deposits_satisfy_continuity_exactly(position, velocity):
    # dyadic spacing, dt and q: every deposit and sum below is exact
    shape, h, dt, q = (4, 4, 4), (0.5, 0.25, 0.125), 2.0 ** -6, 3.0
    grid = RectGrid(shape, h)
    charge = PointCharge(q, position, velocity)
    J, drho = charge.push(grid, dt)
    assert len(J) == 3 and len(drho) == 2
    J_full, drho_full = scatter(shape, J, drho)
    vol = float(np.prod(h))
    assert not (drho_full + dt * vol * _div(J_full, h, dual=True)).any()
    assert sum(drho.values()) == 0.0


def test_point_charge_move_within_a_cell_deposits_nothing():
    grid = RectGrid((4, 4, 4), (0.25, 0.25, 0.25))
    charge = PointCharge(1.0, (0.3, 0.4, 0.6), (0.1, -0.1, 0.1))
    assert charge.push(grid, 0.01) == ({}, {})


# Reference leapfrog step on whole grids: every term a full temporary, J
# and drho scattered onto the grid, the np.roll stencils for d.
# evolve_leapfrog, in place and with sparse deposits, must reproduce it
# bit for bit.

def full_array_step(state, dt, J, drho):
    h, eps, mu = state.grid.spacing, state.eps, state.mu
    for b, curl_e in zip(state.B, roll_curl(state.E, h, forward=True)):
        b -= dt * curl_e
    curl_h = roll_curl(state.B, h, forward=False)
    state.rho += drho
    for d in range(3):
        state.E[d] += (dt / (eps * mu)) * curl_h[d]
        state.E[d] -= (dt / eps) * J[d]
    state.time += dt
    cellvol = float(np.prod(h))
    e2 = sum(float(np.sum(a * a)) for a in state.E)
    b2 = sum(float(np.sum(a * a)) for a in state.B)
    scale = max(float(max(np.abs(b).max() for b in state.B)), 1e-300)
    gauss = eps * roll_div(state.E, h, forward=False) - state.rho / cellvol
    diag = state.diagnostics
    diag["time"].append(state.time)
    diag["energy"].append(0.5 * cellvol * (eps * e2 + b2 / mu))
    diag["max_divB"].append(
        float(np.abs(roll_div(state.B, h, forward=True)).max()) * min(h) / scale)
    diag["gauss_residual"].append(float(np.abs(gauss).max()))


def anisotropic_state(layout=np.ascontiguousarray):
    shape = (12, 10, 8)
    grid = RectGrid(shape, tuple(L / n for L, n in zip((0.7, 1.1, 0.4), shape)))
    state = EMState.zeros(grid, eps=1.3, mu=0.8)
    rng = np.random.default_rng(17)
    state.E = [layout(rng.standard_normal(shape)) for _ in range(3)]
    state.B = [layout(rng.standard_normal(shape)) for _ in range(3)]
    state.rho = layout(state.rho)
    return state


def test_leapfrog_step_matches_full_array_reference_bitwise():
    steps, turn = 300, 150
    state, ref = anisotropic_state(), anisotropic_state()
    # starts next to the high x and z and the low y boundary; turning back
    # halfway, it crosses faces on every axis both ways, wrap faces included
    charges = [PointCharge(2.5, (0.69, 0.02, 0.39), (0.3, -0.3, 0.2))
               for _ in range(2)]
    state.rho[charges[0].cell_of(state.grid)] = 2.5
    ref.rho[charges[1].cell_of(ref.grid)] = 2.5
    dt = 0.9 * state.cfl_limit()
    crossings = set()

    def sources(step):
        if step == turn:
            charges[0].v = -charges[0].v
        J, drho = charges[0].push(state.grid, dt)
        crossings.update((*face, density > 0) for face, density in J.items())
        return J, drho

    evolve_leapfrog(state, steps, dt, sources)
    for step in range(steps):
        if step == turn:
            charges[1].v = -charges[1].v
        full_array_step(ref, dt, *scatter(ref.grid.shape, *charges[1].push(ref.grid, dt)))

    shape = state.grid.shape
    for d in range(3):
        for up in (True, False):
            assert any(c[0] == d and c[-1] is up for c in crossings)
            assert any(c[0] == d and c[1 + d] == shape[d] - 1 and c[-1] is up
                       for c in crossings)
    assert all(same_bits(a, b) for a, b in zip(state.E + state.B, ref.E + ref.B))
    assert same_bits(state.rho, ref.rho)
    assert state.time == ref.time
    for key in ("time", "max_divB", "gauss_residual"):
        assert same_bits(np.array(state.diagnostics[key]), np.array(ref.diagnostics[key]))
    np.testing.assert_allclose(state.diagnostics["energy"], ref.diagnostics["energy"],
                               rtol=1e-13, atol=0)


def transposed_view(a):
    """A non-contiguous view holding the same values as ``a``."""
    return np.ascontiguousarray(np.swapaxes(a, 0, 1)).swapaxes(0, 1)


@pytest.mark.parametrize("layout", [np.asfortranarray, transposed_view])
def test_operators_and_step_ignore_memory_layout(layout):
    want, got = anisotropic_state(), anisotropic_state(layout)
    assert not got.B[0].flags.c_contiguous
    h = want.grid.spacing
    for dual in (False, True):
        for axis in range(3):
            assert same_bits(_diff(got.E[0], axis, h, dual), _diff(want.E[0], axis, h, dual))
        assert all(same_bits(g, w) for g, w in zip(_curl(got.B, h, dual),
                                                   _curl(want.B, h, dual)))
    assert same_bits(got.div_B(), want.div_B())
    assert same_bits(got.div_D(), want.div_D())
    for state in (want, got):
        charge = PointCharge(1.5, (0.69, 0.02, 0.39), (0.9, -0.9, 0.6))
        state.rho[charge.cell_of(state.grid)] = 1.5
        dt = 0.9 * state.cfl_limit()
        evolve_leapfrog(state, 1, dt, lambda step: charge.push(state.grid, dt))
    assert all(same_bits(np.ascontiguousarray(g), w)
               for g, w in zip(got.E + got.B + [got.rho], want.E + want.B + [want.rho]))
    assert got.diagnostics == want.diagnostics


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

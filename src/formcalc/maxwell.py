"""Electromagnetism in form language on rectilinear grids.

The spacetime split is the classic staggered (Yee) scheme read as
discrete exterior calculus: the field-strength 2-form stays closed and
the excitation 2-form's derivative equals the current, step by step.
Units are SI with configurable vacuum constants; the defaults normalize
the wave speed to 1 for convergence studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .forms import PolyForm, PolyVectorField
from .grid import (RectGrid, StaticsSolution, box_node_set, solve_poisson_grounded,
                   surface_flux)
from .metric import CausalClass, Metric, classify
from .parity import Parity

# degree, parity, home dimension for every named field
FIELD_DICTIONARY = {
    "E": (1, Parity.STRAIGHT, 3),
    "D": (2, Parity.TWISTED, 3),
    "B": (2, Parity.STRAIGHT, 3),
    "H": (1, Parity.TWISTED, 3),
    "rho": (3, Parity.TWISTED, 3),
    "J": (2, Parity.TWISTED, 3),
    "F": (2, Parity.STRAIGHT, 4),
    "Hcal": (2, Parity.TWISTED, 4),
    "Jcal": (3, Parity.TWISTED, 4),
}


def validate_dictionary(bundle: dict) -> list[str]:
    """Check labeled fields against the dictionary; returns violations.

    Bundle values may be (degree, parity[, home]) tuples or objects with
    ``degree`` and ``parity`` attributes."""
    problems = []
    for name, item in bundle.items():
        if name not in FIELD_DICTIONARY:
            problems.append(f"{name}: unknown field name")
            continue
        want_degree, want_parity, want_home = FIELD_DICTIONARY[name]
        if isinstance(item, tuple):
            degree, parity = item[0], item[1]
            home = item[2] if len(item) > 2 else None
        else:
            degree, parity = item.degree, item.parity
            home = getattr(item, "ambient_dim", None)
        if degree != want_degree:
            problems.append(f"{name}: degree {degree}, expected {want_degree}")
        if parity is not want_parity:
            problems.append(f"{name}: parity {parity}, expected {want_parity}")
        if home is not None and home != want_home:
            problems.append(f"{name}: lives in {home}-dim, expected {want_home}-dim")
    return problems


# -- statics -----------------------------------------------------------------

@dataclass
class ElectrostaticsResult:
    solution: StaticsSolution
    grid: RectGrid

    def flux_through_box(self, radius: int) -> float:
        inside = box_node_set(self.grid, radius)
        return surface_flux(self.grid, self.solution.flux_edges, inside)


def solve_electrostatics(grid: RectGrid, rho_per_node: np.ndarray,
                         eps: np.ndarray | float = 1.0,
                         tol: float = 1e-10) -> ElectrostaticsResult:
    """Grounded-box electrostatics: potential solve with E = -d(phi),
    D = eps * hodge(E); flux of D around charge Q returns Q."""
    if grid.dim != 3:
        raise ValueError("electrostatics solver works on 3-dim grids")
    sol = solve_poisson_grounded(grid, rho_per_node, eps, tol=tol)
    return ElectrostaticsResult(sol, grid)


@dataclass
class MagnetostaticsResult:
    solution: StaticsSolution
    grid: RectGrid

    def circulation_around(self, inside_nodes: np.ndarray) -> float:
        """Line integral of the H 1-cochain along the dual loop around a
        node set; equals the enclosed current."""
        return surface_flux(self.grid, self.solution.flux_edges, inside_nodes)


def solve_magnetostatics(grid: RectGrid, current_per_node: np.ndarray,
                         mu: np.ndarray | float = 1.0,
                         tol: float = 1e-10) -> MagnetostaticsResult:
    """z-invariant magnetostatics on the transverse 2-dim grid.

    The wire current enters as the twisted 2-form values through the dual
    cells (one per node); the potential is the z-component of the vector
    potential and H is the transverse twisted 1-cochain on dual edges."""
    if grid.dim != 2:
        raise ValueError("magnetostatics solver works on the transverse 2-dim grid")
    j = np.asarray(current_per_node, dtype=float).ravel()
    mu_arr = mu if np.isscalar(mu) else np.asarray(mu, dtype=float)
    inv_mu = (1.0 / mu_arr) if np.isscalar(mu) else 1.0 / mu_arr
    sol = solve_poisson_grounded(grid, j, inv_mu, tol=tol)
    return MagnetostaticsResult(sol, grid)


# -- leapfrog evolution -------------------------------------------------------

@dataclass
class EMState:
    """Yee-staggered field state on a periodic rectilinear grid.

    E lives on primal edges at integer steps, B on primal faces at
    half-integer steps; rho sits on dual cells around the nodes and J on
    the dual faces crossed by the charges."""

    grid: RectGrid
    E: list  # [Ex, Ey, Ez], arrays of shape grid.shape
    B: list  # [Bx, By, Bz]
    eps: float = 1.0
    mu: float = 1.0
    time: float = 0.0
    rho: np.ndarray | None = None
    diagnostics: dict = field(default_factory=lambda: {
        "time": [], "energy": [], "max_divB": [], "gauss_residual": []})

    @staticmethod
    def zeros(grid: RectGrid, eps: float = 1.0, mu: float = 1.0) -> "EMState":
        if grid.dim != 3:
            raise ValueError("EMState uses 3-dim periodic grids "
                             "(use a single cell along ignored axes)")
        E = [np.zeros(grid.shape) for _ in range(3)]
        B = [np.zeros(grid.shape) for _ in range(3)]
        return EMState(grid, E, B, eps, mu, rho=np.zeros(grid.shape))

    def cfl_limit(self) -> float:
        c = 1.0 / math.sqrt(self.eps * self.mu)
        return 1.0 / (c * math.sqrt(sum(1.0 / h**2 for h in self.grid.spacing)))

    def energy(self) -> float:
        cellvol = float(np.prod(self.grid.spacing))
        e2 = sum(float(np.sum(a * a)) for a in self.E)
        b2 = sum(float(np.sum(a * a)) for a in self.B)
        return 0.5 * cellvol * (self.eps * e2 + b2 / self.mu)

    def div_B(self) -> np.ndarray:
        """Discrete dB on the 3-cells; conserved to round-off."""
        h = self.grid.spacing
        out = np.zeros(self.grid.shape)
        for d in range(3):
            out += (np.roll(self.B[d], -1, axis=d) - self.B[d]) / h[d]
        return out

    def div_D(self) -> np.ndarray:
        """Discrete dD on the dual cells (per node, stored per cell index)."""
        h = self.grid.spacing
        out = np.zeros(self.grid.shape)
        for d in range(3):
            out += self.eps * (self.E[d] - np.roll(self.E[d], 1, axis=d)) / h[d]
        return out


def _curl(fields: list, spacing: tuple, forward: bool) -> list:
    out = []
    for d in range(3):
        a, b = (d + 1) % 3, (d + 2) % 3
        if forward:
            da = (np.roll(fields[b], -1, axis=a) - fields[b]) / spacing[a]
            db = (np.roll(fields[a], -1, axis=b) - fields[a]) / spacing[b]
        else:
            da = (fields[b] - np.roll(fields[b], 1, axis=a)) / spacing[a]
            db = (fields[a] - np.roll(fields[a], 1, axis=b)) / spacing[b]
        out.append(da - db)
    return out


def evolve_leapfrog(state: EMState, steps: int, dt: float,
                    sources=None) -> EMState:
    """Advance the staggered update; enforces the CFL bound.

    ``sources`` is an optional callable step -> (J_edges, drho) with
    J given per E component and drho the matching dual-cell charge
    increment (charge-conserving by construction of the deposition)."""
    limit = state.cfl_limit()
    if dt > limit * (1 + 1e-12):
        raise ValueError(f"CFL violation: dt={dt} exceeds stability bound {limit}")
    if state.eps <= 0 or state.mu <= 0:
        raise ValueError("material coefficients must be positive")
    h = state.grid.spacing
    for step in range(steps):
        curl_e = _curl(state.E, h, forward=True)
        for d in range(3):
            state.B[d] -= dt * curl_e[d]
        H = [b / state.mu for b in state.B]
        curl_h = _curl(H, h, forward=False)
        J = None
        if sources is not None:
            J, drho = sources(step)
            if state.rho is not None and drho is not None:
                state.rho += drho
        for d in range(3):
            state.E[d] += (dt / state.eps) * curl_h[d]
            if J is not None:
                state.E[d] -= (dt / state.eps) * J[d]
        state.time += dt
        state.diagnostics["time"].append(state.time)
        state.diagnostics["energy"].append(state.energy())
        scale = max(float(max(np.abs(b).max() for b in state.B)), 1e-300)
        hmin = min(h)
        state.diagnostics["max_divB"].append(
            float(np.abs(state.div_B()).max()) * hmin / scale)
        if state.rho is not None:
            gauss = state.div_D() - state.rho / float(np.prod(h))
            state.diagnostics["gauss_residual"].append(float(np.abs(gauss).max()))
    return state


# -- charge-conserving deposition ---------------------------------------------

class PointCharge:
    """Point charge advanced on the dual lattice with exact continuity.

    Charge is assigned to the nearest dual cell; every dual-face crossing
    during a move deposits the matching current so that the discrete
    continuity equation holds to round-off (counting, not interpolation)."""

    def __init__(self, q: float, position: Sequence[float], velocity: Sequence[float]):
        self.q = float(q)
        self.x = np.asarray(position, dtype=float)
        self.v = np.asarray(velocity, dtype=float)

    def cell_of(self, grid: RectGrid) -> tuple:
        return tuple(int(np.floor(self.x[d] / grid.spacing[d])) % grid.shape[d]
                     for d in range(3))

    def push(self, grid: RectGrid, dt: float) -> tuple[list, np.ndarray]:
        """Move for one step; returns (J per E component, charge increment).

        Convention: J[d][c] is the flux density through the high face of
        cell c along axis d, matching the divergence stencil of div_D, so
        drho + dt * vol * div(J) = 0 holds to round-off.  The move is
        split axis by axis (zig-zag); at most one crossing per axis per
        step is allowed."""
        raw_old = [int(math.floor(self.x[d] / grid.spacing[d])) for d in range(3)]
        self.x = self.x + self.v * dt
        raw_new = [int(math.floor(self.x[d] / grid.spacing[d])) for d in range(3)]
        J = [np.zeros(grid.shape) for _ in range(3)]
        drho = np.zeros(grid.shape)
        cell = list(raw_old)
        for d in range(3):
            jump = raw_new[d] - raw_old[d]
            if jump == 0:
                continue
            if abs(jump) > 1:
                raise ValueError("particle crossed more than one cell per step; "
                                 "reduce dt or the velocity")
            area = 1.0
            for a in range(3):
                if a != d:
                    area *= grid.spacing[a]
            if jump > 0:
                face = tuple(c % s for c, s in zip(cell, grid.shape))
                J[d][face] += self.q / (dt * area)
            else:
                low = list(cell)
                low[d] -= 1
                face = tuple(c % s for c, s in zip(low, grid.shape))
                J[d][face] -= self.q / (dt * area)
            cell[d] = raw_new[d]
        old_cell = tuple(c % s for c, s in zip(raw_old, grid.shape))
        new_cell = tuple(c % s for c, s in zip(raw_new, grid.shape))
        if new_cell != old_cell:
            drho[old_cell] -= self.q
            drho[new_cell] += self.q
        return J, drho


def charge_conservation_check(rho_initial: np.ndarray, rho_final: np.ndarray,
                              side_flux: float, region: np.ndarray) -> dict:
    """Spacetime cylinder bookkeeping: initial charge minus final charge
    inside the region must equal the net outward side flux."""
    region = np.asarray(region, dtype=bool)
    qi = float(rho_initial[region].sum())
    qf = float(rho_final[region].sum())
    leak = (qi - qf) - side_flux
    return {"closed": abs(leak) < 1e-9 * max(1.0, abs(qi) + abs(qf)),
            "initial": qi, "final": qf, "side_flux": side_flux, "leak": leak}


# -- Lorentz force ------------------------------------------------------------

def lorentz_force(q, velocity: Sequence, F: PolyForm, g: Metric) -> dict:
    """Force covector q * (contraction of F by the 4-velocity) and its
    metric-dual vector; always metric-orthogonal to the velocity."""
    if F.degree != 2 or F.ambient_dim != g.dim:
        raise ValueError("field strength must be a 2-form matching the metric")
    V = PolyVectorField.constant(list(velocity))
    cls, _ = classify(list(velocity), g)
    if cls is not CausalClass.TIMELIKE:
        raise ValueError("4-velocity must be timelike")
    if g.inner(list(velocity), list(velocity)) != -1:
        raise ValueError("4-velocity must be unit: g(V, V) = -1")
    force_form = F.interior(V).scale(q)
    force_vector = force_form.sharp(g)
    comps = [c.constant_value() for c in force_vector.components]
    check = g.inner(comps, list(velocity))
    return {"covector": force_form, "vector": force_vector,
            "orthogonality": check}

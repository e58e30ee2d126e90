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
    inv_mu = 1.0 / np.asarray(mu, dtype=float)
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
        e2 = sum(float(np.vdot(a, a)) for a in self.E)
        b2 = sum(float(np.vdot(a, a)) for a in self.B)
        return 0.5 * cellvol * (self.eps * e2 + b2 / self.mu)

    def div_B(self) -> np.ndarray:
        """Discrete dB on the 3-cells; conserved to round-off."""
        return _div(self.B, self.grid.spacing)

    def div_D(self) -> np.ndarray:
        """Discrete dD on the dual cells (per node, stored per cell index)."""
        div = _div(self.E, self.grid.spacing, dual=True)
        div *= self.eps
        return div


# The periodic d along one axis takes an edge value a[i+1] - a[i] to cell i
# of the primal lattice; on the dual lattice, whose cell i sits one half
# step below, the same difference lands at i + 1 (the dual d is minus the
# transpose of the primal one).  curl is d on 1-forms, div is d on 2-forms.

def _diff(a: np.ndarray, axis: int, h: tuple, dual: bool = False,
          out: np.ndarray | None = None) -> np.ndarray:
    """Periodic difference along ``axis`` over h[axis], into ``out`` or a
    new C-ordered array.  ``out`` must be C-contiguous: reshaping any
    other array silently returns a copy, and the result would be lost.

    In C order the neighbour along ``axis`` sits prod(shape[axis+1:])
    entries further on, so one subtraction over the flattened arrays gives
    every difference; the plane it gets wrong, where i + 1 wraps to 0, is
    then overwritten."""
    a = np.ascontiguousarray(a)
    if out is None:
        out = np.empty_like(a)
    step = math.prod(a.shape[axis + 1:])
    src, dst = a.reshape(-1), out.reshape(-1)
    n = src.size - step
    np.subtract(src[step:], src[:n], out=dst[step:] if dual else dst[:n])
    planes, out_planes = np.moveaxis(a, axis, 0), np.moveaxis(out, axis, 0)
    np.subtract(planes[0], planes[-1], out=out_planes[0] if dual else out_planes[-1])
    out /= h[axis]
    return out


def _curl_component(fields: list, d: int, h: tuple, dual: bool,
                    out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Component d of curl into ``out``; ``tmp`` is scratch of the same shape."""
    a, b = (d + 1) % 3, (d + 2) % 3
    _diff(fields[b], a, h, dual, out)
    return np.subtract(out, _diff(fields[a], b, h, dual, tmp), out=out)


def _curl(fields: list, h: tuple, dual: bool = False) -> list:
    tmp = np.empty(fields[0].shape)
    return [_curl_component(fields, d, h, dual, np.empty(fields[0].shape), tmp)
            for d in range(3)]


def _div(fields: list, h: tuple, dual: bool = False) -> np.ndarray:
    out = _diff(fields[0], 0, h, dual)
    tmp = np.empty_like(out)
    for d in (1, 2):
        out += _diff(fields[d], d, h, dual, tmp)
    return out


def _abs_max(a: np.ndarray) -> float:
    """max |a| without an |a| temporary (abs turns a -0.0 into 0.0)."""
    return abs(float(max(a.max(), -a.min())))


def evolve_leapfrog(state: EMState, steps: int, dt: float,
                    sources=None) -> EMState:
    """Advance the staggered update; enforces the CFL bound.

    ``sources`` is an optional callable step -> (J, drho).  J maps
    (axis, i, j, k) to the current density through the dual face that
    E[axis][i, j, k] crosses, and drho maps (i, j, k) to the matching
    dual-cell charge increment (charge-conserving by construction of the
    deposition); cells left out carry no current or charge change.

    Each step updates the fields in place through two work arrays."""
    limit = state.cfl_limit()
    if dt > limit * (1 + 1e-12):
        raise ValueError(f"CFL violation: dt={dt} exceeds stability bound {limit}")
    if state.eps <= 0 or state.mu <= 0:
        raise ValueError("material coefficients must be positive")
    h = state.grid.spacing
    hmin, cellvol = min(h), float(np.prod(h))
    work, tmp = np.empty(state.grid.shape), np.empty(state.grid.shape)
    for step in range(steps):
        for d, b in enumerate(state.B):
            _curl_component(state.E, d, h, False, work, tmp)
            work *= dt
            b -= work
        J, drho = sources(step) if sources is not None else (None, None)
        if drho and state.rho is not None:
            for cell, increment in drho.items():
                state.rho[cell] += increment
        for d, e in enumerate(state.E):
            _curl_component(state.B, d, h, True, work, tmp)
            work *= dt / (state.eps * state.mu)
            e += work
        if J:
            for (d, i, j, k), density in J.items():
                state.E[d][i, j, k] -= (dt / state.eps) * density
        state.time += dt
        state.diagnostics["time"].append(state.time)
        state.diagnostics["energy"].append(state.energy())
        scale = max(max(_abs_max(b) for b in state.B), 1e-300)
        state.diagnostics["max_divB"].append(_abs_max(state.div_B()) * hmin / scale)
        if state.rho is not None:
            gauss = state.div_D()
            gauss -= np.divide(state.rho, cellvol, out=work)
            state.diagnostics["gauss_residual"].append(_abs_max(gauss))
    return state


def plane_wave(n: int) -> tuple[EMState, float, int]:
    """Periodic travelling wave Ez = cos(k(x - t)), By = -cos(k(x - t)) on n
    cells along x; returns (state, dt, number of steps in one period)."""
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
    state.B[1][:] = -np.cos(k * (x_b + dt / 2.0))  # staggered at t = -dt/2
    return state, dt, steps


def plane_wave_error(n: int) -> tuple[float, float]:
    """Evolve ``plane_wave(n)`` for one period; returns the L2 error of Ez
    and the largest relative |dB| seen."""
    state, dt, steps = plane_wave(n)
    evolve_leapfrog(state, steps, dt)
    h = 1.0 / n
    x_e = (np.arange(n) * h).reshape(n, 1, 1)
    exact = np.cos(2.0 * math.pi * (x_e - state.time))
    err = math.sqrt(float(np.sum((state.E[2] - exact) ** 2)) * h)
    return err, max(state.diagnostics["max_divB"])

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

    def push(self, grid: RectGrid, dt: float) -> tuple[dict, dict]:
        """Move for one step; returns (J, drho) for the crossed cells only.

        J maps (axis, i, j, k) to the flux density through the high face
        of cell (i, j, k) along axis, matching the divergence stencil of
        div_D, and drho maps a cell to its charge increment, so
        drho + dt * vol * div(J) = 0 holds to round-off once both are
        scattered onto the grid.  The move is split axis by axis
        (zig-zag); at most one crossing per axis per step is allowed."""
        raw_old = [int(math.floor(self.x[d] / grid.spacing[d])) for d in range(3)]
        self.x = self.x + self.v * dt
        raw_new = [int(math.floor(self.x[d] / grid.spacing[d])) for d in range(3)]
        J = {}
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
            face = list(cell)
            if jump < 0:  # through the high face of the cell below
                face[d] -= 1
            face = tuple(c % s for c, s in zip(face, grid.shape))
            J[(d, *face)] = jump * self.q / (dt * area)
            cell[d] = raw_new[d]
        old_cell = tuple(c % s for c, s in zip(raw_old, grid.shape))
        new_cell = tuple(c % s for c, s in zip(raw_new, grid.shape))
        drho = {old_cell: -self.q, new_cell: self.q} if new_cell != old_cell else {}
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

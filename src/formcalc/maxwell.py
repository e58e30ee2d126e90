"""Electromagnetism in form language on rectilinear grids.

The spacetime split is the classic staggered (Yee) scheme read as
discrete exterior calculus: the field-strength 2-form stays closed and
the excitation 2-form's derivative equals the current, step by step.
Units are SI with configurable vacuum constants; the defaults normalize
the wave speed to 1 for convergence studies.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import math
import os
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .forms import PolyForm, PolyVectorField
from .grid import (RectGrid, StaticsSolution, box_node_set, solve_poisson_grounded,
                   surface_flux)
from .metric import CausalClass, Metric, classify


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
    with np.errstate(divide="ignore"):  # mu = 0 gives inf, which the solver rejects
        inv_mu = 1.0 / np.asarray(mu, dtype=float)
    sol = solve_poisson_grounded(grid, j, inv_mu, tol=tol)
    return MagnetostaticsResult(sol, grid)


# -- leapfrog evolution -------------------------------------------------------

def _check_materials(eps: float, mu: float) -> None:
    if not (0 < eps < math.inf and 0 < mu < math.inf):
        raise ValueError("material coefficients must be positive and finite: "
                         f"eps={eps}, mu={mu}")


@dataclass
class EMState:
    """Yee-staggered field state on a periodic rectilinear grid.

    E lives on primal edges at integer steps, B on primal faces at
    half-integer steps; rho sits on dual cells around the nodes and J on
    the dual faces crossed by the charges."""

    grid: RectGrid
    E: list  # [Ex, Ey, Ez], arrays of shape grid.shape
    B: list  # [Bx, By, Bz]
    rho: np.ndarray
    eps: float = 1.0
    mu: float = 1.0
    time: float = 0.0
    diagnostics: dict = field(default_factory=lambda: {
        "time": [], "energy": [], "max_divB": [], "gauss_residual": []})

    @staticmethod
    def zeros(grid: RectGrid, eps: float = 1.0, mu: float = 1.0) -> "EMState":
        if grid.dim != 3:
            raise ValueError("EMState uses 3-dim periodic grids "
                             "(use a single cell along ignored axes)")
        _check_materials(eps, mu)
        E = [np.zeros(grid.shape) for _ in range(3)]
        B = [np.zeros(grid.shape) for _ in range(3)]
        return EMState(grid, E, B, np.zeros(grid.shape), eps, mu)

    def cfl_limit(self) -> float:
        _check_materials(self.eps, self.mu)
        c = 1.0 / math.sqrt(self.eps * self.mu)
        return 1.0 / (c * math.sqrt(sum(1.0 / h**2 for h in self.grid.spacing)))

    def energy(self) -> float:
        cellvol = float(np.prod(self.grid.spacing))
        e2 = sum(float(np.vdot(a, a)) for a in self.E)
        b2 = sum(float(np.vdot(a, a)) for a in self.B)
        return 0.5 * cellvol * (self.eps * e2 + b2 / self.mu)

    def div_B(self, rows: tuple | None = None, out: np.ndarray | None = None,
              tmp: np.ndarray | None = None) -> np.ndarray:
        """Discrete dB on the 3-cells; conserved to round-off.  ``rows``,
        ``out`` and ``tmp`` are as for ``_div``."""
        return _div(self.B, self.grid.spacing, False, rows, out, tmp)

    def div_D(self, rows: tuple | None = None, out: np.ndarray | None = None,
              tmp: np.ndarray | None = None) -> np.ndarray:
        """Discrete dD on the dual cells (per node, stored per cell index);
        ``rows``, ``out`` and ``tmp`` are as for ``_div``."""
        div = _div(self.E, self.grid.spacing, True, rows, out, tmp)
        div *= self.eps
        return div


# The periodic d along one axis takes an edge value a[i+1] - a[i] to cell i
# of the primal lattice; on the dual lattice, whose cell i sits one half
# step below, the same difference lands at i + 1 (the dual d is minus the
# transpose of the primal one).  curl is d on 1-forms, div is d on 2-forms.
#
# Every operator works on a range of axis-0 planes, rows = (i0, i1), and
# writes those planes only; the whole grid is the range (0, n).  Each
# element goes through the same subtraction and division whatever the
# range, so a sweep over slabs gives the whole-grid result bit for bit.

def _diff(a: np.ndarray, axis: int, h: tuple, dual: bool = False,
          out: np.ndarray | None = None, rows: tuple | None = None) -> np.ndarray:
    """Periodic difference along ``axis`` over h[axis] for the planes
    ``rows`` of axis 0 (default all), into ``out`` or a new C-ordered
    array of shape (i1 - i0, *a.shape[1:]).  ``out`` must be C-contiguous:
    reshaping any other array silently returns a copy, and the result
    would be lost.

    Along axis 0 the neighbour planes are read from ``a`` itself, wrapping
    at the last plane (primal) or the first (dual).  Along axes 1 and 2 the
    slab a[i0:i1] holds every neighbour; in C order the neighbour sits
    prod(shape[axis+1:]) entries further on, so one subtraction over the
    flattened slab gives every difference, and the plane it gets wrong,
    where the index wraps to 0, is then overwritten."""
    n = a.shape[0]
    i0, i1 = rows if rows is not None else (0, n)
    if out is None:
        out = np.empty((i1 - i0, *a.shape[1:]))
    if axis == 0:
        if dual:  # out[i] = a[i] - a[i - 1]; plane 0 wraps to n - 1
            lo = a[max(i0 - 1, 0):i1 - 1]
            np.subtract(a[i1 - len(lo):i1], lo, out=out[len(out) - len(lo):])
            if i0 == 0:
                np.subtract(a[0], a[n - 1], out=out[0])
        else:  # out[i] = a[i + 1] - a[i]; plane n - 1 wraps to 0
            hi = a[i0 + 1:i1 + 1]
            np.subtract(hi, a[i0:i0 + len(hi)], out=out[:len(hi)])
            if i1 == n:
                np.subtract(a[0], a[n - 1], out=out[-1])
    else:
        slab = np.ascontiguousarray(a[i0:i1])
        step = math.prod(slab.shape[axis + 1:])
        src, dst = slab.reshape(-1), out.reshape(-1)
        m = src.size - step
        np.subtract(src[step:], src[:m], out=dst[step:] if dual else dst[:m])
        first, last = (slice(None),) * axis + (0,), (slice(None),) * axis + (-1,)
        np.subtract(slab[first], slab[last], out=out[first if dual else last])
    out /= h[axis]
    return out


def _curl_component(fields: list, d: int, h: tuple, dual: bool,
                    out: np.ndarray, tmp: np.ndarray,
                    rows: tuple | None = None) -> np.ndarray:
    """Component d of curl over ``rows`` into ``out``; ``tmp`` is scratch
    of the same shape."""
    a, b = (d + 1) % 3, (d + 2) % 3
    _diff(fields[b], a, h, dual, out, rows)
    return np.subtract(out, _diff(fields[a], b, h, dual, tmp, rows), out=out)


def _div(fields: list, h: tuple, dual: bool = False, rows: tuple | None = None,
         out: np.ndarray | None = None, tmp: np.ndarray | None = None) -> np.ndarray:
    """Divergence over the axis-0 planes ``rows`` (default all), into
    ``out`` or a new array; ``tmp``, scratch of the same shape, is made
    when not given."""
    out = _diff(fields[0], 0, h, dual, out, rows)
    if tmp is None:
        tmp = np.empty_like(out)
    for d in (1, 2):
        out += _diff(fields[d], d, h, dual, tmp, rows)
    return out


def _abs_max(a: np.ndarray, start: float = 0.0) -> float:
    """max(start, max |a|) without an |a| temporary (abs turns a -0.0 into
    0.0); a NaN in ``a`` or in ``start`` gives NaN.  ``start`` carries the
    maximum over earlier slabs."""
    return abs(float(max(a.max(initial=start), -a.min(initial=-start))))


# One slab of axis-0 planes fills about 512 KiB of scratch, so the two
# scratch buffers and the field planes a slab reads stay in a 2 MiB L2.
_SLAB_CELLS = 2**16


def _slabs(shape: tuple) -> list:
    """Row ranges of the axis-0 slabs that one leapfrog sweep visits."""
    rows = max(1, _SLAB_CELLS // math.prod(shape[1:]))
    return [(i0, min(i0 + rows, shape[0])) for i0 in range(0, shape[0], rows)]


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else every CPU."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _sweep(pool, fn, parts: list) -> list:
    """``fn`` over every part, the first on the calling thread and the
    others on ``pool`` (None for a single part); results in part order.
    Each part on the pool runs in a copy of the caller's context, so the
    caller's ``np.errstate`` holds in every worker."""
    futures = [pool.submit(contextvars.copy_context().run, fn, part)
               for part in parts[1:]]
    return [fn(parts[0]), *(f.result() for f in futures)]


def evolve_leapfrog(state: EMState, steps: int, dt: float,
                    sources=None) -> EMState:
    """Advance the staggered update; enforces the CFL bound.

    ``sources`` is an optional callable step -> (J, drho).  J maps
    (axis, i, j, k) to the current density through the dual face that
    E[axis][i, j, k] crosses, and drho maps (i, j, k) to the matching
    dual-cell charge increment (charge-conserving by construction of the
    deposition); cells left out carry no current or charge change.

    Each step sweeps the grid in slabs of axis-0 planes (``_slabs``): one
    update adds a scaled curl on one lattice into the field on the other,
    B from E and then E from B; then come the current, the energy and one
    diagnostics sweep for max |B|, |dB| and the Gauss residual.  A sweep
    runs on one worker per usable CPU, capped at the number of slabs, each
    with a contiguous run of slabs and two slab-sized scratch buffers, and
    writes only its own planes, so every element goes through the same
    operations whatever the worker count.  ``sources`` and the current and
    charge updates run on the calling thread, between the sweeps.  Fields
    are updated in place through the scratch buffers, so a step allocates
    no array."""
    limit = state.cfl_limit()
    if steps < 0:
        raise ValueError(f"steps must be at least 0, got steps={steps}")
    if not 0 < dt <= limit * (1 + 1e-12):
        raise ValueError(f"CFL violation: dt={dt} is not in (0, {limit}], "
                         "the stability bound")
    h = state.grid.spacing
    hmin, cellvol = min(h), float(np.prod(h))
    slabs = _slabs(state.grid.shape)
    workers = min(_usable_cpus(), len(slabs))
    size = (slabs[0][1], *state.grid.shape[1:])
    # per worker, per slab: its row range, the same as a slice, and views
    # of the worker's scratch
    parts = []
    for k in range(workers):
        work, tmp = np.empty(size), np.empty(size)
        own = slabs[k * len(slabs) // workers:(k + 1) * len(slabs) // workers]
        parts.append([(rows, slice(*rows), work[:rows[1] - rows[0]],
                       tmp[:rows[1] - rows[0]]) for rows in own])

    def update(target: list, source: list, dual: bool, factor: float, part) -> None:
        for rows, s, w, t in part:
            for d, f in enumerate(target):
                _curl_component(source, d, h, dual, w, t, rows)
                w *= factor
                f[s] += w

    update_b = functools.partial(update, state.B, state.E, False, -dt)
    update_e = functools.partial(update, state.E, state.B, True, dt / (state.eps * state.mu))

    def diagnostics(part) -> tuple:
        top = div_b = gauss = 0.0
        for rows, s, w, t in part:
            for b in state.B:
                top = _abs_max(b[s], top)
            div_b = _abs_max(state.div_B(rows, w, t), div_b)
            residual = state.div_D(rows, w, t)
            residual -= np.divide(state.rho[s], cellvol, out=t)
            gauss = _abs_max(residual, gauss)
        return top, div_b, gauss

    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor  # loads logging: import on use
        context = ThreadPoolExecutor(workers - 1)
    else:
        context = contextlib.nullcontext()
    with context as pool:
        for step in range(steps):
            _sweep(pool, update_b, parts)
            J, drho = sources(step) if sources is not None else (None, None)
            if drho:
                for cell, increment in drho.items():
                    state.rho[cell] += increment
            _sweep(pool, update_e, parts)
            if J:
                for (d, i, j, k), density in J.items():
                    state.E[d][i, j, k] -= (dt / state.eps) * density
            state.time += dt
            state.diagnostics["time"].append(state.time)
            state.diagnostics["energy"].append(state.energy())
            # np.max, unlike Python's max, keeps a NaN from any worker
            top, div_b, gauss = map(float, np.max(_sweep(pool, diagnostics, parts), axis=0))
            state.diagnostics["max_divB"].append(div_b * hmin / max(top, 1e-300))
            state.diagnostics["gauss_residual"].append(gauss)
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


# -- Lorentz force ------------------------------------------------------------

def lorentz_force(q, velocity: Sequence, F: PolyForm, g: Metric) -> dict:
    """Force covector q * (contraction of F by the 4-velocity) and its
    metric-dual vector; always metric-orthogonal to the velocity."""
    if F.degree != 2 or F.ambient_dim != g.dim:
        raise ValueError("field strength must be a 2-form matching the metric")
    if not g.is_lorentzian:
        raise ValueError("the Lorentz force needs a Lorentzian metric")
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

"""The paper's pictures as self-checking scenarios.

Each function builds its inputs, runs the library and returns a
:class:`ScenarioResult`: the scenario id, the measured values, and the one
claim about them that decides ``ok``.  ``SCENARIOS`` maps each id to its
function in the order ``formcalc demo all`` runs them; the CLI demos, the
worked scripts under ``demos/`` and the acceptance tests all call these.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import meshes
from .cochain import Cochain, integrate, stokes_pairing_check
from .cohomology import betti_numbers, is_closed, is_exact, winding_cochain
from .forms import PolyForm
from .grid import RectGrid, box_node_set
from .maxwell import lorentz_force, plane_wave_error, solve_electrostatics, solve_magnetostatics
from .metric import Metric
from .parity import Parity
from .simplicial import SimplicialComplex, boundary, loop_chain


@dataclass(frozen=True)
class ScenarioResult:
    """What one scenario measured and whether its claim held."""

    id: str
    ok: bool
    values: dict
    claim: str


def stokes_disk_cochain(cx: SimplicialComplex) -> Cochain:
    """Twisted 1-cochain on the 8-triangle disk whose boundary values sum
    to -7 with the induced orientation; interior edges carry nonzero values
    that cancel in the Stokes pairing."""
    fund = cx.fundamental_chain(Parity.TWISTED)
    rim = boundary(fund, cx)
    contributions = [3, -2, 5, -4, 1, -6, 2, -6]  # sums to -7
    values = [Fraction(0)] * cx.num_simplices(1)
    for (idx, sign), c in zip(sorted(rim.coefficients.items()), contributions):
        values[idx] = Fraction(c) / sign
    interior = [i for i in range(cx.num_simplices(1)) if values[i] == 0]
    for k, i in enumerate(interior):
        values[i] = Fraction(k + 1)
    return Cochain(1, tuple(values), Parity.TWISTED, "exact")


def stokes_disk_minus7() -> ScenarioResult:
    cx = meshes.disk()
    fund = cx.fundamental_chain(Parity.TWISTED)
    lhs, rhs = stokes_pairing_check(stokes_disk_cochain(cx), fund, cx)
    return ScenarioResult("stokes-disk-minus7", lhs == rhs == -7, {"pairing": (lhs, rhs)},
                          "<d omega, disk> = <omega, boundary> = -7")


def annulus_hole() -> ScenarioResult:
    cx = meshes.annulus()
    w = winding_cochain(cx)
    values = {
        "closed": is_closed(w, cx),
        "exact": is_exact(w, cx)["exact"],
        "hole": integrate(w, loop_chain(cx, [0, 1, 2, 3])),  # the inner rim
        "contractible": integrate(w, loop_chain(cx, [0, 1, 5, 4])),  # one quad
    }
    ok = (values["closed"] and not values["exact"] and values["hole"] != 0
          and values["contractible"] == 0)
    return ScenarioResult("annulus-hole", ok, values,
                          "the winding cochain is closed, not exact, nonzero around "
                          "the hole and zero around a contractible loop")


def torus_betti() -> ScenarioResult:
    report = betti_numbers(meshes.torus())
    values = {"betti": report.betti, "orientable": report.orientable}
    return ScenarioResult("torus-betti", report.betti == (1, 2, 1) and report.orientable,
                          values, "the torus has Betti numbers (1, 2, 1) and is orientable")


def mobius_twisted_only() -> ScenarioResult:
    cx = meshes.mobius_minimal()
    top = cx.dim
    ones = Cochain(top, (Fraction(1),) * cx.num_simplices(top), Parity.TWISTED, "exact")
    values = {"twisted_integral": integrate(ones, cx.fundamental_chain(Parity.TWISTED)),
              "triangles": cx.num_simplices(top), "straight_error": None}
    try:
        cx.fundamental_chain(Parity.STRAIGHT)
    except ValueError as exc:
        values["straight_error"] = str(exc)
    ok = (values["straight_error"] is not None
          and values["twisted_integral"] == values["triangles"])
    return ScenarioResult("mobius-twisted-only", ok, values,
                          "the twisted integral of 1 counts the triangles and the "
                          "straight fundamental chain is refused")


def plane_wave() -> ScenarioResult:
    cells = (64, 128, 256)
    errors, max_divB = zip(*(plane_wave_error(n) for n in cells))
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(len(cells) - 1)]
    values = {"cells": cells, "errors": errors, "max_divB": max_divB, "orders": orders}
    return ScenarioResult("plane-wave", min(orders) >= 1.8 and max(max_divB) <= 1e-12,
                          values, "convergence order >= 1.8 and max |dB| <= 1e-12")


def _center_source(grid: RectGrid, amount: float) -> np.ndarray:
    """Node values: ``amount`` on the center node of ``grid``, zero elsewhere."""
    f = np.zeros(grid.node_shape)
    f[tuple(s // 2 for s in grid.node_shape)] = amount
    return f.ravel()


def gauss_point_charge() -> ScenarioResult:
    q, radii = 5.0, (3, 6, 10)
    grid = RectGrid((32, 32, 32), (1.0, 1.0, 1.0))
    result = solve_electrostatics(grid, _center_source(grid, q), tol=1e-10)
    fluxes = [result.flux_through_box(r) for r in radii]
    return ScenarioResult("gauss-point-charge",
                          all(abs(f - q) / q <= 0.01 for f in fluxes),
                          {"charge": q, "radii": radii, "fluxes": fluxes},
                          "the flux of D through every box around the charge is Q "
                          "within 1%")


def ampere_wire() -> ScenarioResult:
    current, radii = 2.5, (4, 9)
    grid = RectGrid((64, 64), (1.0, 1.0))
    result = solve_magnetostatics(grid, _center_source(grid, current), tol=1e-10)
    linking = [result.circulation_around(box_node_set(grid, r)) for r in radii]
    off = np.zeros(grid.node_shape, dtype=bool)
    off[2:8, 2:8] = True
    non_linking = result.circulation_around(off.ravel())
    ok = (all(abs(c - current) / current <= 0.01 for c in linking)
          and abs(non_linking) <= 0.01 * current)
    return ScenarioResult("ampere-wire", ok,
                          {"current": current, "radii": radii, "linking": linking,
                           "non_linking": non_linking},
                          "the circulation of H is I within 1% around loops linking "
                          "the wire and 0 within 1% of I around one that does not")


def lorentz_rest_charge() -> ScenarioResult:
    q, e0 = Fraction(3), Fraction(2)
    field = PolyForm.basis(4, (0,)).wedge(PolyForm.basis(4, (1,))).scale(e0)
    rest = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
    out = lorentz_force(q, rest, field, Metric.minkowski(4))
    force = [c.constant_value() for c in out["vector"].components]
    ok = force == [0, q * e0, 0, 0] and out["orthogonality"] == 0
    return ScenarioResult("lorentz-rest-charge", ok,
                          {"charge": q, "E0": e0, "force": force,
                           "orthogonality": out["orthogonality"]},
                          "a charge at rest in E0 dt^dx feels q E0 along x, "
                          "orthogonal to its 4-velocity")


def ffwedge_4d() -> ScenarioResult:
    f = PolyForm.basis(4, (0, 1)) + PolyForm.basis(4, (2, 3))
    ff = f.wedge(f)
    return ScenarioResult("ffwedge-4d", ff == PolyForm.basis(4, (0, 1, 2, 3)).scale(2),
                          {"F": f, "FF": ff}, "F^F = 2 dt^dx^dy^dz for F = dt^dx + dy^dz")


SCENARIOS = {
    "stokes-disk-minus7": stokes_disk_minus7,
    "annulus-hole": annulus_hole,
    "torus-betti": torus_betti,
    "mobius-twisted-only": mobius_twisted_only,
    "plane-wave": plane_wave,
    "gauss-point-charge": gauss_point_charge,
    "ampere-wire": ampere_wire,
    "lorentz-rest-charge": lorentz_rest_charge,
    "ffwedge-4d": ffwedge_4d,
}

"""Command-line front end.

Subcommands cover mesh reports, cohomology tables, cochain integration,
Stokes pairings, the polynomial Hodge star, the three Maxwell solvers,
the Lorentz force, and a set of named self-checking demos.

Exit codes: 0 success, 1 check failure, 2 usage error, 3 input parse error.
Output files go to the directory named by ``FORMCALC_OUTDIR`` (default ``.``).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from fractions import Fraction

import numpy as np

from . import meshes
from .cochain import (
    Cochain,
    cochain_from_csv,
    integrate,
    stokes_pairing_check,
)
from .cohomology import betti_numbers, is_closed, is_exact, winding_cochain
from .forms import PolyForm, form_from_text, form_to_text
from .grid import RectGrid, box_node_set
from .maxwell import (
    evolve_leapfrog,
    lorentz_force,
    plane_wave,
    plane_wave_error,
    solve_electrostatics,
    solve_magnetostatics,
)
from .metric import Metric, parse_metric
from .parity import Parity
from .simplicial import Chain, MeshFormatError, SimplicialComplex, boundary, parse_mesh

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_PARSE = 3

def _outdir() -> str:
    path = os.environ.get("FORMCALC_OUTDIR", ".")
    os.makedirs(path, exist_ok=True)
    return path


def _write_text(name: str, text: str) -> str:
    path = os.path.join(_outdir(), name)
    with open(path, "w") as f:
        f.write(text)
    return path


def _load_mesh(source: str) -> SimplicialComplex:
    if source in meshes.BUILDERS:
        return meshes.BUILDERS[source]()
    with open(source) as f:
        return parse_mesh(f.read())


def _load_cochain(path: str, cx: SimplicialComplex) -> Cochain:
    """A cochain CSV that gives one value per cell of ``cx`` in its degree."""
    with open(path) as f:
        omega = cochain_from_csv(f.read())
    cells = cx.num_simplices(omega.degree)
    if len(omega.values) != cells:
        raise MeshFormatError(None, f"cochain has {len(omega.values)} values, the "
                                    f"mesh has {cells} cells of degree {omega.degree}")
    return omega


def _load_form(source: str) -> PolyForm:
    """Form text from a file, or from stdin when ``source`` is ``-``."""
    if source == "-":
        return form_from_text(sys.stdin.read())
    with open(source) as f:
        return form_from_text(f.read())


def _fmt(x) -> str:
    if isinstance(x, Fraction):
        return str(x)
    return repr(float(x))


# -- plain subcommands -------------------------------------------------------

def cmd_mesh_info(args) -> int:
    cx = _load_mesh(args.mesh)
    counts = [cx.num_simplices(k) for k in range(cx.dim + 1)]
    print("dimension:", cx.dim)
    print("cells per degree:", " ".join(str(c) for c in counts))
    print("euler characteristic:", cx.euler_characteristic())
    print("pseudo-manifold:", cx.is_pseudo_manifold())
    print("orientable:", cx.orientable())
    return EXIT_OK


def cmd_cohomology(args) -> int:
    cx = _load_mesh(args.mesh)
    report = betti_numbers(cx)
    print(report.table())
    return EXIT_OK


def cmd_integrate(args) -> int:
    cx = _load_mesh(args.mesh)
    omega = _load_cochain(args.cochain, cx)
    parity = Parity(args.parity) if args.parity else omega.parity
    try:
        chain = cx.fundamental_chain(parity)
        value = integrate(omega, chain)
    except ValueError as exc:
        print("error:", exc, file=sys.stderr)
        return EXIT_CHECK_FAILED
    print("integral:", _fmt(value))
    return EXIT_OK


def cmd_stokes_check(args) -> int:
    cx = _load_mesh(args.mesh)
    omega = _load_cochain(args.cochain, cx)
    chain = cx.fundamental_chain(omega.parity)
    lhs, rhs = stokes_pairing_check(omega, chain, cx)
    print("<d omega, cell> =", _fmt(lhs))
    print("<omega, boundary> =", _fmt(rhs))
    return EXIT_OK if lhs == rhs else EXIT_CHECK_FAILED


def _dimension_mismatch(what: str, dim: int, metric: Metric) -> bool:
    """Report a usage error when ``dim`` is not the metric's dimension."""
    if dim == metric.dim:
        return False
    print(f"error: {what} has dimension {dim}, the metric {metric.dim}",
          file=sys.stderr)
    return True


def cmd_hodge(args) -> int:
    form = _load_form(args.form_file)
    if _dimension_mismatch("the form", form.ambient_dim, args.metric):
        return EXIT_USAGE
    print(form_to_text(form.hodge(args.metric)))
    return EXIT_OK


def _static_check(args, dim: int, source: float, solve, measure, label: str,
                  csv_name: str) -> int:
    """Solve with ``source`` on the center node of a grounded grid of
    ``args.cells`` cells per axis, then check that ``measure(result, grid, r)``
    returns the source for every box radius r in ``args.radii``."""
    n = args.cells
    grid = RectGrid((n,) * dim, (1.0,) * dim)
    center = tuple(s // 2 for s in grid.node_shape)
    largest = min(n - center[0], center[0]) - 1
    for r in args.radii:
        if r > largest:
            print(f"error: a box of radius {r} reaches the grounded boundary; "
                  f"at --cells {n} the largest radius is {largest}", file=sys.stderr)
            return EXIT_USAGE
    f = np.zeros(grid.node_shape)
    f[center] = source
    result = solve(grid, f.ravel(), tol=args.tol)
    rows = [f"radius,{label}"]
    status = EXIT_OK
    for r in args.radii:
        value = measure(result, grid, r)
        rows.append(f"{r},{value!r}")
        rel = abs(value - source) / abs(source)
        print(f"radius {r}: {label} = {value!r} (relative error {rel:.2e})")
        if rel > 0.01:
            status = EXIT_CHECK_FAILED
    path = _write_text(csv_name, "\n".join(rows) + "\n")
    print("wrote", path)
    return status


def cmd_maxwell_static_e(args) -> int:
    return _static_check(args, 3, args.charge, solve_electrostatics,
                         lambda result, grid, r: result.flux_through_box(r),
                         "flux", "electrostatics_flux.csv")


def cmd_maxwell_static_b(args) -> int:
    return _static_check(
        args, 2, args.current, solve_magnetostatics,
        lambda result, grid, r: result.circulation_around(box_node_set(grid, r)),
        "circulation", "magnetostatics_circulation.csv")


def cmd_maxwell_evolve(args) -> int:
    state, dt, steps = plane_wave(args.cells)
    if args.steps:
        steps = args.steps
    evolve_leapfrog(state, steps, dt)
    d = state.diagnostics
    rows = ["step,time,energy,max_divB"]
    for i in range(len(d["time"])):
        rows.append(f"{i},{d['time'][i]!r},{d['energy'][i]!r},{d['max_divB'][i]!r}")
    path = _write_text("evolution_diagnostics.csv", "\n".join(rows) + "\n")
    print(f"steps: {steps}  dt: {dt!r}")
    print("final energy:", d["energy"][-1])
    print("max |dB| (relative):", max(d["max_divB"]))
    print("wrote", path)
    return EXIT_OK


def cmd_lorentz(args) -> int:
    field, v, g = _load_form(args.field_file), args.velocity, args.metric
    if (_dimension_mismatch("the field", field.ambient_dim, g)
            or _dimension_mismatch("--velocity", len(v), g)):
        return EXIT_USAGE
    vv = g.inner(v, v)
    problem = (f"the field must be a 2-form, got degree {field.degree}" if field.degree != 2
               else "--metric must be Lorentzian" if not g.is_lorentzian
               else f"--velocity must be timelike, g(V, V) = {vv}" if vv >= 0
               else f"--velocity must be unit, g(V, V) = {vv} instead of -1" if vv != -1
               else None)
    if problem:
        print("error:", problem, file=sys.stderr)
        return EXIT_USAGE
    result = lorentz_force(args.charge, v, field, g)
    print("force covector:", result["covector"])
    print("force vector:", result["vector"])
    print("g(force, velocity):", _fmt(result["orthogonality"]))
    return EXIT_OK


# -- demos -------------------------------------------------------------------

def _report(label: str, ok: bool, detail: str = "") -> bool:
    tag = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"{tag} {label}{suffix}")
    return ok


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


def demo_stokes_disk_minus7() -> bool:
    cx = meshes.disk()
    omega = stokes_disk_cochain(cx)
    fund = cx.fundamental_chain(Parity.TWISTED)
    lhs, rhs = stokes_pairing_check(omega, fund, cx)
    ok = lhs == Fraction(-7) and rhs == Fraction(-7)
    return _report("stokes-disk-minus7", ok, f"pairing = ({lhs}, {rhs})")


def demo_annulus_hole() -> bool:
    cx = meshes.annulus()
    w = winding_cochain(cx)
    closed = is_closed(w, cx)
    exact = is_exact(w, cx)["exact"]
    hole = _cycle(cx, [0, 1, 2, 3])          # inner rim encircles the hole
    contractible = _cycle(cx, [0, 1, 5, 4])  # one quad, bounds two triangles
    around = integrate(w, hole)
    trivial = integrate(w, contractible)
    ok = closed and not exact and around != 0 and trivial == 0
    return _report(
        "annulus-hole", ok,
        f"closed={closed} exact={exact} hole={around} contractible={trivial}")


def _cycle(cx: SimplicialComplex, loop: list[int]) -> Chain:
    coeffs: dict[int, Fraction] = {}
    for a, b in zip(loop, loop[1:] + loop[:1]):
        idx = cx.simplex_index(tuple(sorted((a, b))), 1)
        sign = 1 if a < b else -1
        coeffs[idx] = coeffs.get(idx, Fraction(0)) + sign
    return Chain(1, {i: c for i, c in coeffs.items() if c != 0})


def demo_torus_betti() -> bool:
    report = betti_numbers(meshes.torus())
    ok = report.betti == (1, 2, 1) and report.orientable
    return _report("torus-betti", ok, f"betti = {report.betti}")


def demo_mobius_twisted_only() -> bool:
    cx = meshes.mobius_minimal()
    top = cx.dim
    ones = Cochain(top, tuple(Fraction(1) for _ in range(cx.num_simplices(top))),
                   Parity.TWISTED, "exact")
    twisted_value = integrate(ones, cx.fundamental_chain(Parity.TWISTED))
    straight_failed = False
    message = ""
    try:
        cx.fundamental_chain(Parity.STRAIGHT)
    except ValueError as exc:
        straight_failed = True
        message = str(exc)
    ok = straight_failed and twisted_value == cx.num_simplices(top)
    return _report("mobius-twisted-only", ok,
                   f"twisted integral = {twisted_value}; straight: {message}")


def demo_plane_wave() -> bool:
    errors = []
    worst_divb = 0.0
    for n in (64, 128, 256):
        err, divb = plane_wave_error(n)
        errors.append(err)
        worst_divb = max(worst_divb, divb)
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    ok = min(orders) >= 1.8 and worst_divb <= 1e-12
    return _report(
        "plane-wave", ok,
        f"orders = {[round(o, 3) for o in orders]}, max |dB| = {worst_divb:.2e}")


def demo_gauss_point_charge() -> bool:
    q = 5.0
    grid = RectGrid((32, 32, 32), (1.0, 1.0, 1.0))
    rho = np.zeros(grid.node_shape)
    rho[tuple(s // 2 for s in grid.node_shape)] = q
    result = solve_electrostatics(grid, rho.ravel(), tol=1e-10)
    fluxes = [result.flux_through_box(r) for r in (3, 6, 10)]
    ok = all(abs(f - q) / q <= 0.01 for f in fluxes)
    return _report("gauss-point-charge", ok,
                   "fluxes = " + ", ".join(f"{f:.6f}" for f in fluxes))


def demo_ampere_wire() -> bool:
    current = 2.5
    grid = RectGrid((64, 64), (1.0, 1.0))
    j = np.zeros(grid.node_shape)
    j[tuple(s // 2 for s in grid.node_shape)] = current
    result = solve_magnetostatics(grid, j.ravel(), tol=1e-10)
    linking = [result.circulation_around(box_node_set(grid, r)) for r in (4, 9)]
    off = np.zeros(grid.node_shape, dtype=bool)
    off[2:8, 2:8] = True
    non_linking = result.circulation_around(off.ravel())
    ok = (all(abs(c - current) / current <= 0.01 for c in linking)
          and abs(non_linking) <= 0.01 * current)
    return _report("ampere-wire", ok,
                   f"linking = {linking[0]:.6f}, {linking[1]:.6f}; "
                   f"non-linking = {non_linking:.2e}")


def demo_lorentz_rest_charge() -> bool:
    g = Metric.minkowski(4)
    e0 = Fraction(2)
    field = PolyForm.basis(4, (0,)).wedge(PolyForm.basis(4, (1,))).scale(e0)
    q = Fraction(3)
    rest = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
    result = lorentz_force(q, rest, field, g)
    comps = [c.constant_value() for c in result["vector"].components]
    ok = (comps == [Fraction(0), q * e0, Fraction(0), Fraction(0)]
          and result["orthogonality"] == 0)
    return _report("lorentz-rest-charge", ok,
                   f"force vector = {comps}, g(f,V) = {result['orthogonality']}")


def demo_ffwedge_4d() -> bool:
    dt_dx = PolyForm.basis(4, (0, 1))
    dy_dz = PolyForm.basis(4, (2, 3))
    f = dt_dx + dy_dz
    ff = f.wedge(f)
    expected = PolyForm.basis(4, (0, 1, 2, 3)).scale(Fraction(2))
    ok = ff == expected
    return _report("ffwedge-4d", ok, f"F^F = {ff}")


DEMOS = {
    "stokes-disk-minus7": demo_stokes_disk_minus7,
    "annulus-hole": demo_annulus_hole,
    "torus-betti": demo_torus_betti,
    "mobius-twisted-only": demo_mobius_twisted_only,
    "plane-wave": demo_plane_wave,
    "gauss-point-charge": demo_gauss_point_charge,
    "ampere-wire": demo_ampere_wire,
    "lorentz-rest-charge": demo_lorentz_rest_charge,
    "ffwedge-4d": demo_ffwedge_4d,
}


def cmd_demo(args) -> int:
    if args.id == "all":
        ids = list(DEMOS)
    elif args.id in DEMOS:
        ids = [args.id]
    else:
        print(f"unknown demo id: {args.id}", file=sys.stderr)
        print("available:", ", ".join(DEMOS), file=sys.stderr)
        return EXIT_USAGE
    ok = all([DEMOS[i]() for i in ids])
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# -- argument parsing --------------------------------------------------------

def _argument(convert, ok=lambda value: True, need: str = ""):
    """argparse type: ``convert(text)``, a usage error when it fails or when
    ``ok`` refuses its value."""
    def parse(text: str):
        try:
            value = convert(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise argparse.ArgumentTypeError(f"cannot read {text!r}: {exc}") from exc
        if not ok(value):
            raise argparse.ArgumentTypeError(f"need {need}, got {text}")
        return value
    return parse


def _at_least(minimum: int):
    """argparse type: an integer no smaller than ``minimum``."""
    return _argument(int, lambda value: value >= minimum, f"at least {minimum}")


_radii = _argument(lambda text: [int(r) for r in text.split(",")],
                   lambda radii: min(radii) >= 0, "box radii of at least 0")
_nonzero = _argument(float, lambda value: value != 0 and math.isfinite(value),
                     "a finite nonzero number")
_positive = _argument(float, lambda value: 0 < value < math.inf,
                      "a finite positive number")
_metric = _argument(parse_metric)
_rational = _argument(Fraction)
_rationals = _argument(lambda text: tuple(Fraction(v) for v in text.split(",")))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="formcalc",
        description="Exterior calculus engine: meshes, forms, cohomology, "
                    "and Maxwell solvers.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mesh-info", help="report cells, Euler characteristic, "
                                         "orientability")
    p.add_argument("mesh", help="mesh file or builtin name "
                                f"({', '.join(meshes.BUILDERS)})")
    p.set_defaults(func=cmd_mesh_info)

    p = sub.add_parser("cohomology", help="Betti numbers and torsion table")
    p.add_argument("mesh")
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("integrate", help="integrate a top cochain over the "
                                         "fundamental chain")
    p.add_argument("mesh")
    p.add_argument("cochain", help="cochain CSV file")
    p.add_argument("--parity", choices=["straight", "twisted"], default=None)
    p.set_defaults(func=cmd_integrate)

    p = sub.add_parser("stokes-check", help="report <d omega, cell> and "
                                            "<omega, boundary cell>")
    p.add_argument("mesh")
    p.add_argument("cochain")
    p.set_defaults(func=cmd_stokes_check)

    p = sub.add_parser("hodge", help="apply the Hodge star to a polynomial form")
    p.add_argument("form_file", help="form text file, or - for stdin")
    p.add_argument("--metric", type=_metric, default="diag(1,1,1)",
                   help='e.g. "diag(-1,1,1,1)"')
    p.set_defaults(func=cmd_hodge)

    p = sub.add_parser("maxwell-static-e", help="grounded-box point-charge "
                                                "electrostatics; Gauss check")
    p.add_argument("--cells", type=_at_least(1), default=32)
    p.add_argument("--charge", type=_nonzero, default=5.0)
    p.add_argument("--radii", type=_radii, default="3,6,10")
    p.add_argument("--tol", type=_positive, default=1e-10)
    p.set_defaults(func=cmd_maxwell_static_e)

    p = sub.add_parser("maxwell-static-b", help="straight-wire magnetostatics; "
                                                "circulation check")
    p.add_argument("--cells", type=_at_least(1), default=64)
    p.add_argument("--current", type=_nonzero, default=2.5)
    p.add_argument("--radii", type=_radii, default="4,9")
    p.add_argument("--tol", type=_positive, default=1e-10)
    p.set_defaults(func=cmd_maxwell_static_b)

    p = sub.add_parser("maxwell-evolve", help="periodic plane-wave leapfrog "
                                              "evolution with diagnostics")
    p.add_argument("--cells", type=_at_least(1), default=64)
    p.add_argument("--steps", type=_at_least(0), default=0,
                   help="override the one-period step count (0 keeps it)")
    p.set_defaults(func=cmd_maxwell_evolve)

    p = sub.add_parser("lorentz", help="Lorentz force covector/vector from a "
                                       "field 2-form")
    p.add_argument("field_file", help="2-form text file, or - for stdin")
    p.add_argument("--charge", type=_rational, default="1")
    p.add_argument("--velocity", type=_rationals, required=True,
                   help="comma-separated rational components, e.g. 5/4,3/4,0,0")
    p.add_argument("--metric", type=_metric, default="diag(-1,1,1,1)")
    p.set_defaults(func=cmd_lorentz)

    p = sub.add_parser("demo", help="run a named self-checking scenario")
    p.add_argument("id", help="demo id, or 'all'")
    p.set_defaults(func=cmd_demo)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MeshFormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())

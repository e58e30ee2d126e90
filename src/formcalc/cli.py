"""Command-line front end.

Subcommands cover mesh reports, cohomology tables, cochain integration,
Stokes pairings, the polynomial Hodge star, the three Maxwell solvers,
the Lorentz force, and a set of named self-checking demos.

Exit codes: 0 success, 1 check failure, 2 usage error (any ``ValueError``),
3 malformed input (``MeshFormatError``) or an unreadable file (``OSError``).
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
    _check_fits,
    cochain_from_csv,
    integrate,
    stokes_pairing_check,
)
from .cohomology import betti_numbers
from .forms import PolyForm, form_from_text, form_to_text
from .grid import RectGrid, box_node_set
from .maxwell import (
    evolve_leapfrog,
    lorentz_force,
    plane_wave,
    solve_electrostatics,
    solve_magnetostatics,
)
from .metric import parse_metric
from .scenarios import SCENARIOS
from .simplicial import MeshFormatError, SimplicialComplex, parse_mesh

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
    try:
        _check_fits(omega, cx)
    except ValueError as exc:
        raise MeshFormatError(None, str(exc)) from exc
    return omega


def _load_form(source: str) -> PolyForm:
    """Form text from a file, or from stdin when ``source`` is ``-``."""
    if source == "-":
        return form_from_text(sys.stdin.read())
    with open(source) as f:
        return form_from_text(f.read())


def _fmt(x) -> str:
    """Exact values (-7, 3/2, a form) as they read; floats at full precision."""
    if isinstance(x, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in x) + "]"
    return repr(float(x)) if isinstance(x, float) else str(x)


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
    value = integrate(omega, cx.fundamental_chain(omega.parity))
    print("integral:", _fmt(value))
    return EXIT_OK


# Each side of Stokes sums signed values of omega, so in float mode the two
# sums differ by rounding; they agree within this share of sum |omega|.
STOKES_FLOAT_RTOL = 1e-12


def cmd_stokes_check(args) -> int:
    cx = _load_mesh(args.mesh)
    omega = _load_cochain(args.cochain, cx)
    exponent = 0
    if omega.mode == "float":
        # check 2**-exponent omega, whose largest |value| lies in [1/2, 1), so
        # that no sum overflows; scaling by a power of two is exact
        exponent = math.frexp(max(map(abs, omega.values), default=0.0))[1]
        omega = Cochain(omega.degree, tuple(math.ldexp(v, -exponent) for v in omega.values),
                        omega.parity, omega.mode)
    chain = cx.fundamental_chain(omega.parity)
    lhs, rhs = stokes_pairing_check(omega, chain, cx)
    print("<d omega, cell> =", _fmt(_ldexp(lhs, exponent)))
    print("<omega, boundary> =", _fmt(_ldexp(rhs, exponent)))
    ok = lhs == rhs
    if omega.mode == "float":
        ok = ok or abs(lhs - rhs) <= STOKES_FLOAT_RTOL * sum(map(abs, omega.values))
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _ldexp(x, exponent: int):
    """x * 2**exponent for a float x, +-inf past the float range; an exact
    x (exponent 0) as it is."""
    if not exponent:
        return x
    try:
        return math.ldexp(x, exponent)
    except OverflowError:
        return math.copysign(math.inf, x)


def cmd_hodge(args) -> int:
    form = _load_form(args.form_file)
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
    field = _load_form(args.field_file)
    result = lorentz_force(args.charge, args.velocity, field, args.metric)
    print("force covector:", result["covector"])
    print("force vector:", result["vector"])
    print("g(force, velocity):", _fmt(result["orthogonality"]))
    return EXIT_OK


# -- demos -------------------------------------------------------------------

def cmd_demo(args) -> int:
    ids = list(SCENARIOS) if args.id == "all" else [args.id]
    status = EXIT_OK
    for name in ids:
        result = SCENARIOS[name]()
        values = ", ".join(f"{k} = {_fmt(v)}" for k, v in result.values.items())
        print(f"{'PASS' if result.ok else 'FAIL'} {result.id}  ({values})")
        if not result.ok:
            print(f"  claim: {result.claim}")
            status = EXIT_CHECK_FAILED
    return status


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
    p.set_defaults(func=cmd_integrate)

    about = ("report <d omega, cell> and <omega, boundary cell>; exit 1 unless "
             "they are equal (exact mode) or differ by at most "
             f"{STOKES_FLOAT_RTOL:g} * sum |omega| (float mode)")
    p = sub.add_parser("stokes-check", help=about, description=about)
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
    p.add_argument("--charge", type=_rational, default="1",
                   help="rational charge; a negative one needs the = spelling, "
                        "e.g. --charge=-3/2")
    p.add_argument("--velocity", type=_rationals, required=True,
                   help="comma-separated rational components, e.g. 5/4,3/4,0,0; "
                        "a value starting with - needs the = spelling, "
                        "e.g. --velocity=-5/4,3/4,0,0")
    p.add_argument("--metric", type=_metric, default="diag(-1,1,1,1)")
    p.set_defaults(func=cmd_lorentz)

    p = sub.add_parser("demo", help="run a named self-checking scenario")
    p.add_argument("id", choices=[*SCENARIOS, "all"], help="scenario id, or 'all'")
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
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

"""The four benchmark workloads: seeded inputs, one timed pass, checks.

Each workload class has

* ``setup(seed)``: builds every input from the seed alone, outside the
  timed phase (relabelled mesh text, charges, wave phases, random forms);
* ``run_pass(inputs, checks)``: one timed pass through formcalc's public
  API that records every correctness check in ``checks``;
* ``units_per_pass(inputs)``: work done by one pass, in the unit named
  by ``unit`` (what ``ops_per_s`` counts).

Program functions are always looked up through their module at call time
(``cohomology.betti_numbers(...)``), so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter_ns
from typing import Callable, NamedTuple

import numpy as np

from formcalc import cli, cochain, cohomology, maxwell, meshes, simplicial
from formcalc.cochain import Cochain
from formcalc.forms import PolyForm, PolyVectorField
from formcalc.grid import RectGrid
from formcalc.metric import Metric
from formcalc.parity import Parity
from formcalc.poly import Poly


class Checks:
    """Counts attempted and failed correctness checks.

    A check inside ``guard`` that raises counts as one failed check.
    ``known`` maps labels of documented, still-open defects to the reason;
    they are counted as failures but do not make the run incorrect."""

    def __init__(self, known: dict | None = None):
        self.known = dict(known or {})
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, int] = {}

    def expect(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self._fail(label)

    def _fail(self, label: str) -> None:
        self.failed += 1
        self.failures[label] = self.failures.get(label, 0) + 1

    @contextlib.contextmanager
    def guard(self, label: str):
        try:
            yield
        except Exception as exc:  # a raised error is a failed check, not a crash
            self.attempted += 1
            self._fail(f"{label} raised {type(exc).__name__}: {exc}"[:200])

    @property
    def correct(self) -> bool:
        return all(label in self.known for label in self.failures)


class Workload:
    """Defaults shared by the workloads."""

    min_passes = 1
    known_defects: dict = {}

    def layer_extras(self, inputs: dict) -> dict:
        """Per-layer figures the workload measures itself, from the last pass."""
        return {}


def _rng(workload: str, seed: int) -> random.Random:
    # str seeds hash through sha512, so inputs repeat across processes
    return random.Random(f"{workload}/{seed}")


# -- statics-box ---------------------------------------------------------------

@dataclass(frozen=True)
class StaticsSize:
    e_cells: int = 48
    e_radii: str = "3,6,10"
    b_cells: int = 256
    b_radii: str = "4,9"


class StaticsBox(Workload):
    """ROADMAP scenarios maxwell-static-e and maxwell-static-b, in-process
    through ``formcalc.cli.main``.  The seed sets the charge and current."""

    name = "statics-box"
    unit = "grid nodes solved"
    min_passes = 2  # the CSV determinism check compares two passes

    def __init__(self, size: StaticsSize, workdir: str):
        self.size = size
        self.workdir = workdir

    def setup(self, seed: int) -> dict:
        rng = _rng(self.name, seed)
        charge = round(rng.uniform(0.5, 20.0), 6)
        current = round(rng.uniform(0.5, 20.0), 6)
        s = self.size
        return {
            "runs": [
                ("electrostatics_flux.csv", charge,
                 ["maxwell-static-e", "--cells", str(s.e_cells),
                  "--radii", s.e_radii, "--charge", repr(charge)]),
                ("magnetostatics_circulation.csv", current,
                 ["maxwell-static-b", "--cells", str(s.b_cells),
                  "--radii", s.b_radii, "--current", repr(current)]),
            ],
            "csv": {},
        }

    def units_per_pass(self, inputs: dict) -> int:
        s = self.size
        return (s.e_cells + 1) ** 3 + (s.b_cells + 1) ** 2

    def run_pass(self, inputs: dict, checks: Checks) -> None:
        os.environ["FORMCALC_OUTDIR"] = self.workdir
        for csv_name, expected, argv in inputs["runs"]:
            label = argv[0]
            with checks.guard(label):
                path = os.path.join(self.workdir, csv_name)
                if os.path.exists(path):
                    os.remove(path)
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(argv)
                checks.expect(f"{label}.exit_code", code == 0)
                with open(path, "rb") as f:
                    data = f.read()
                rows = data.decode().strip().splitlines()[1:]
                radii = argv[argv.index("--radii") + 1].split(",")
                checks.expect(f"{label}.csv_rows", len(rows) == len(radii))
                for row in rows:
                    value = float(row.split(",")[1])
                    checks.expect(f"{label}.within_1pct",
                                  abs(value - expected) <= 0.01 * abs(expected))
                first = inputs["csv"].setdefault(csv_name, data)
                checks.expect(f"{label}.csv_identical", data == first)


# -- homology-refined --------------------------------------------------------

# Six-vertex real projective plane (the minimal triangulation).
RP2_TRIANGLES = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
                 (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3)]


def _rp2():
    verts = [(math.cos(1.1 * i), math.sin(1.1 * i), 0.1 * i) for i in range(6)]
    return simplicial.build_complex(verts, RP2_TRIANGLES)


class Surface(NamedTuple):
    builder: Callable
    betti: tuple
    torsion: tuple
    orientable: bool
    well_centred: bool  # every triangle acute: the circumcentric Hodge applies
    primitive: bool     # run is_exact on d(f); its dense elimination suits small ones


SURFACES = {
    "torus": Surface(meshes.torus, (1, 2, 1), ((), (), ()), True, False, False),
    "mobius": Surface(meshes.mobius_strip, (1, 1, 0), ((), (), ()), False, False, False),
    "annulus": Surface(meshes.annulus, (1, 1, 0), ((), (), ()), True, False, True),
    "sphere": Surface(meshes.sphere_octahedron, (1, 0, 1), ((), (), ()), True, True, True),
    "disk": Surface(meshes.disk, (1, 0, 0), ((), (), ()), True, True, True),
    "rp2": Surface(_rp2, (1, 0, 0), ((), (2,), ()), False, False, False),
}

WINDING_LABEL = "annulus.winding_closed"
RELABELLINGS = 4


def _relabelled_text(cx, rng: random.Random) -> str:
    """Mesh text with vertices permuted, triangles shuffled and each
    triangle's vertex list rotated (rotation keeps its orientation)."""
    perm = list(range(len(cx.vertices)))
    rng.shuffle(perm)
    new_of = {old: new for new, old in enumerate(perm)}
    tris = []
    for tri in cx.simplices[2]:
        t = [new_of[v] for v in tri]
        r = rng.randrange(3)
        tris.append(t[r:] + t[:r])
    rng.shuffle(tris)
    lines = ["dim 2"]
    lines += ["v " + " ".join(repr(x) for x in cx.vertices[old]) for old in perm]
    lines += ["s " + " ".join(str(v) for v in t) for t in tris]
    return "\n".join(lines) + "\n"


def _triangle_area(a, b, c) -> float:
    u = np.subtract(b, a)
    v = np.subtract(c, a)
    return 0.5 * math.sqrt(max(float(u @ u) * float(v @ v) - float(u @ v) ** 2, 0.0))


def _rationals(rng: random.Random, count: int) -> tuple:
    return tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(count))


class HomologyRefined(Workload):
    """Exact homology on seeded, relabelled, twice-refined surfaces.

    The labelling sets the elimination order and so the cost; passes cycle
    through RELABELLINGS labellings per surface so that a run's mean
    pass does not hang on one of them."""

    name = "homology-refined"
    unit = "simplices reduced"
    known_defects = {
        WINDING_LABEL: "winding_cochain rounds each edge angle on its own, "
                       "so triangle sums on the refined annulus miss 0",
    }

    def __init__(self, refinements: int = 2):
        self.refinements = refinements

    def setup(self, seed: int) -> dict:
        rng = _rng(self.name, seed)
        cases = []
        for name, surface in SURFACES.items():
            cx = surface.builder()
            for _ in range(self.refinements):
                cx = meshes.uniform_refine(cx)
            counts = [cx.num_simplices(k) for k in range(3)]
            area = sum(_triangle_area(*(cx.vertices[v] for v in tri))
                       for tri in cx.simplices[2])
            cases.append({
                "name": name, "surface": surface,
                "texts": [_relabelled_text(cx, rng) for _ in range(RELABELLINGS)],
                "euler": counts[0] - counts[1] + counts[2], "area": area,
                "simplices": sum(counts),
                "f": _rationals(rng, counts[0]),
                "eta": _rationals(rng, counts[1]),
                "a": _rationals(rng, counts[1]),
                "b": _rationals(rng, counts[1]),
            })
        return {"cases": cases, "passes": 0}

    def units_per_pass(self, inputs: dict) -> int:
        return sum(case["simplices"] for case in inputs["cases"])

    def run_pass(self, inputs: dict, checks: Checks) -> None:
        # surfaces are offset in the cycle, so every pass mixes labellings
        first = inputs["passes"]
        inputs["passes"] += 1
        for i, case in enumerate(inputs["cases"]):
            with checks.guard(case["name"]):
                self._one(case, case["texts"][(first + i) % RELABELLINGS], checks)

    def _one(self, case: dict, text: str, checks: Checks) -> None:
        name, surface = case["name"], case["surface"]
        cx = simplicial.parse_mesh(text)
        report = cohomology.betti_numbers(cx)
        checks.expect(f"{name}.betti", report.betti == surface.betti)
        checks.expect(f"{name}.torsion", report.torsion == surface.torsion)
        checks.expect(f"{name}.orientable", report.orientable == surface.orientable)
        checks.expect(f"{name}.euler", report.euler_characteristic == case["euler"])

        f = Cochain(0, case["f"])
        omega = cochain.coboundary(f, cx)
        checks.expect(f"{name}.dd_zero", cochain.coboundary(omega, cx).is_zero())
        checks.expect(f"{name}.exact_closed", cohomology.is_closed(omega, cx))
        if surface.primitive:
            solved = cohomology.is_exact(omega, cx)
            checks.expect(f"{name}.exact_found", solved["exact"])
            if solved["exact"]:
                d_prim = cochain.coboundary(solved["primitive"], cx)
                checks.expect(f"{name}.d_primitive", d_prim.values == omega.values)

        eta = Cochain(1, case["eta"], Parity.TWISTED)
        fund = cx.fundamental_chain(Parity.TWISTED)
        lhs, rhs = cochain.stokes_pairing_check(eta, fund, cx)
        checks.expect(f"{name}.stokes", lhs == rhs)

        a, b = Cochain(1, case["a"]), Cochain(1, case["b"])
        ab = cochain.cup_wedge(a, b, cx)
        ba = cochain.cup_wedge(b, a, cx)
        checks.expect(f"{name}.cup_antisymmetric", ab.values == (-ba).values)

        if surface.well_centred:
            self._hodge_checks(name, cx, case["area"], checks)
        if name == "annulus":
            w = cohomology.winding_cochain(cx)
            checks.expect(WINDING_LABEL, cohomology.is_closed(w, cx))
            checks.expect(f"{name}.winding_not_exact",
                          not cohomology.is_exact(w, cx)["exact"])

    @staticmethod
    def _hodge_checks(name: str, cx, area: float, checks: Checks) -> None:
        # circumcentric dual cells of a well-centred mesh tile it: the dual
        # areas of the vertices sum to the area, and sum |e| |*e| = 2 area
        ones = Cochain(0, (1.0,) * cx.num_simplices(0), mode="float")
        dual_areas = cochain.hodge_diagonal(ones, cx).values
        checks.expect(f"{name}.hodge0_area", math.isclose(sum(dual_areas), area,
                                                          rel_tol=1e-9))
        lengths = [math.dist(cx.vertices[i], cx.vertices[j])
                   for i, j in cx.simplices[1]]
        dual_lengths = cochain.hodge_diagonal(
            Cochain(1, tuple(lengths), mode="float"), cx).values
        checks.expect(f"{name}.hodge1_area", math.isclose(
            sum(l * d for l, d in zip(lengths, dual_lengths)), 2 * area,
            rel_tol=1e-9))


# -- leapfrog-64 ----------------------------------------------------------------

class Leapfrog(Workload):
    """Periodic Yee leapfrog with a seeded plane wave and moving charge."""

    name = "leapfrog-64"
    unit = "cell-steps"

    def __init__(self, cells: int = 64, steps: int = 200):
        self.cells = cells
        self.steps = steps

    def setup(self, seed: int) -> dict:
        rng = _rng(self.name, seed)
        n = self.cells
        grid = RectGrid((n, n, n), (1.0 / n,) * 3)
        # E points along `axis` and varies only across the other two axes,
        # so its discrete divergence is zero; B starts at zero, so dB = 0
        axis = rng.randrange(3)
        others = [d for d in range(3) if d != axis]
        modes = [rng.randint(1, 3), rng.randint(0, 3)]
        phase = rng.uniform(0.0, 2.0 * math.pi)
        coords = np.indices(grid.shape) / n
        arg = phase + 2.0 * math.pi * sum(m * coords[d] for m, d in zip(modes, others))
        E = [np.zeros(grid.shape) for _ in range(3)]
        E[axis] = rng.uniform(0.5, 2.0) * np.cos(arg)
        return {
            "grid": grid, "E": E,
            "q": rng.uniform(0.5, 4.0),
            "position": tuple(rng.uniform(0.0, 1.0) for _ in range(3)),
            "velocity": tuple(rng.uniform(-0.4, 0.4) for _ in range(3)),
            "step_times": [],
        }

    def units_per_pass(self, inputs: dict) -> int:
        return self.cells ** 3 * self.steps

    def run_pass(self, inputs: dict, checks: Checks) -> None:
        with checks.guard("leapfrog"):
            grid = inputs["grid"]
            state = maxwell.EMState.zeros(grid)
            for d in range(3):
                state.E[d][:] = inputs["E"][d]
            charge = maxwell.PointCharge(inputs["q"], inputs["position"],
                                         inputs["velocity"])
            state.rho[charge.cell_of(grid)] = charge.q
            dt = 0.5 * state.cfl_limit()
            vol = float(np.prod(grid.spacing))
            initial = float(np.abs(state.div_D() - state.rho / vol).max())
            stamps = []

            def sources(step):
                stamps.append(perf_counter_ns())
                return charge.push(grid, dt)

            maxwell.evolve_leapfrog(state, self.steps, dt, sources)
            inputs["step_times"] = [(b - a) / 1e6 for a, b in zip(stamps, stamps[1:])]
            diag = state.diagnostics
            checks.expect("leapfrog.steps", len(diag["time"]) == self.steps)
            checks.expect("leapfrog.divB", max(diag["max_divB"]) <= 1e-12)
            drift = abs(diag["gauss_residual"][-1] - initial) / max(initial, 1.0)
            checks.expect("leapfrog.gauss_drift", drift <= 1e-12)

    def layer_extras(self, inputs: dict) -> dict:
        """Step-time percentiles from the sources-callback timestamps."""
        steps = inputs["step_times"]
        if not steps:
            return {}
        p50, p95 = np.percentile(steps, [50, 95])
        return {"maxwell.step_ms.p50": float(p50), "maxwell.step_ms.p95": float(p95)}


# -- exact-forms ------------------------------------------------------------------

def _random_poly(rng: random.Random, n: int) -> Poly:
    expo = tuple(rng.randint(0, 2) for _ in range(n))
    return Poly(n, {expo: Fraction(rng.randint(-3, 3), rng.randint(1, 2))})


def _random_form(rng: random.Random, n: int, p: int) -> PolyForm:
    form = PolyForm.zero(n, p)
    for _ in range(rng.randint(1, 2)):
        idx = tuple(sorted(rng.sample(range(n), p)))
        form = form + PolyForm.basis(n, idx).scale(_random_poly(rng, n))
    return form


def _rational_unit_velocity(rng: random.Random) -> tuple:
    """Unit timelike 4-velocity with rational components: rational
    rapidity parameter t and a rational unit direction (stereographic)."""
    t = Fraction(rng.randint(-7, 7), 8)
    gamma = (1 + t * t) / (1 - t * t)
    gamma_beta = 2 * t / (1 - t * t)
    a, b = Fraction(rng.randint(-5, 5), 4), Fraction(rng.randint(-5, 5), 4)
    s = 1 + a * a + b * b
    direction = (2 * a / s, 2 * b / s, (1 - a * a - b * b) / s)
    return (gamma,) + tuple(gamma_beta * x for x in direction)


IDENTITIES = ("wedge", "dd", "leibniz", "pullback", "antiderivation", "ii", "hodge")


class ExactForms(Workload):
    """Seeded trials of the seven exact identities, plus Lorentz-force
    orthogonality samples; all arithmetic is Fraction, no numpy."""

    name = "exact-forms"
    unit = "identity checks"

    def __init__(self, trials: int = 1000, lorentz_samples: int = 200):
        self.trials = trials
        self.lorentz_samples = lorentz_samples

    def setup(self, seed: int) -> dict:
        rng = _rng(self.name, seed)
        trials = []
        for trial in range(self.trials):
            n = rng.randint(2, 5)
            g = Metric.euclidean(n) if trial % 2 == 0 else Metric.minkowski(n)
            p = rng.randint(0, n)
            q = rng.randint(0, n - p)
            a, b = _random_form(rng, n, p), _random_form(rng, n, q)
            w = _random_form(rng, n, rng.randint(0, n - 1))
            m = rng.randint(1, 3)
            phi = [_random_poly(rng, m) for _ in range(n)]
            V = PolyVectorField(n, tuple(_random_poly(rng, n) for _ in range(n)))
            pa = max(p, 1) if p <= n - 1 else n - 1
            aa = _random_form(rng, n, pa)
            bb = _random_form(rng, n, rng.randint(1, n - pa))
            trials.append((g, p, q, a, b, w, phi, V, pa, aa, bb))
        lorentz = []
        for _ in range(self.lorentz_samples):
            field = PolyForm.zero(4, 2)
            for pair in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)):
                field = field + PolyForm.basis(4, pair).scale(
                    Fraction(rng.randint(-5, 5)))
            lorentz.append((Fraction(rng.randint(1, 4)),
                            _rational_unit_velocity(rng), field))
        return {"trials": trials, "lorentz": lorentz, "g4": Metric.minkowski(4)}

    def units_per_pass(self, inputs: dict) -> int:
        return len(IDENTITIES) * len(inputs["trials"]) + len(inputs["lorentz"])

    def run_pass(self, inputs: dict, checks: Checks) -> None:
        for trial in inputs["trials"]:
            with checks.guard("identity trial"):
                self._trial(trial, checks)
        g4 = inputs["g4"]
        for q, velocity, field in inputs["lorentz"]:
            with checks.guard("lorentz"):
                out = maxwell.lorentz_force(q, velocity, field, g4)
                checks.expect("lorentz.orthogonal", out["orthogonality"] == 0)

    @staticmethod
    def _trial(trial: tuple, checks: Checks) -> None:
        g, p, q, a, b, w, phi, V, pa, aa, bb = trial
        checks.expect("wedge", a.wedge(b) == b.wedge(a).scale((-1) ** (p * q)))
        checks.expect("dd", w.d().d().is_zero())
        checks.expect("leibniz", a.wedge(b).d()
                      == a.d().wedge(b) + a.wedge(b.d()).scale((-1) ** p))
        checks.expect("pullback", w.d().pullback(phi) == w.pullback(phi).d())
        lhs = aa.wedge(bb).interior(V)
        rhs = aa.interior(V).wedge(bb) + aa.wedge(bb.interior(V)).scale((-1) ** pa)
        checks.expect("antiderivation", lhs == rhs)
        checks.expect("ii", aa.interior(V).interior(V).is_zero())
        n, pw = g.dim, w.degree
        det_sign = 1 if g.det() > 0 else -1
        checks.expect("hodge", w.hodge(g).hodge(g)
                      == w.scale(Fraction((-1) ** (pw * (n - pw)) * det_sign)))


# -- registry -------------------------------------------------------------------

def build(name: str, workdir: str, smoke: bool = False):
    """Workload ``name`` at full size, or at smoke size for the self-test."""
    if name == StaticsBox.name:
        size = StaticsSize(8, "1,2,3", 16, "2,4") if smoke else StaticsSize()
        return StaticsBox(size, workdir)
    if name == HomologyRefined.name:
        return HomologyRefined(1 if smoke else 2)
    if name == Leapfrog.name:
        return Leapfrog(8, 10) if smoke else Leapfrog()
    if name == ExactForms.name:
        return ExactForms(20, 5) if smoke else ExactForms()
    raise KeyError(name)

"""Span tracer for the traced benchmark run.

Wrappers are installed from outside the program, at the name each caller
looks a function up by: ``formcalc.maxwell.surface_flux`` is the name
``ElectrostaticsResult.flux_through_box`` resolves at call time, while
methods are replaced on their class.  Spans (name, start, end, parent)
stay in memory; per-layer figures are computed from the span tree after
the timed phase and the spans are written out at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter


def _snf_entries(matrix, *args, **kwargs) -> dict:
    return {"cohomology.smith_normal_form.entries":
            len(matrix) * (len(matrix[0]) if matrix else 0)}


# (span name, module, attribute path looked up by the callers[, counter]).
# One name may appear at several lookup sites; each gets its own wrapper.
# A counter maps the call's arguments to amounts added to named counts.
TIMED_SITES = [
    ("grid.gradient_matrix", "formcalc.grid", "gradient_matrix"),
    ("grid.edge_hodge_diagonal", "formcalc.grid", "edge_hodge_diagonal"),
    ("grid.solve_poisson_grounded", "formcalc.maxwell", "solve_poisson_grounded"),
    ("grid.surface_flux", "formcalc.maxwell", "surface_flux"),
    ("maxwell.solve_electrostatics", "formcalc.cli", "solve_electrostatics"),
    ("maxwell.solve_magnetostatics", "formcalc.cli", "solve_magnetostatics"),
    ("maxwell.flux_through_box", "formcalc.maxwell", "ElectrostaticsResult.flux_through_box"),
    ("maxwell.circulation_around", "formcalc.maxwell",
     "MagnetostaticsResult.circulation_around"),
    ("maxwell.evolve_leapfrog", "formcalc.maxwell", "evolve_leapfrog"),
    ("maxwell.EMState.energy", "formcalc.maxwell", "EMState.energy"),
    ("maxwell.EMState.div_B", "formcalc.maxwell", "EMState.div_B"),
    ("maxwell.EMState.div_D", "formcalc.maxwell", "EMState.div_D"),
    ("maxwell.PointCharge.push", "formcalc.maxwell", "PointCharge.push"),
    ("maxwell.lorentz_force", "formcalc.maxwell", "lorentz_force"),
    ("cli.main", "formcalc.cli", "main"),
    ("simplicial.parse_mesh", "formcalc.simplicial", "parse_mesh"),
    ("simplicial.SimplicialComplex.__init__", "formcalc.simplicial",
     "SimplicialComplex.__init__"),
    ("simplicial.boundary_matrix", "formcalc.simplicial",
     "SimplicialComplex.boundary_matrix"),
    ("simplicial.SimplicialComplex.orientability", "formcalc.simplicial",
     "SimplicialComplex.orientability"),
    ("cohomology.betti_numbers", "formcalc.cohomology", "betti_numbers"),
    ("cohomology.smith_normal_form", "formcalc.cohomology", "smith_normal_form",
     _snf_entries),
    ("cohomology.is_exact", "formcalc.cohomology", "is_exact"),
    ("cohomology.is_closed", "formcalc.cohomology", "is_closed"),
    ("cohomology.winding_cochain", "formcalc.cohomology", "winding_cochain"),
    ("cochain.coboundary", "formcalc.cochain", "coboundary"),
    ("cochain.coboundary", "formcalc.cohomology", "coboundary"),
    ("cochain.cup_wedge", "formcalc.cochain", "cup_wedge"),
    ("cochain.hodge_diagonal", "formcalc.cochain", "hodge_diagonal"),
    ("cochain.stokes_pairing_check", "formcalc.cochain", "stokes_pairing_check"),
    ("forms.PolyForm.wedge", "formcalc.forms", "PolyForm.wedge"),
    ("forms.PolyForm.d", "formcalc.forms", "PolyForm.d"),
    ("forms.PolyForm.pullback", "formcalc.forms", "PolyForm.pullback"),
    ("forms.PolyForm.interior", "formcalc.forms", "PolyForm.interior"),
    ("forms.PolyForm.hodge", "formcalc.forms", "PolyForm.hodge"),
    ("forms.PolyForm.sharp", "formcalc.forms", "PolyForm.sharp"),
    ("metric.Metric.det", "formcalc.metric", "Metric.det"),
    ("metric.classify", "formcalc.maxwell", "classify"),
    ("metric.classify", "formcalc.metric", "classify"),
]

# Count-only sites: too many calls for spans.  ``__rmul__``/``__radd__`` are
# the same functions as ``__mul__``/``__add__`` and count under their names.
COUNTED_SITES = [
    ("poly.Poly.__mul__", "formcalc.poly", "Poly.__mul__"),
    ("poly.Poly.__mul__", "formcalc.poly", "Poly.__rmul__"),
    ("poly.Poly.__add__", "formcalc.poly", "Poly.__add__"),
    ("poly.Poly.__add__", "formcalc.poly", "Poly.__radd__"),
]

CG_SITE = ("grid.cg", "formcalc.grid", "cg")


class Tracer:
    """In-memory spans and counters for one traced pass."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def add(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def timed(self, name: str, fn, counter=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                for key, amount in counter(*args, **kwargs).items():
                    self.add(key, amount)
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()

        return wrapper

    def counted(self, name: str, fn):
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.add(key)
            return fn(*args, **kwargs)

        return wrapper

    def cg(self, name: str, fn):
        """Wrap scipy's ``cg``: count iterations through its callback and the
        matrix entries those iterations multiply (nnz times iterations)."""
        timed = self.timed(name, fn)

        @functools.wraps(fn)
        def wrapper(A, b, *args, callback=None, **kwargs):
            iterations = 0

            def count(xk):
                nonlocal iterations
                iterations += 1
                if callback is not None:
                    callback(xk)

            try:
                return timed(A, b, *args, callback=count, **kwargs)
            finally:
                self.add(name + ".iterations", iterations)
                self.add(name + ".matvec_nnz", int(A.nnz) * iterations)

        return wrapper

    def install(self) -> "Installed":
        return Installed(self)


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Installed:
    """Context manager that installs every wrapper and restores the
    original attributes on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.saved: list[tuple] = []

    def __enter__(self) -> Tracer:
        t = self.tracer
        for name, mod, path, *counter in TIMED_SITES:
            self._wrap(mod, path, lambda fn: t.timed(name, fn, *counter))
        for name, mod, path in COUNTED_SITES:
            self._wrap(mod, path, lambda fn: t.counted(name, fn))
        name, mod, path = CG_SITE
        self._wrap(mod, path, lambda fn: t.cg(name, fn))
        return t

    def _wrap(self, module: str, path: str, make) -> None:
        owner, attr = _resolve(module, path)
        original = owner.__dict__[attr]
        self.saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()


def summarize(spans: list[list], counts: dict[str, int]) -> dict[str, float]:
    """Per-name figures for one traced pass.

    ``<name>.s`` is busy time (spans nested in a span of the same name are
    not counted twice), ``<name>.self_s`` is span time minus the time of its
    direct children, ``<name>.calls`` the number of spans.  ``covered_s`` is
    the time spent inside top-level spans."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = dict(counts)
    covered = 0.0
    for idx, (name, start, end, parent) in enumerate(spans):
        duration = end - start
        if parent < 0:
            covered += duration
        out[name + ".calls"] = out.get(name + ".calls", 0) + 1
        out[name + ".self_s"] = out.get(name + ".self_s", 0.0) + duration - child_time[idx]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            out[name + ".s"] = out.get(name + ".s", 0.0) + duration
    out["covered_s"] = covered
    return out

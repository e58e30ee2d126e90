"""Discrete forms on simplicial complexes.

A cochain assigns one scalar per oriented p-simplex.  Exact (rational)
mode backs the topology and identity tests; float mode backs solver
workflows.  Twisted cochains on orientable complexes are stored as
straight values plus the parity tag and converted through a supplied
global orientation; non-orientable complexes only ever see twisted data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .metric import Metric
from .parity import Parity
from .poly import _as_fraction
from .simplicial import Chain, MeshFormatError, SimplicialComplex, _vertex_rows, boundary


@dataclass(frozen=True)
class Cochain:
    """Degree-p discrete form: one value per p-simplex."""

    degree: int
    values: tuple
    parity: Parity = Parity.STRAIGHT
    mode: str = "exact"  # "exact" (Fraction) or "float"

    def __post_init__(self):
        if self.mode not in ("exact", "float"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "exact":
            vals = tuple(_as_fraction(v) for v in self.values)
        else:
            vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)

    @staticmethod
    def zeros(complex: SimplicialComplex, degree: int,
              parity: Parity = Parity.STRAIGHT, mode: str = "exact") -> "Cochain":
        return Cochain(degree, (0,) * complex.num_simplices(degree), parity, mode)

    @staticmethod
    def ones(complex: SimplicialComplex, degree: int,
             parity: Parity = Parity.STRAIGHT, mode: str = "exact") -> "Cochain":
        return Cochain(degree, (1,) * complex.num_simplices(degree), parity, mode)

    def __add__(self, other: "Cochain") -> "Cochain":
        if self.degree != other.degree or self.parity is not other.parity:
            raise ValueError("cochain degree/parity mismatch")
        mode = "exact" if self.mode == other.mode == "exact" else "float"
        return Cochain(self.degree,
                       tuple(a + b for a, b in zip(self.values, other.values)),
                       self.parity, mode)

    def scale(self, a) -> "Cochain":
        return Cochain(self.degree, tuple(a * v for v in self.values),
                       self.parity, self.mode)

    def __neg__(self) -> "Cochain":
        return self.scale(-1)

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values)


class Measure:
    """Strictly positive twisted top-degree cochain; defines volume."""

    def __init__(self, cochain: Cochain):
        if cochain.parity is not Parity.TWISTED:
            raise ValueError("a measure must be twisted")
        if any(v <= 0 for v in cochain.values):
            raise ValueError("a measure must be strictly positive")
        self.cochain = cochain

    @property
    def degree(self) -> int:
        return self.cochain.degree

    def total(self, complex: SimplicialComplex):
        return integrate(self.cochain, complex.fundamental_chain(Parity.TWISTED))


def coboundary(omega: Cochain, complex: SimplicialComplex) -> Cochain:
    """Transpose-of-boundary action; parity preserved, d(d(w)) = 0."""
    p = omega.degree
    if p >= complex.dim:
        raise ValueError("coboundary of a top-degree cochain")
    values = _value_array(omega)
    out = (complex.face_signs[p + 1] * values[complex.faces[p + 1]]).sum(axis=1)
    return Cochain(p + 1, tuple(out), omega.parity, omega.mode)


def _value_array(omega: Cochain) -> np.ndarray:
    """The values as a numpy array: Fractions in an object array in exact
    mode, so that array arithmetic stays exact, floats otherwise."""
    return np.array(omega.values, dtype=object if omega.mode == "exact" else float)


def integrate(omega: Cochain, chain: Chain):
    """Bilinear pairing; twisted cochains pair with twisted chains,
    straight with straight, plus when orientations agree."""
    if omega.degree != chain.degree:
        raise ValueError("cochain and chain degree mismatch")
    if omega.parity is not chain.parity:
        raise ValueError(
            f"{omega.parity} cochains pair with {omega.parity} chains, got "
            f"a {chain.parity} chain")
    if omega.mode == "exact":
        return sum((c * omega.values[i] for i, c in chain.coefficients.items()),
                   Fraction(0))
    return float(sum(float(c) * omega.values[i] for i, c in chain.coefficients.items()))


def integrate_over(omega: Cochain, complex: SimplicialComplex):
    """Integral over the whole complex (the fundamental chain).

    A straight top-cochain on a non-orientable complex has no fundamental
    chain to pair with; only twisted top-forms can be integrated there."""
    return integrate(omega, complex.fundamental_chain(omega.parity))


def stokes_pairing_check(omega: Cochain, chain: Chain,
                         complex: SimplicialComplex) -> tuple:
    """Return (<dw, c>, <w, boundary c>); equal by construction."""
    if omega.degree != chain.degree - 1:
        raise ValueError("need degree(w) = degree(c) - 1")
    lhs = integrate(coboundary(omega, complex), chain)
    rhs = integrate(omega, boundary(chain, complex))
    return lhs, rhs


def cup_wedge(a: Cochain, b: Cochain, complex: SimplicialComplex) -> Cochain:
    """Antisymmetrized simplicial cup product.

    Agrees with the smooth wedge only to discretization order; in
    particular it is not associative at finite resolution."""
    p, q = a.degree, b.degree
    if p + q > complex.dim:
        raise ValueError("degree overflow in discrete wedge")
    parity = a.parity * b.parity
    mode = "exact" if a.mode == b.mode == "exact" else "float"
    sgn = (-1) ** (p * q)
    half = Fraction(1, 2) if mode == "exact" else 0.5
    k = p + q
    srt = np.sort(_vertex_rows(complex.simplices[k], k + 1), axis=1)
    # the facet opposite the lowest vertex carries the sign of the stored order
    sigma = complex.face_signs[k][:, 0] if k else 1
    va, vb = _value_array(a), _value_array(b)
    ab = va[complex.simplex_index(srt[:, :p + 1], p)] * vb[complex.simplex_index(srt[:, p:], q)]
    ba = vb[complex.simplex_index(srt[:, :q + 1], q)] * va[complex.simplex_index(srt[:, q:], p)]
    out = sigma * half * (ab + sgn * ba)
    return Cochain(k, tuple(out), parity, mode)


def twist_cochain(omega: Cochain, complex: SimplicialComplex,
                  global_orientation: Sequence[int]) -> Cochain:
    """Convert straight <-> twisted through a global orientation.

    The supplied orientation must be one of the two coherent orientations
    of the complex.  Top-degree values pick up the per-cell sign; lower
    degrees pick up the overall sign of the supplied orientation relative
    to the propagated reference (the external frame of every cell flips
    exactly once when the ambient orientation is reversed).  Twisting and
    then untwisting is the identity."""
    ok, canonical = complex.orientability()
    if not ok:
        raise ValueError("non-orientable complex has no global orientation")
    signs = [int(s) for s in global_orientation]
    if len(signs) != complex.num_simplices(complex.dim):
        raise ValueError("orientation must give one sign per top simplex")
    if signs == canonical:
        overall = 1
    elif signs == [-s for s in canonical]:
        overall = -1
    else:
        raise ValueError("supplied signs are not a coherent global orientation")
    if omega.degree == complex.dim:
        vals = tuple(s * v for s, v in zip(signs, omega.values))
    else:
        vals = tuple(overall * v for v in omega.values)
    return Cochain(omega.degree, vals, omega.parity.flip(), omega.mode)


# -- geometry: volumes, circumcenters, diagonal Hodge -----------------------

def _gram_volume(points: list, g: Metric | None = None) -> float:
    """Unsigned volume of the simplex with the given vertex coordinates."""
    if len(points) == 1:
        return 1.0
    base = np.asarray(points[0], dtype=float)
    E = np.asarray(points[1:], dtype=float) - base
    if g is not None:
        G = np.array([[float(v) for v in row] for row in g.matrix])
        gram = E @ G @ E.T
    else:
        gram = E @ E.T
    det = float(np.linalg.det(gram))
    k = E.shape[0]
    return math.sqrt(max(det, 0.0)) / math.factorial(k)


def simplex_volume(complex: SimplicialComplex, degree: int, index: int,
                   g: Metric | None = None) -> float:
    pts = [complex.vertices[v] for v in complex.simplices[degree][index]]
    return _gram_volume(pts, g)


def measure_from_metric(complex: SimplicialComplex, g: Metric | None = None,
                        ) -> Measure:
    """Twisted top-cochain of cell volumes; integrates to total volume,
    orientable or not."""
    if g is not None and not g.is_riemannian:
        raise ValueError("a measure needs a Riemannian metric")
    n = complex.dim
    vols = [simplex_volume(complex, n, i, g) for i in range(complex.num_simplices(n))]
    if any(v <= 0 for v in vols):
        bad = next(i for i, v in enumerate(vols) if v <= 0)
        raise ValueError(f"degenerate top cell {bad}")
    return Measure(Cochain(n, tuple(vols), Parity.TWISTED, "float"))


def _circumcenter(points: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Circumcenter of a simplex within its affine hull.

    Returns (center, barycentric coordinates)."""
    pts = [np.asarray(p, dtype=float) for p in points]
    k = len(pts) - 1
    if k == 0:
        return pts[0], np.array([1.0])
    base = pts[0]
    E = np.stack([p - base for p in pts[1:]])
    G = E @ E.T
    rhs = 0.5 * np.einsum("ij,ij->i", E, E)
    lam = np.linalg.solve(G, rhs)
    center = base + lam @ E
    bary = np.empty(k + 1)
    bary[1:] = lam
    bary[0] = 1.0 - lam.sum()
    return center, bary


class NotWellCenteredError(ValueError):
    def __init__(self, degree: int, index: int):
        super().__init__(
            f"simplex {index} of degree {degree} is not well-centered "
            "(circumcenter outside the simplex)")
        self.degree = degree
        self.index = index


def hodge_diagonal(omega: Cochain, complex: SimplicialComplex,
                   g: Metric | None = None) -> Cochain:
    """Diagonal (circumcentric-dual) Hodge star on a well-centered mesh.

    Value on the dual (n-p)-cell is (dual volume / primal volume) times
    the primal value; parity flips.  Riemannian metrics only here; the
    Lorentzian diagonal Hodge lives on rectilinear grids (see grid)."""
    if g is not None and not g.is_riemannian:
        raise ValueError("simplicial diagonal Hodge needs a Riemannian metric; "
                         "use a rectilinear grid for Lorentzian signatures")
    ratios = dual_volume_ratios(complex, omega.degree, g)
    vals = tuple(r * float(v) for r, v in zip(ratios, omega.values))
    return Cochain(omega.degree, vals, omega.parity.flip(), "float")


def dual_volume_ratios(complex: SimplicialComplex, degree: int,
                       g: Metric | None = None) -> list[float]:
    """dual (n-p)-volume / primal p-volume per p-simplex; checks
    well-centeredness and reports the first offending simplex."""
    coords = _metric_coords(complex, g)
    n = complex.dim
    centers: list[list[np.ndarray]] = []
    for k in range(n + 1):
        level = []
        for i, s in enumerate(complex.simplices[k]):
            c, bary = _circumcenter([coords[v] for v in s])
            if k > 0 and (bary <= 1e-12).any():
                raise NotWellCenteredError(k, i)
            level.append(c)
        centers.append(level)
    # cofaces[k][i]: the (k+1)-simplices on simplex i, its row of boundary_matrix(k+1)
    cofaces = {k: complex.boundary_matrix(k + 1).tolil().rows for k in range(degree, n)}

    def dual_volume(k: int, i: int, chain_pts: list[np.ndarray]) -> float:
        """Sum of elementary dual volumes over ascending simplex chains."""
        if k == n:
            return _gram_volume(chain_pts)
        return sum((dual_volume(k + 1, up, chain_pts + [centers[k + 1][up]])
                    for up in cofaces[k][i]), 0.0)

    ratios = []
    for i, s in enumerate(complex.simplices[degree]):
        pv = _gram_volume([coords[v] for v in s])
        if pv == 0:
            raise ValueError(f"degenerate primal simplex {i} of degree {degree}")
        ratios.append(dual_volume(degree, i, [centers[degree][i]]) / pv)
    return ratios


def _metric_coords(complex: SimplicialComplex, g: Metric | None) -> list[np.ndarray]:
    pts = [np.asarray(v, dtype=float) for v in complex.vertices]
    if g is None:
        return pts
    if not g.is_riemannian:
        raise ValueError("circumcentric dual volumes require a Riemannian "
                         "(positive-definite) metric")
    G = np.array([[float(v) for v in row] for row in g.matrix])
    L = np.linalg.cholesky(G)
    return [L.T @ p for p in pts]


# -- CSV serialization -------------------------------------------------------

def cochain_to_csv(omega: Cochain) -> str:
    lines = [f"# degree={omega.degree} parity={omega.parity} mode={omega.mode}",
             "simplex_index,value"]
    for i, v in enumerate(omega.values):
        lines.append(f"{i},{v!r}" if omega.mode == "float" else f"{i},{v}")
    return "\n".join(lines) + "\n"


def cochain_from_csv(text: str) -> Cochain:
    """Parse the ``cochain_to_csv`` format; malformed text raises
    MeshFormatError with the offending line."""
    lines = [(n, ln.strip()) for n, ln in enumerate(text.splitlines(), start=1)
             if ln.strip()]
    lineno, line = lines[0] if lines else (1, "")
    try:
        if not line.startswith("#"):
            raise ValueError("missing header line '# degree=.. parity=.. mode=..'")
        meta = dict(tok.split("=", 1) for tok in line[1:].split())
        mode = meta.get("mode", "exact")
        if "degree" not in meta or "parity" not in meta or mode not in ("exact", "float"):
            raise ValueError("the header needs degree=, parity= and mode exact or float")
        degree, parity = int(meta["degree"]), Parity(meta["parity"])
        value = float if mode == "float" else Fraction
        rows = {}
        for lineno, line in lines[1:]:
            if not line.lower().startswith("simplex_index"):
                idx_text, _, val_text = line.partition(",")
                idx = int(idx_text)
                if idx < 0:
                    raise ValueError("simplex_index must not be negative")
                rows[idx] = value(val_text)
    except (ValueError, ZeroDivisionError) as exc:
        raise MeshFormatError(lineno, f"cannot parse {line!r}: {exc}") from exc
    vals = [rows.get(i, 0) for i in range(max(rows) + 1 if rows else 0)]
    return Cochain(degree, tuple(vals), parity, mode)

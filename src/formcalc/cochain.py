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

    def __add__(self, other: "Cochain") -> "Cochain":
        if self.degree != other.degree or self.parity is not other.parity:
            raise ValueError("cochain degree/parity mismatch")
        if len(self.values) != len(other.values):
            raise ValueError(f"cannot add cochains of {len(self.values)} and "
                             f"{len(other.values)} values")
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


def coboundary(omega: Cochain, complex: SimplicialComplex) -> Cochain:
    """Transpose-of-boundary action; parity preserved, d(d(w)) = 0."""
    _check_fits(omega, complex)
    p = omega.degree
    if p == complex.dim:
        raise ValueError("coboundary of a top-degree cochain")
    values = _value_array(omega)
    out = (complex.face_signs[p + 1] * values[complex.faces[p + 1]]).sum(axis=1)
    return Cochain(p + 1, tuple(out), omega.parity, omega.mode)


def _check_fits(omega: Cochain, complex: SimplicialComplex) -> None:
    """Raise ValueError unless omega holds one value per simplex of its degree."""
    p = omega.degree
    if not 0 <= p <= complex.dim or len(omega.values) != complex.num_simplices(p):
        raise ValueError(f"{len(omega.values)} values do not make a {p}-cochain on a "
                         f"{complex.dim}-complex with {complex.num_simplices(p)} {p}-simplices")


def _value_array(omega: Cochain) -> np.ndarray:
    """The values as a numpy array: Fractions in an object array in exact
    mode, so that array arithmetic stays exact, floats otherwise."""
    return np.array(omega.values, dtype=object if omega.mode == "exact" else float)


def integrate(omega: Cochain, chain: Chain):
    """Bilinear pairing; twisted cochains pair with twisted chains,
    straight with straight, plus when orientations agree.

    A chain simplex the cochain has no value for raises ValueError.  A
    cochain with more values than its complex has simplices cannot be told
    from the chain alone, so it is not detected here (the CLI checks every
    cochain against its mesh)."""
    if omega.degree != chain.degree:
        raise ValueError("cochain and chain degree mismatch")
    if omega.parity is not chain.parity:
        raise ValueError(
            f"{omega.parity} cochains pair with {omega.parity} chains, got "
            f"a {chain.parity} chain")
    missing = next((i for i in chain.coefficients if not 0 <= i < len(omega.values)), None)
    if missing is not None:
        raise ValueError(f"the chain has {chain.degree}-simplex {missing}, the cochain "
                         f"only {len(omega.values)} values")
    if omega.mode == "exact":
        return sum((c * omega.values[i] for i, c in chain.coefficients.items()),
                   Fraction(0))
    return float(sum(float(c) * omega.values[i] for i, c in chain.coefficients.items()))


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
#
# Both primitives take an (m, k+1, d) stack: the vertex coordinates of m
# k-simplices.  A metric enters once, through _metric_coords.

def _volumes(points: np.ndarray) -> np.ndarray:
    """Unsigned volumes of a stack of simplices, from Gram determinants."""
    edges = points[:, 1:] - points[:, :1]
    gram = edges @ edges.transpose(0, 2, 1)
    return np.sqrt(np.maximum(np.linalg.det(gram), 0.0)) / math.factorial(edges.shape[1])


def _circumcenters(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Circumcenters of a stack of simplices within their affine hulls.

    Returns (centers (m, d), barycentric coordinates (m, k+1))."""
    edges = points[:, 1:] - points[:, :1]
    gram = edges @ edges.transpose(0, 2, 1)
    rhs = 0.5 * np.einsum("mij,mij->mi", edges, edges)
    lam = np.linalg.solve(gram, rhs[..., None])[..., 0]
    centers = points[:, 0] + np.einsum("mi,mij->mj", lam, edges)
    bary = np.concatenate([1.0 - lam.sum(axis=1, keepdims=True), lam], axis=1)
    return centers, bary


def _metric_coords(complex: SimplicialComplex, g: Metric | None) -> np.ndarray:
    """Vertex coordinates in which ``g`` is the Euclidean metric: each row
    times the Cholesky factor L of g = L L^T."""
    coords = np.array(complex.vertices, dtype=float)
    if g is None:
        return coords
    if not g.is_riemannian:
        raise ValueError("simplicial volumes and circumcenters need a Riemannian "
                         "(positive-definite) metric; there is no Lorentzian "
                         "diagonal Hodge star on simplicial complexes")
    if g.dim != coords.shape[1]:
        raise ValueError(f"metric dimension {g.dim} does not match the "
                         f"{coords.shape[1]}-dimensional vertex coordinates")
    return coords @ np.linalg.cholesky(np.array(g.matrix, dtype=float))


def _level(coords: np.ndarray, complex: SimplicialComplex, k: int,
           ) -> tuple[np.ndarray, np.ndarray]:
    """Vertex coordinates and volumes of the k-simplices.

    A simplex whose volume is zero up to rounding raises ValueError: below
    1e-6 of the product of its edge lengths from its first vertex over k!,
    the largest volume those edges allow."""
    points = coords[_vertex_rows(complex.simplices[k], k + 1)]
    vols = _volumes(points)
    edges = np.linalg.norm(points[:, 1:] - points[:, :1], axis=2)
    flat = vols <= 1e-6 * edges.prod(axis=1) / math.factorial(k)
    if flat.any():
        raise ValueError(f"degenerate simplex {int(np.argmax(flat))} of degree {k}")
    return points, vols


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
    the primal value; parity flips.  Riemannian metrics only: the
    circumcentric dual has no Lorentzian form here."""
    ratios = dual_volume_ratios(complex, omega.degree, g)
    vals = tuple(r * float(v) for r, v in zip(ratios, omega.values))
    return Cochain(omega.degree, vals, omega.parity.flip(), "float")


def dual_volume_ratios(complex: SimplicialComplex, degree: int,
                       g: Metric | None = None) -> list[float]:
    """dual (n-p)-volume / primal p-volume per p-simplex; checks
    well-centeredness and reports the first offending simplex.

    The circumcentric dual of a p-simplex is the union of the simplices
    spanned by the circumcenters of each flag s_p < s_{p+1} < ... < s_n
    that starts at it (Hirani, Discrete Exterior Calculus, 2003)."""
    coords = _metric_coords(complex, g)
    n = complex.dim
    levels = [_level(coords, complex, k) for k in range(n + 1)]
    centers = []
    for k, (points, _) in enumerate(levels):
        level_centers, bary = _circumcenters(points)
        outside = (bary <= 1e-12).any(axis=1)
        if outside.any():
            raise NotWellCenteredError(k, int(np.argmax(outside)))
        centers.append(level_centers)
    # flags[f, j]: the (degree + j)-simplex of flag f; extend every flag by
    # each coface of its last simplex, read off the faces of the level above
    flags = np.arange(complex.num_simplices(degree))[:, None]
    for k in range(degree, n):
        faces = complex.faces[k + 1]
        cofaces = np.argsort(faces, axis=None, kind="stable") // (k + 2)
        counts = np.bincount(faces.ravel(), minlength=complex.num_simplices(k))
        starts = np.cumsum(counts) - counts
        fan = counts[flags[:, -1]]
        flags = np.repeat(flags, fan, axis=0)
        nth = np.arange(len(flags)) - np.repeat(np.cumsum(fan) - fan, fan)
        flags = np.column_stack([flags, cofaces[starts[flags[:, -1]] + nth]])
    corners = np.stack([centers[degree + j][flags[:, j]]
                        for j in range(n - degree + 1)], axis=1)
    primal = levels[degree][1]
    dual = np.bincount(flags[:, 0], weights=_volumes(corners), minlength=len(primal))
    return (dual / primal).tolist()


# -- CSV serialization -------------------------------------------------------

def cochain_to_csv(omega: Cochain) -> str:
    lines = [f"# degree={omega.degree} parity={omega.parity} mode={omega.mode}",
             "simplex_index,value"]
    for i, v in enumerate(omega.values):
        lines.append(f"{i},{v!r}" if omega.mode == "float" else f"{i},{v}")
    return "\n".join(lines) + "\n"


def cochain_from_csv(text: str) -> Cochain:
    """Parse the ``cochain_to_csv`` format: one row for each index from 0 to
    the largest, finite values in float mode.  Malformed text raises
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
        if degree < 0:
            raise ValueError("degree must not be negative")
        value = float if mode == "float" else Fraction
        rows = {}
        for lineno, line in lines[1:]:
            if not line.lower().startswith("simplex_index"):
                idx_text, _, val_text = line.partition(",")
                idx = int(idx_text)
                if idx < 0:
                    raise ValueError("simplex_index must not be negative")
                if idx in rows:
                    raise ValueError(f"simplex_index {idx} given twice")
                v = rows[idx] = value(val_text)
                if value is float and not math.isfinite(v):
                    raise ValueError("float values must be finite")
    except (ValueError, ZeroDivisionError) as exc:
        raise MeshFormatError(lineno, f"cannot parse {line!r}: {exc}") from exc
    missing = next((i for i in range(len(rows)) if i not in rows), None)
    if missing is not None:
        raise MeshFormatError(None, f"simplex_index {missing} is missing; every index "
                                    f"from 0 to {max(rows)} needs a row")
    return Cochain(degree, tuple(rows[i] for i in range(len(rows))), parity, mode)

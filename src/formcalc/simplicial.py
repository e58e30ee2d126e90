"""Simplicial complexes, chains, and the boundary operator.

Orientation convention: the ordered vertex tuple of a simplex defines its
internal orientation; odd permutations carry sign -1.  A facet's induced
orientation puts the outward normal first; ``face_signs`` stores that sign.
Boundary matrices have integer entries and compose to zero exactly.

Malformed mesh text raises ``MeshFormatError``, which is defined in
``formcalc.poly`` and imported here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping, Sequence

import numpy as np

from .parity import Parity
from .poly import MeshFormatError, _as_fraction


def _vertex_rows(level: list[tuple], width: int) -> np.ndarray:
    """The simplices of one level as an (m, width) integer array."""
    return np.array(level, dtype=np.int64).reshape(-1, width)


def _find_rows(table: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Index in ``table`` of each row of ``query``, rows compared as tuples
    by one lexicographic ``np.unique``: a query row's first occurrence in
    ``table`` followed by ``query`` lies in ``table`` exactly when it is there."""
    both = np.concatenate([table, query])
    _, first, inverse = np.unique(both, axis=0, return_index=True, return_inverse=True)
    found = first[inverse.ravel()[len(table):]]
    if (found >= len(table)).any():
        missing = query[np.argmax(found >= len(table))]
        raise KeyError(f"no simplex {tuple(missing.tolist())} in the complex")
    return found


class SimplicialComplex:
    """Finite simplicial complex with oriented cells.

    Faces are generated automatically and stored with ascending vertex
    order; top simplices keep the vertex order they were built with.
    """

    def __init__(self, vertices: list[tuple], simplices: list[list[tuple]]):
        self.vertices = [tuple(float(x) for x in v) for v in vertices]
        self.simplices = [list(map(tuple, level)) for level in simplices]
        self.dim = len(self.simplices) - 1
        # faces[k][c, i]: index in level k-1 of the facet of k-simplex c that
        # omits its i-th smallest vertex; face_signs[k][c, i]: its +-1 sign
        rows = [_vertex_rows(level, k + 1) for k, level in enumerate(self.simplices)]
        self.faces = [np.zeros((len(rows[0]), 0), dtype=np.int64)]
        self.face_signs = [self.faces[0]]
        for k in range(1, self.dim + 1):
            cells = rows[k]
            # the stored vertex order is the ascending one times the sign
            # of its permutation, the parity of its inversions
            inversions = sum(cells[:, i] > cells[:, j]
                             for i, j in combinations(range(k + 1), 2))
            keep = [[j for j in range(k + 1) if j != i] for i in range(k + 1)]
            facets = np.sort(cells, axis=1)[:, keep].reshape(-1, k)
            found = _find_rows(np.sort(rows[k - 1], axis=1), facets)
            self.faces.append(found.reshape(-1, k + 1))
            self.face_signs.append((1 - 2 * (inversions % 2))[:, None]
                                   * (-1) ** np.arange(k + 1))

    # -- queries --------------------------------------------------------
    def num_simplices(self, k: int) -> int:
        return len(self.simplices[k]) if 0 <= k <= self.dim else 0

    def simplex_index(self, vertices, degree: int):
        """Index of the degree-simplex with these vertices, in any order.
        An (m, degree + 1) array of vertex rows gives an array of m indices."""
        query = np.sort(np.asarray(vertices, dtype=np.int64), axis=-1)
        table = np.sort(_vertex_rows(self.simplices[degree], degree + 1), axis=1)
        found = _find_rows(table, query.reshape(-1, degree + 1))
        return int(found[0]) if query.ndim == 1 else found

    def boundary_matrix(self, k: int) -> np.ndarray:
        """Dense signed incidence matrix: rows (k-1)-simplices, cols
        k-simplices."""
        if not 1 <= k <= self.dim:
            raise ValueError(f"no boundary matrix for degree {k}")
        faces = self.faces[k]
        matrix = np.zeros((self.num_simplices(k - 1), len(faces)), dtype=np.int64)
        matrix[faces, np.arange(len(faces))[:, None]] = self.face_signs[k]
        return matrix

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * self.num_simplices(k) for k in range(self.dim + 1))

    def is_pseudo_manifold(self) -> bool:
        """Every codimension-1 simplex bounds at most two top simplices."""
        if self.dim == 0:
            return True
        counts = np.bincount(self.faces[self.dim].ravel(),
                             minlength=self.num_simplices(self.dim - 1))
        return bool((counts <= 2).all())

    def orientability(self) -> tuple[bool, list[int] | None]:
        """Greedy sign propagation across shared facets.

        Returns (orientable, per-top-simplex signs) where the signs make
        induced orientations on every shared facet cancel; signs is None
        when no consistent assignment exists."""
        if not self.is_pseudo_manifold():
            raise ValueError("orientability requires a pseudo-manifold")
        n = self.dim
        if n == 0:
            return True, [1] * self.num_simplices(0)
        faces, face_signs = self.faces[n].tolist(), self.face_signs[n].tolist()
        # cells[starts[r]:starts[r + 1]] are the (at most two) cells on facet
        # r, in ascending order, and cell_signs the facet's sign in each
        order = np.argsort(self.faces[n], axis=None, kind="stable")
        cells = (order // (n + 1)).tolist()
        cell_signs = self.face_signs[n].ravel()[order].tolist()
        counts = np.bincount(self.faces[n].ravel(), minlength=self.num_simplices(n - 1))
        starts = [0, *np.cumsum(counts).tolist()]
        signs = [0] * self.num_simplices(n)
        for seed in range(len(signs)):
            if signs[seed]:
                continue
            signs[seed] = 1
            queue = [seed]
            while queue:
                cell = queue.pop()
                for row, sign in zip(faces[cell], face_signs[cell]):
                    for at in range(starts[row], starts[row + 1]):
                        other = cells[at]
                        if other == cell:
                            continue
                        want = -signs[cell] * sign * cell_signs[at]
                        if signs[other] == 0:
                            signs[other] = want
                            queue.append(other)
                        elif signs[other] != want:
                            return False, None
        return True, signs

    def orientable(self) -> bool:
        """Whether the top cells admit a coherent orientation; False for a
        complex that is not a pseudo-manifold."""
        return self.is_pseudo_manifold() and self.orientability()[0]

    def fundamental_chain(self, parity: Parity = Parity.TWISTED) -> "Chain":
        """All top cells with weight 1.

        Straight parity needs a global orientation (the propagated signs);
        twisted parity always exists, Moebius included."""
        n = self.dim
        if parity is Parity.STRAIGHT:
            ok, signs = self.orientability()
            if not ok:
                raise ValueError(
                    "non-orientable complex has no straight fundamental chain; "
                    "only twisted top-forms can be integrated")
            coeffs = {i: Fraction(s) for i, s in enumerate(signs)}
        else:
            coeffs = {i: Fraction(1) for i in range(self.num_simplices(n))}
        return Chain(n, coeffs, parity)


@dataclass(frozen=True)
class Chain:
    """Formal rational combination of oriented k-simplices."""

    degree: int
    coefficients: Mapping[int, Fraction] = field(default_factory=dict)
    parity: Parity = Parity.STRAIGHT

    def __post_init__(self):
        clean = {int(i): _as_fraction(c) for i, c in dict(self.coefficients).items()}
        object.__setattr__(self, "coefficients",
                           {i: c for i, c in clean.items() if c != 0})

    def is_zero(self) -> bool:
        return not self.coefficients

    def scale(self, a) -> "Chain":
        a = _as_fraction(a)
        return Chain(self.degree, {i: a * c for i, c in self.coefficients.items()},
                     self.parity)

    def __add__(self, other: "Chain") -> "Chain":
        if self.degree != other.degree or self.parity is not other.parity:
            raise ValueError("chain degree/parity mismatch")
        out = dict(self.coefficients)
        for i, c in other.coefficients.items():
            out[i] = out.get(i, Fraction(0)) + c
        return Chain(self.degree, out, self.parity)

    def __neg__(self) -> "Chain":
        return self.scale(-1)


def build_complex(vertex_coords: Iterable[Sequence], top_simplices: Iterable[Sequence[int]],
                  ) -> SimplicialComplex:
    """Build a complex from coordinates and ordered top-simplex tuples.

    All faces are generated (closure property); lower simplices are stored
    in ascending vertex order, top simplices as given.  Every vertex is a
    0-simplex, whether or not a simplex uses it."""
    vertices = [tuple(v) for v in vertex_coords]
    for i, v in enumerate(vertices):
        if len(v) != len(vertices[0]):
            raise ValueError(f"vertex {i} has {len(v)} coordinates, expected {len(vertices[0])}")
    tops = [tuple(int(i) for i in s) for s in top_simplices]
    dim = max((len(s) for s in tops), default=1) - 1
    for s in tops:
        if len(set(s)) != len(s):
            raise ValueError(f"duplicate vertex in simplex {s}")
        for i in s:
            if not 0 <= i < len(vertices):
                raise ValueError(f"vertex index {i} out of range in simplex {s}")
    levels: list[set] = [set() for _ in range(dim)]
    top_level: dict[tuple, tuple] = {}  # first vertex order given for each top simplex
    for s in tops:
        key = tuple(sorted(s))
        if len(s) == dim + 1:
            top_level.setdefault(key, s)
        # every face in sorted order, and a lower simplex itself
        for k in range(1, min(len(s), dim)):
            levels[k].update(combinations(key, k + 1))
    cells = [sorted(level) for level in levels] + [list(top_level.values())]
    cells[0] = [(i,) for i in range(len(vertices))]  # every vertex, in a simplex or not
    return SimplicialComplex(vertices, cells)


def boundary(chain: Chain, complex: SimplicialComplex) -> Chain:
    """Boundary of a chain; degree drops by one, parity is preserved."""
    if chain.degree < 1:
        raise ValueError("boundary of a degree-0 chain is undefined")
    if chain.degree > complex.dim:
        raise ValueError("chain degree exceeds complex dimension")
    k = chain.degree
    cols = list(chain.coefficients)
    coeffs = np.array([chain.coefficients[c] for c in cols], dtype=object)
    out = np.zeros(complex.num_simplices(k - 1), dtype=object)
    np.add.at(out, complex.faces[k][cols], complex.face_signs[k][cols] * coeffs[:, None])
    return Chain(k - 1, {int(i): out[i] for i in np.flatnonzero(out)}, chain.parity)


def loop_chain(complex: SimplicialComplex, vertices: Sequence[int]) -> Chain:
    """The 1-chain of the closed edge path through ``vertices``, back to the
    first: +1 per edge walked in ascending vertex order, -1 otherwise."""
    start = np.asarray(vertices, dtype=np.int64)
    end = np.roll(start, -1)
    edges = complex.simplex_index(np.stack([start, end], axis=1), 1)
    coeffs: dict[int, int] = {}
    for edge, sign in zip(edges.tolist(), np.where(start < end, 1, -1).tolist()):
        coeffs[edge] = coeffs.get(edge, 0) + sign
    return Chain(1, coeffs)


# -- mesh text format -------------------------------------------------------

def parse_mesh(text: str) -> SimplicialComplex:
    """Line format: ``dim n``, then ``v x1 ... xm`` per vertex, then
    ``s i0 i1 ... ik`` per top simplex; ``#`` starts a comment."""
    dim = None
    vertices: list[tuple] = []
    tops: list[tuple] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kind = fields[0]
        try:
            if kind == "dim":
                dim = int(fields[1])
            elif kind == "v":
                vertices.append(tuple(float(x) for x in fields[1:]))
            elif kind == "s":
                tops.append(tuple(int(i) for i in fields[1:]))
            else:
                raise MeshFormatError(lineno, f"unknown record {kind!r}")
        except MeshFormatError:
            raise
        except (ValueError, IndexError) as exc:
            raise MeshFormatError(lineno, f"cannot parse {line!r}: {exc}") from exc
    if dim is None:
        raise MeshFormatError(1, "missing 'dim' header")
    try:
        complex = build_complex(vertices, tops)
    except ValueError as exc:
        raise MeshFormatError(None, str(exc)) from exc
    if complex.dim != dim:
        raise MeshFormatError(1, f"header says dim {dim} but simplices give {complex.dim}")
    return complex


def mesh_to_text(complex: SimplicialComplex) -> str:
    lines = [f"dim {complex.dim}"]
    for v in complex.vertices:
        lines.append("v " + " ".join(repr(x) for x in v))
    for s in complex.simplices[complex.dim]:
        lines.append("s " + " ".join(str(i) for i in s))
    return "\n".join(lines) + "\n"

"""Simplicial complexes, chains, and the boundary operator.

Orientation convention: the ordered vertex tuple of a simplex defines its
internal orientation; odd permutations carry sign -1.  Boundary matrices
have integer entries and compose to zero exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy import sparse

from .exact import perm_sign
from .parity import Parity
from .poly import _as_fraction


class MeshFormatError(ValueError):
    """Malformed input text: a mesh, a cochain CSV or a form.  Carries the
    offending line number, or None when the error belongs to no line."""

    def __init__(self, line: int | None, message: str):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class SimplicialComplex:
    """Finite simplicial complex with oriented cells.

    Faces are generated automatically and stored with ascending vertex
    order; top simplices keep the vertex order they were built with.
    """

    def __init__(self, vertices: list[tuple], simplices: list[list[tuple]]):
        self.vertices = [tuple(float(x) for x in v) for v in vertices]
        self.simplices = [list(map(tuple, level)) for level in simplices]
        self.dim = len(self.simplices) - 1
        self._index = [
            {tuple(sorted(s)): i for i, s in enumerate(level)}
            for level in self.simplices
        ]
        # incidence_entries[k]: per k-simplex, list of ((k-1)-simplex index, sign)
        self.incidence_entries: list[list[list[tuple[int, int]]]] = [[]]
        for k in range(1, self.dim + 1):
            cols = []
            for s in self.simplices[k]:
                entries = []
                for j in range(len(s)):
                    face = s[:j] + s[j + 1:]
                    row = self._index[k - 1][tuple(sorted(face))]
                    sign = (-1) ** j * perm_sign(face)
                    entries.append((row, sign))
                cols.append(entries)
            self.incidence_entries.append(cols)

    # -- queries --------------------------------------------------------
    def num_simplices(self, k: int) -> int:
        return len(self.simplices[k]) if 0 <= k <= self.dim else 0

    def simplex_index(self, vertices: Sequence[int], degree: int) -> int:
        return self._index[degree][tuple(sorted(vertices))]

    def boundary_matrix(self, k: int) -> sparse.csr_matrix:
        """Signed incidence matrix: rows (k-1)-simplices, cols k-simplices."""
        if not 1 <= k <= self.dim:
            raise ValueError(f"no boundary matrix for degree {k}")
        rows, cols, vals = [], [], []
        for col, entries in enumerate(self.incidence_entries[k]):
            for row, sign in entries:
                rows.append(row)
                cols.append(col)
                vals.append(sign)
        return sparse.csr_matrix(
            (vals, (rows, cols)),
            shape=(self.num_simplices(k - 1), self.num_simplices(k)),
            dtype=np.int64)

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * self.num_simplices(k) for k in range(self.dim + 1))

    def is_pseudo_manifold(self) -> bool:
        """Every codimension-1 simplex bounds at most two top simplices."""
        if self.dim == 0:
            return True
        counts = np.zeros(self.num_simplices(self.dim - 1), dtype=int)
        for entries in self.incidence_entries[self.dim]:
            for row, _ in entries:
                counts[row] += 1
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
        facet_cells: dict[int, list[tuple[int, int]]] = {}
        for col, entries in enumerate(self.incidence_entries[n]):
            for row, sign in entries:
                facet_cells.setdefault(row, []).append((col, sign))
        signs = [0] * self.num_simplices(n)
        for seed in range(len(signs)):
            if signs[seed]:
                continue
            signs[seed] = 1
            queue = [seed]
            while queue:
                cell = queue.pop()
                for row, sign in self.incidence_entries[n][cell]:
                    for other, osign in facet_cells[row]:
                        if other == cell:
                            continue
                        want = -signs[cell] * sign * osign
                        if signs[other] == 0:
                            signs[other] = want
                            queue.append(other)
                        elif signs[other] != want:
                            return False, None
        return True, signs

    def orientable(self) -> bool:
        return self.orientability()[0]

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

    def embedding_dim(self) -> int:
        return len(self.vertices[0]) if self.vertices else 0


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
    in ascending vertex order, top simplices as given."""
    vertices = [tuple(v) for v in vertex_coords]
    if vertices:
        arity = len(vertices[0])
        for i, v in enumerate(vertices):
            if len(v) != arity:
                raise ValueError(f"vertex {i} has {len(v)} coordinates, expected {arity}")
    tops = [tuple(int(i) for i in s) for s in top_simplices]
    if not tops:
        levels = [[(i,) for i in range(len(vertices))]]
        return SimplicialComplex(vertices, levels)
    dim = max(len(s) for s in tops) - 1
    for s in tops:
        if len(set(s)) != len(s):
            raise ValueError(f"duplicate vertex in simplex {s}")
        for i in s:
            if not 0 <= i < len(vertices):
                raise ValueError(f"vertex index {i} out of range in simplex {s}")
    levels: list[set] = [set() for _ in range(dim + 1)]
    top_level: list[tuple] = []
    seen_top = set()
    for s in tops:
        key = tuple(sorted(s))
        if len(s) - 1 == dim:
            if key not in seen_top:
                seen_top.add(key)
                top_level.append(s)
        else:
            levels[len(s) - 1].add(key)
        # generate all proper faces in sorted order
        from itertools import combinations
        for k in range(len(s) - 1):
            for face in combinations(key, k + 1):
                levels[k].add(face)
    simplices = [sorted(levels[k]) for k in range(dim)]
    simplices.append(top_level)
    # faces of mixed-dimension input below top must also close lower levels
    return SimplicialComplex(vertices, simplices)


def boundary(chain: Chain, complex: SimplicialComplex) -> Chain:
    """Boundary of a chain; degree drops by one, parity is preserved."""
    if chain.degree < 1:
        raise ValueError("boundary of a degree-0 chain is undefined")
    if chain.degree > complex.dim:
        raise ValueError("chain degree exceeds complex dimension")
    out: dict[int, Fraction] = {}
    for col, c in chain.coefficients.items():
        for row, sign in complex.incidence_entries[chain.degree][col]:
            out[row] = out.get(row, Fraction(0)) + sign * c
    return Chain(chain.degree - 1, out, chain.parity)


def orientability(complex: SimplicialComplex):
    ok, signs = complex.orientability()
    return {"orientable": ok, "global_orientation": signs}


def euler_characteristic(complex: SimplicialComplex) -> int:
    return complex.euler_characteristic()


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

"""Hole detection: Betti numbers, torsion, closed-vs-exact cochains.

All ranks come from exact integer Smith normal form of the coboundary
rows, read straight from the incidence arrays (arbitrary-precision ints,
no floats): a sparse +-1-pivot reduction, then integer SNF on the
remaining block.  Primitives come from
exact rational elimination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .cochain import Cochain, coboundary
from .exact import solve
from .parity import Parity
from .simplicial import SimplicialComplex


def _dense_snf(m: list[list[int]]) -> list[int]:
    """Invariant factors of the dense integer matrix ``m``, which it consumes.

    Each step moves the smallest nonzero entry of the block to the corner
    and reduces its row and column by the nearest quotient, so that every
    remainder is at most half the pivot and the next pivot is smaller.
    Restarting from the smallest entry keeps the entries small in practice,
    though it proves no bound."""
    factors: list[int] = []
    while True:
        pivot = min(((abs(v), i, j) for i, row in enumerate(m)
                     for j, v in enumerate(row) if v), default=None)
        if pivot is None:
            return factors
        _, i, j = pivot
        m[0], m[i] = m[i], m[0]
        for row in m:
            row[0], row[j] = row[j], row[0]
        top = m[0]
        p = top[0]
        for row in m[1:]:
            q = (2 * row[0] + p) // (2 * p)
            if q:
                for c, v in enumerate(top):
                    row[c] -= q * v
        for c in range(1, len(top)):
            q = (2 * top[c] + p) // (2 * p)
            if q:
                for row in m:
                    row[c] -= q * row[0]
        if any(top[1:]) or any(row[0] for row in m[1:]):
            continue
        # the pivot must divide the rest of the block; if not, adding an
        # offending row brings a smaller remainder into the pivot row
        bad = next((row for row in m[1:] if any(v % p for v in row)), None)
        if bad is not None:
            m[0] = [x + y for x, y in zip(top, bad)]
            continue
        factors.append(abs(p))
        m = [row[1:] for row in m[1:]]


def smith_normal_form(rows: list[dict[int, int]]) -> list[int]:
    """Invariant factors (diagonal of the SNF) of an integer matrix given as
    sparse rows (``rows[i][j]`` is entry (i, j); absent entries are 0),
    each dividing the next.  The rows are not changed.

    Stage 1 eliminates +-1 pivots on the sparse rows: walking the rows in
    order, a row that still holds a unit entry pivots on the one whose
    column has the fewest nonzeros, row operations clear that column, and
    the pivot row and column are dropped.  Column operations would then
    clear the pivot row without touching any other entry, so each pivot is
    one invariant factor 1.  Stage 2 runs the dense reduction on the block
    of rows and columns that still hold entries."""
    rows = [{j: v for j, v in row.items() if v} for row in rows]
    column: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        for j in row:
            column.setdefault(j, set()).add(i)
    units = 0
    for r, pivot_row in enumerate(rows):
        candidates = [j for j, v in pivot_row.items() if v == 1 or v == -1]
        if not candidates:
            continue
        c = min(candidates, key=lambda j: len(column[j]))
        unit = pivot_row.pop(c)
        for i in column.pop(c):
            if i == r:
                continue
            row = rows[i]
            q = row.pop(c) * unit
            for j, v in pivot_row.items():
                w = row.get(j, 0) - q * v
                if w:
                    if j not in row:
                        column[j].add(i)
                    row[j] = w
                else:
                    del row[j]
                    column[j].discard(i)
        for j in pivot_row:
            column[j].discard(r)
        rows[r] = {}
        units += 1
    rest = [row for row in rows if row]
    live = sorted({j for row in rest for j in row})
    return [1] * units + _dense_snf([[row.get(j, 0) for j in live] for row in rest])


@dataclass(frozen=True)
class CohomologyReport:
    betti: tuple
    torsion: tuple  # invariant factors > 1 of each boundary map, per degree
    orientable: bool
    euler_characteristic: int

    def table(self) -> str:
        lines = ["degree  betti  torsion"]
        for k, b in enumerate(self.betti):
            t = ",".join(str(x) for x in self.torsion[k]) or "-"
            lines.append(f"{k:>6}  {b:>5}  {t}")
        lines.append(f"orientable: {'yes' if self.orientable else 'no'}")
        lines.append(f"euler characteristic: {self.euler_characteristic}")
        return "\n".join(lines)


def betti_numbers(complex: SimplicialComplex) -> CohomologyReport:
    """Betti numbers and torsion of the complex via Smith normal form."""
    n = complex.dim
    ranks = [0] * (n + 2)  # rank of boundary_k for k = 1..n
    torsions: list[tuple] = [()] * (n + 1)
    factor_lists: dict[int, list[int]] = {}
    for k in range(1, n + 1):
        # the coboundary d_k^T has the invariant factors of the boundary
        # d_k; its row c lists the signed facets of k-simplex c
        factors = smith_normal_form(
            [dict(zip(f, s)) for f, s in zip(complex.faces[k].tolist(),
                                             complex.face_signs[k].tolist())])
        ranks[k] = len(factors)
        factor_lists[k] = factors
    betti = []
    for k in range(n + 1):
        betti.append(complex.num_simplices(k) - ranks[k] - ranks[k + 1])
    for k in range(n):
        torsions[k] = tuple(f for f in factor_lists.get(k + 1, []) if f > 1)
    chi = complex.euler_characteristic()
    assert sum((-1) ** k * b for k, b in enumerate(betti)) == chi
    return CohomologyReport(tuple(betti), tuple(torsions), complex.orientable(), chi)


def is_closed(omega: Cochain, complex: SimplicialComplex) -> bool:
    if omega.degree == complex.dim:
        return True
    return coboundary(omega, complex).is_zero()


def is_exact(omega: Cochain, complex: SimplicialComplex) -> dict:
    """Solve d(eta) = omega by exact rational elimination.

    Returns {'exact': bool, 'primitive': Cochain or None}."""
    p = omega.degree
    if p == 0:
        return {"exact": omega.is_zero(), "primitive": None}
    # the coboundary matrix from degree p-1 to p is the transposed boundary
    sol = solve(complex.boundary_matrix(p).T.tolist(), [Fraction(v) for v in omega.values])
    if sol is None:
        return {"exact": False, "primitive": None}
    prim = Cochain(p - 1, tuple(sol), omega.parity, "exact")
    return {"exact": True, "primitive": prim}


def winding_cochain(complex: SimplicialComplex) -> Cochain:
    """Angle-increment 1-cochain on a planar complex around the origin.

    Each vertex angle is rounded to a rational number of turns once; an
    edge carries the difference of its end angles shifted by a whole turn
    into [-1/2, 1/2).  Every triangle sum is then an exact integer, 0 on
    each triangle that does not contain the origin: the cochain is closed
    when the origin lies in a hole, and exact only when no cycle encircles
    the origin."""
    turns = [Fraction(math.atan2(v[1], v[0]) / (2 * math.pi)).limit_denominator(10**6)
             for v in complex.vertices]
    vals = []
    for (a, b) in complex.simplices[1]:
        d = turns[b] - turns[a]
        vals.append(d - math.floor(d + Fraction(1, 2)))
    return Cochain(1, tuple(vals), Parity.STRAIGHT, "exact")

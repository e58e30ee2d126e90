"""Hole detection: Betti numbers, torsion, closed-vs-exact cochains.

One sparse elimination of the coboundary rows, read straight from the
incidence arrays, serves both: +-1 pivots first, then integer Smith normal
form of the block left gives ranks and torsion, and rational elimination
of it, the right-hand side carried along, gives primitives.  No floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .cochain import Cochain, _check_fits, coboundary
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


def _unit_pivots(rows: list[dict], rhs: list | None = None) -> list[tuple]:
    """Eliminate +-1 pivots on the sparse rows, and the same row operations
    on ``rhs``, in place.  Walking the rows in order, a row that still holds
    a unit entry pivots on the one whose column has the fewest nonzeros, row
    operations clear that column, and the pivot row is emptied.  Returns the
    pivots (column, unit, rest of the row, rhs) in order; the rhs leaves
    with its pivot, so the emptied row reads 0 = 0."""
    column: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        for j in row:
            column.setdefault(j, set()).add(i)
    rhs = [0] * len(rows) if rhs is None else rhs
    pivots = []
    for r, pivot_row in enumerate(rows):
        candidates = [j for j, v in pivot_row.items() if v == 1 or v == -1]
        if not candidates:
            continue
        c = min(candidates, key=lambda j: len(column[j]))
        unit = pivot_row.pop(c)
        b, rhs[r] = rhs[r], 0
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
            if b:
                rhs[i] -= q * b
        for j in pivot_row:
            column[j].discard(r)
        rows[r] = {}
        pivots.append((c, unit, pivot_row, b))
    return pivots


def smith_normal_form(rows: list[dict[int, int]]) -> list[int]:
    """Invariant factors (diagonal of the SNF) of an integer matrix given as
    sparse rows (``rows[i][j]`` is entry (i, j); absent entries are 0),
    each dividing the next.  The rows are not changed.

    Stage 1 eliminates the +-1 pivots (``_unit_pivots``).  Column
    operations would then clear each pivot row without touching any other
    entry, so each pivot is one invariant factor 1.  Stage 2 runs the
    dense reduction on the block of rows and columns that still hold
    entries."""
    rows = [{j: v for j, v in row.items() if v} for row in rows]
    units = len(_unit_pivots(rows))
    rest = [row for row in rows if row]
    live = sorted({j for row in rest for j in row})
    return [1] * units + _dense_snf([[row.get(j, 0) for j in live] for row in rest])


def _coboundary_rows(complex: SimplicialComplex, k: int) -> list[dict[int, int]]:
    """The coboundary matrix from degree k - 1 to k as sparse rows: row c
    lists the signed facets of k-simplex c."""
    return [dict(zip(f, s)) for f, s in zip(complex.faces[k].tolist(),
                                            complex.face_signs[k].tolist())]


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
    # the invariant factors of d_k, read from its transpose; d_0 = d_(n+1) = 0
    factors = [[]] + [smith_normal_form(_coboundary_rows(complex, k))
                      for k in range(1, n + 1)] + [[]]
    betti = tuple(complex.num_simplices(k) - len(factors[k]) - len(factors[k + 1])
                  for k in range(n + 1))
    torsions = tuple(tuple(f for f in factors[k + 1] if f > 1) for k in range(n + 1))
    chi = complex.euler_characteristic()
    assert sum((-1) ** k * b for k, b in enumerate(betti)) == chi
    return CohomologyReport(betti, torsions, complex.orientable(), chi)


def _check_exact(omega: Cochain, complex: SimplicialComplex) -> None:
    """Raise ValueError unless omega is an exact-mode cochain that fits the
    complex: a float cochain's zero test would read rounding, not the form."""
    if omega.mode != "exact":
        raise ValueError("closedness and exactness are decided in exact mode only; "
                         "got a float-mode cochain")
    _check_fits(omega, complex)


def is_closed(omega: Cochain, complex: SimplicialComplex) -> bool:
    """Whether d(omega) = 0; exact-mode cochains only."""
    _check_exact(omega, complex)
    return omega.degree == complex.dim or coboundary(omega, complex).is_zero()


def is_exact(omega: Cochain, complex: SimplicialComplex) -> dict:
    """Solve d(eta) = omega over Q on the sparse coboundary rows: the unit
    pivots first, then (every nonzero being a unit over Q) the rows left,
    each scaled to hold a 1, until no row is left.  A leftover 0 = b != 0
    means not exact; otherwise back-substitution through the pivots gives
    eta, free unknowns 0.  Returns {'exact': bool, 'primitive': Cochain or None}.
    Exact-mode cochains only."""
    _check_exact(omega, complex)
    p = omega.degree
    if p == 0:
        return {"exact": omega.is_zero(), "primitive": None}
    rows = _coboundary_rows(complex, p)
    rhs = [Fraction(v) for v in omega.values]
    pivots = _unit_pivots(rows, rhs)
    while any(rows):
        for i, row in enumerate(rows):
            if row:
                s = next(iter(row.values()))
                rows[i] = {j: Fraction(v, s) for j, v in row.items()}
                rhs[i] /= s
        pivots += _unit_pivots(rows, rhs)
    if any(rhs):
        return {"exact": False, "primitive": None}
    eta = [Fraction(0)] * complex.num_simplices(p - 1)
    for c, unit, rest, b in reversed(pivots):
        eta[c] = unit * (b - sum(v * eta[j] for j, v in rest.items()))
    return {"exact": True, "primitive": Cochain(p - 1, tuple(eta), omega.parity, "exact")}


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

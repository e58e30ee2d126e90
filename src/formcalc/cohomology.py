"""Hole detection: Betti numbers, torsion, closed-vs-exact cochains.

All ranks come from exact integer Smith normal form of the boundary
matrices (arbitrary-precision ints, no floats); primitives come from
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


def smith_normal_form(matrix: list[list[int]]) -> list[int]:
    """Invariant factors (diagonal of the SNF) of an integer matrix."""
    m = [row[:] for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    factors: list[int] = []
    r = 0
    while r < min(rows, cols):
        # find a nonzero pivot with minimal absolute value
        pivot = None
        best = None
        for i in range(r, rows):
            for j in range(r, cols):
                v = abs(m[i][j])
                if v and (best is None or v < best):
                    best, pivot = v, (i, j)
        if pivot is None:
            break
        i, j = pivot
        m[r], m[i] = m[i], m[r]
        for row in m:
            row[r], row[j] = row[j], row[r]
        while True:
            # clear the pivot row and column by division with remainder
            reduced = False
            for i in range(r + 1, rows):
                if m[i][r]:
                    q = m[i][r] // m[r][r]
                    for c in range(r, cols):
                        m[i][c] -= q * m[r][c]
                    if m[i][r]:
                        m[r], m[i] = m[i], m[r]
                        reduced = True
            for j in range(r + 1, cols):
                if m[r][j]:
                    q = m[r][j] // m[r][r]
                    for i in range(r, rows):
                        m[i][j] -= q * m[i][r]
                    if m[r][j]:
                        for i in range(r, rows):
                            m[i][r], m[i][j] = m[i][j], m[i][r]
                        reduced = True
            if not reduced:
                break
        # enforce divisibility of later entries by the pivot
        p = abs(m[r][r])
        fix = None
        for i in range(r + 1, rows):
            for j in range(r + 1, cols):
                if m[i][j] % p:
                    fix = i
                    break
            if fix is not None:
                break
        if fix is not None:
            for c in range(r, cols):
                m[r][c] += m[fix][c]
            continue
        factors.append(p)
        r += 1
    return factors


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
        factors = smith_normal_form(complex.boundary_matrix(k).toarray().tolist())
        ranks[k] = len(factors)
        factor_lists[k] = factors
    betti = []
    for k in range(n + 1):
        betti.append(complex.num_simplices(k) - ranks[k] - ranks[k + 1])
    for k in range(n):
        torsions[k] = tuple(f for f in factor_lists.get(k + 1, []) if f > 1)
    ok, _ = (complex.orientability() if complex.is_pseudo_manifold()
             else (False, None))
    chi = complex.euler_characteristic()
    assert sum((-1) ** k * b for k, b in enumerate(betti)) == chi
    return CohomologyReport(tuple(betti), tuple(torsions), ok, chi)


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
    # the coboundary matrix from degree p-1 to p is boundary_matrix(p) transposed
    D = complex.boundary_matrix(p).T.toarray().tolist()
    sol = solve(D, [Fraction(v) for v in omega.values])
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

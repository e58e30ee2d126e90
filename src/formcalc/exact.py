"""Exact kernel: permutation signs and rational Gaussian elimination.

Every orientation sign in formcalc is a permutation sign, and every
determinant, inverse metric and cochain primitive comes from one forward
elimination over Q.  Entries may be ints or Fractions; results are
Fractions (or ints for signs), never floats.
"""

from __future__ import annotations

import math
from fractions import Fraction


def perm_sign(seq) -> int:
    """Sign of the permutation sorting ``seq``; 0 if entries repeat."""
    sign = 1
    for i, a in enumerate(seq):
        for b in seq[i + 1:]:
            if a == b:
                return 0
            if a > b:
                sign = -sign
    return sign


def eliminate(rows) -> tuple[list[list], list[int], int]:
    """Forward elimination to row echelon form.

    The pivot of each column is its first nonzero entry at or below the
    current row; rows already zero in that column are left alone.
    Returns (the nonzero echelon rows, their pivot columns, the sign of
    the row swaps)."""
    m = [list(row) for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    sign = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        p = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if p is None:
            continue
        if p != r:
            m[r], m[p] = m[p], m[r]
            sign = -sign
        prow = m[r]
        below = [row for row in m[r + 1:] if row[c] != 0]
        if below:
            inv = Fraction(1) / prow[c]
            nonzero = [j for j in range(c + 1, ncols) if prow[j] != 0]
            for row in below:
                f = row[c] * inv
                row[c] = 0
                for j in nonzero:
                    row[j] -= f * prow[j]
        pivots.append(c)
        r += 1
    return m[:r], pivots, sign


def det(rows) -> Fraction:
    """Determinant of a square matrix."""
    echelon, pivots, sign = eliminate(rows)
    if len(pivots) < len(rows):
        return Fraction(0)
    return math.prod((row[i] for i, row in enumerate(echelon)), start=Fraction(sign))


def _back_substitute(echelon, pivots, ncols: int, width: int) -> list[list[Fraction]]:
    """X with A X = B from the echelon form of [A | B] (A has ``ncols``
    columns, B has ``width``, every pivot lies in A); free unknowns are 0."""
    X: list[list] = [[Fraction(0)] * width for _ in range(ncols)]
    for row, c in zip(reversed(echelon), reversed(pivots)):
        acc = row[ncols:]
        for j in range(c + 1, ncols):
            if row[j] != 0:
                acc = [a - row[j] * x for a, x in zip(acc, X[j])]
        inv = Fraction(1) / row[c]
        X[c] = [a * inv for a in acc]
    return X


def solve(A, b) -> list[Fraction] | None:
    """One solution of A x = b over Q, or None if the system is inconsistent."""
    ncols = len(A[0]) if A else 0
    echelon, pivots, _ = eliminate([list(row) + [v] for row, v in zip(A, b)])
    if pivots and pivots[-1] == ncols:
        return None
    return [x[0] for x in _back_substitute(echelon, pivots, ncols, 1)]


def inverse(rows) -> list[list[Fraction]]:
    """Inverse of a square matrix; raises ValueError when it is singular."""
    n = len(rows)
    echelon, pivots, _ = eliminate(
        [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)])
    if pivots != list(range(n)):
        raise ValueError("singular matrix")
    return _back_substitute(echelon, pivots, n, n)


def inertia(rows) -> list[int]:
    """Signs of the eigenvalues of a symmetric matrix (Sylvester's law).

    Each step takes a nonzero diagonal pivot and keeps its Schur
    complement, a congruence that leaves the remaining block symmetric."""
    m = [list(row) for row in rows]
    signs = []
    while m:
        k = next((i for i in range(len(m)) if m[i][i] != 0), None)
        if k is None:
            off = next(((i, j) for i in range(len(m)) for j in range(i + 1, len(m))
                        if m[i][j] != 0), None)
            if off is None:
                return signs + [0] * len(m)
            # add column and row j onto i: the diagonal entry becomes 2 m[i][j]
            k, j = off
            for row in m:
                row[k] += row[j]
            m[k] = [a + b for a, b in zip(m[k], m[j])]
        pivot = m.pop(k)
        signs.append(1 if pivot[k] > 0 else -1)
        inv = Fraction(1) / pivot[k]
        m = [[a - row[k] * inv * b for a, b in zip(row, pivot)] if row[k] != 0 else row
             for row in m]
        m = [row[:k] + row[k + 1:] for row in m]
    return signs


def negative_vector(rows) -> list[Fraction] | None:
    """A vector v with v^T A v < 0 for a symmetric matrix A, or None when A
    is positive semidefinite.

    The unit vector of the first negative diagonal entry when there is one;
    otherwise each step takes a positive diagonal pivot, A-orthogonalizes
    the other basis vectors against its own and keeps their Gram matrix."""
    n = len(rows)
    basis = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    gram = [list(row) for row in rows]
    while gram:
        k = next((i for i, row in enumerate(gram) if row[i] < 0), None)
        if k is not None:
            return basis[k]
        k = next((i for i, row in enumerate(gram) if row[i] > 0), None)
        if k is None:
            # a zero diagonal: b_i - sgn(A_ij) b_j has A-norm -2|A_ij|
            i, j = next(((i, j) for i in range(len(gram)) for j in range(i + 1, len(gram))
                         if gram[i][j] != 0), (None, None))
            if i is None:
                return None
            s = 1 if gram[i][j] > 0 else -1
            return [a - s * b for a, b in zip(basis[i], basis[j])]
        pivot, inv = gram[k], Fraction(1) / gram[k][k]
        rest = [i for i in range(len(gram)) if i != k]
        basis = [[a - pivot[i] * inv * b for a, b in zip(basis[i], basis[k])] for i in rest]
        gram = [[gram[i][j] - pivot[i] * inv * pivot[j] for j in rest] for i in rest]
    return None

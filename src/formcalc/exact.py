"""Exact kernel: permutation signs, one contraction, one congruence.

Every orientation sign in formcalc is a permutation sign.  One symmetric
congruence (``diagonalize``) gives everything a metric is: signature,
timelike reference, det g and g^-1.  One contraction (``contract``) gives
the interior product, and through the rows of g^-1 the Hodge star and the
induced inner product of forms.  Cochain primitives come from the sparse
elimination in ``cohomology``.  Entries may be ints or Fractions; results
are Fractions (or ints for signs), never floats.
"""

from __future__ import annotations

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


def _accumulate(out: dict, key, value) -> None:
    """``out[key] += value``, without a zero to start a missing key from."""
    old = out.get(key)
    out[key] = value if old is None else old + value


def contract(terms: dict, vector) -> dict:
    """Interior product of an {index set: coefficient} map with a vector:
    dropping index k from position pos of an index set gives
    ``vector[k] * coeff * (-1)^pos``.  Coefficients may be Fractions or
    Polys; sums that cancel to zero are kept for the caller to drop."""
    out: dict = {}
    for idx, coeff in terms.items():
        for pos, k in enumerate(idx):
            term = vector[k] * coeff
            _accumulate(out, idx[:pos] + idx[pos + 1:], -term if pos % 2 else term)
    return out


def diagonalize(rows) -> tuple[list[Fraction], list[list[Fraction]]]:
    """A congruence of a symmetric matrix A to diagonal form: pivots d_k and
    vectors b_k with b_k^T A b_l = d_k when k == l and 0 otherwise.

    Each step takes the first negative diagonal entry of the remaining Gram
    matrix, else the first positive one; when the whole diagonal is zero,
    b_i - sgn(A_ij) b_j (A-norm -2|A_ij|) first replaces b_i.  The other
    vectors are then A-orthogonalized against the pivot's.  Null directions
    left at the end get pivot 0.  The signs of the pivots are the signs of
    the eigenvalues (Sylvester's law), and their product is det A."""
    n = len(rows)
    basis = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    gram = [[Fraction(v) for v in row] for row in rows]
    pivots, vectors = [], []
    while gram:
        diagonal = [row[i] for i, row in enumerate(gram)]
        k = next((i for i, d in enumerate(diagonal) if d < 0),
                 next((i for i, d in enumerate(diagonal) if d > 0), None))
        if k is None:
            pair = next(((i, j) for i in range(len(gram)) for j in range(i + 1, len(gram))
                         if gram[i][j] != 0), None)
            if pair is None:
                break
            k, j = pair
            s = 1 if gram[k][j] > 0 else -1
            basis[k] = [a - s * b for a, b in zip(basis[k], basis[j])]
            gram[k] = [a - s * b for a, b in zip(gram[k], gram[j])]
            for row in gram:
                row[k] -= s * row[j]
        pivot, d, b = gram[k], gram[k][k], basis[k]
        pivots.append(d)
        vectors.append(b)
        rest = [i for i in range(len(gram)) if i != k]
        # a row already A-orthogonal to the pivot keeps its vector
        basis = [[x - pivot[i] / d * y for x, y in zip(basis[i], b)] if pivot[i] else basis[i]
                 for i in rest]
        gram = [[gram[i][j] - pivot[i] / d * pivot[j] for j in rest] if pivot[i]
                else [gram[i][j] for j in rest] for i in rest]
    return pivots + [Fraction(0)] * len(basis), vectors + basis

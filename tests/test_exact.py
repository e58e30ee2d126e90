"""Exact kernel: symmetric diagonalization, contraction, permutation sign.

Properties over small random rational matrices; every value is a Fraction.
"""

import math
from fractions import Fraction
from itertools import permutations

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from formcalc.exact import contract, diagonalize, perm_sign
from formcalc.poly import Poly

dense_entries = st.fractions(min_value=-4, max_value=4, max_denominator=3)
# zeros are drawn often so that singular and rank-deficient cases come up
entries = st.one_of(st.just(Fraction(0)), dense_entries)


def matrices(rows, cols, elements=entries):
    return st.lists(st.lists(elements, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


# (A, B): A sparse, often singular; B dense, almost always invertible
square = st.integers(1, 4).flatmap(
    lambda n: st.tuples(matrices(n, n), matrices(n, n, dense_entries)))


def matmul(A, B):
    return [[sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in zip(*B)]
            for row in A]


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def all_fractions(values):
    return all(type(v) is Fraction for v in values)


def det(rows):
    """The Leibniz sum over permutations, independent of any elimination."""
    n = len(rows)
    return sum((perm_sign(s) * math.prod((rows[i][s[i]] for i in range(n)), start=Fraction(1))
                for s in permutations(range(n))), Fraction(0))


def symmetric(M):
    return [[M[i][j] + M[j][i] for j in range(len(M))] for i in range(len(M))]


def signs(pivots):
    return sorted((d > 0) - (d < 0) for d in pivots)


@settings(max_examples=60, deadline=None)
@given(square)
def test_diagonalize_signs_preserved_under_congruence(pair):
    M, P = pair
    assume(det(P) != 0)
    S = symmetric(M)
    PT = [list(col) for col in zip(*P)]
    congruent = matmul(matmul(P, S), PT)
    assert signs(diagonalize(congruent)[0]) == signs(diagonalize(S)[0])


@settings(max_examples=60, deadline=None)
@given(square)
def test_diagonalize_is_a_congruence_with_pivot_product_det(pair):
    M, _ = pair
    S = symmetric(M)
    pivots, basis = diagonalize(S)
    assert all_fractions(pivots) and all(all_fractions(b) for b in basis)
    # B^T S B is the diagonal of the pivots
    assert matmul(matmul(basis, S), [list(col) for col in zip(*basis)]) == [
        [d if i == j else 0 for j in range(len(S))] for i, d in enumerate(pivots)]
    assert math.prod(pivots, start=Fraction(1)) == det(S)


@settings(max_examples=60, deadline=None)
@given(square)
def test_first_negative_pivot_is_the_first_negative_diagonal_entry(pair):
    M, _ = pair
    S = symmetric(M)
    negative = [i for i in range(len(S)) if S[i][i] < 0]
    assume(negative)
    pivots, basis = diagonalize(S)
    k = next(k for k, d in enumerate(pivots) if d < 0)
    assert basis[k] == identity(len(S))[negative[0]]


def test_diagonalize_zero_diagonal():
    # no diagonal pivot: b_0 - b_1 has S-norm -2 and comes first
    M = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    pivots, basis = diagonalize(M)
    assert pivots == [-2, Fraction(1, 2)]
    assert basis[0] == [1, -1]


def inversions(seq):
    return sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq))
               if seq[i] > seq[j])


@given(st.lists(st.integers(-3, 3), max_size=7))
def test_perm_sign_counts_inversions(seq):
    if len(set(seq)) < len(seq):
        assert perm_sign(seq) == 0
    else:
        assert perm_sign(seq) == (-1) ** inversions(seq)



def test_contract_drops_each_index_with_its_position_sign():
    # i_v (3 dx0^dx1 + dx0^dx2) = 3 (v0 dx1 - v1 dx0) + v0 dx2 - v2 dx0
    terms = {(0, 1): Fraction(3), (0, 2): Fraction(1)}
    v = (Fraction(2), Fraction(5), Fraction(1, 2))
    assert contract(terms, v) == {(1,): 6, (0,): -15 - Fraction(1, 2), (2,): 2}
    # sums that cancel stay, for the caller to drop
    assert contract({(0, 1): Fraction(1)}, (Fraction(0), Fraction(1))) == {(1,): 0, (0,): -1}
    assert contract({(): Fraction(7)}, v) == {}

    x, y = Poly(3, {(1, 0, 0): 1}), Poly(3, {(0, 1, 0): 1})
    # i_(y, x, 1) (x dx0^dx2 - y dx1^dx2): the dx2 terms yx - xy cancel to a kept zero
    got = contract({(0, 2): x, (1, 2): -y}, (y, x, Poly.constant(3, 1)))
    assert got == {(2,): Poly.zero(3), (0,): -x, (1,): y}
    assert all(type(c) is Poly for c in got.values())

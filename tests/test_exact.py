"""Exact kernel: determinant, inverse, solve, inertia, negative directions,
permutation sign.

Properties over small random rational matrices; every value is a Fraction.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from formcalc.exact import (
    det,
    eliminate,
    inertia,
    inverse,
    negative_vector,
    perm_sign,
    solve,
)

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


@settings(max_examples=60, deadline=None)
@given(square)
def test_det_is_multiplicative(pair):
    A, B = pair
    d = det(matmul(A, B))
    assert type(d) is Fraction
    assert d == det(A) * det(B)


@settings(max_examples=60, deadline=None)
@given(square)
def test_inverse_is_two_sided(pair):
    _, A = pair
    assume(det(A) != 0)
    Ainv = inverse(A)
    assert all(all_fractions(row) for row in Ainv)
    n = len(A)
    assert matmul(A, Ainv) == identity(n)
    assert matmul(Ainv, A) == identity(n)


def test_inverse_rejects_singular():
    with pytest.raises(ValueError):
        inverse([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])


systems = st.tuples(st.integers(1, 5), st.integers(1, 4)).flatmap(
    lambda shape: st.tuples(matrices(*shape), st.lists(entries, min_size=shape[0],
                                                       max_size=shape[0])))


def rank(rows) -> int:
    return len(eliminate(rows)[1])


@settings(max_examples=100, deadline=None)
@given(systems)
def test_solve_exactly_when_ranks_agree(system):
    A, b = system
    consistent = rank(A) == rank([row + [v] for row, v in zip(A, b)])
    x = solve(A, b)
    assert (x is not None) == consistent
    if x is not None:
        assert all_fractions(x)
        assert [sum((a * xi for a, xi in zip(row, x)), Fraction(0)) for row in A] == b


@settings(max_examples=60, deadline=None)
@given(square)
def test_inertia_preserved_under_congruence(pair):
    M, P = pair
    assume(det(P) != 0)
    S = [[M[i][j] + M[j][i] for j in range(len(M))] for i in range(len(M))]
    PT = [list(col) for col in zip(*P)]
    congruent = matmul(matmul(P, S), PT)
    assert sorted(inertia(congruent)) == sorted(inertia(S))


@settings(max_examples=60, deadline=None)
@given(square)
def test_negative_vector_exists_exactly_when_inertia_has_a_minus(pair):
    M, _ = pair
    S = [[M[i][j] + M[j][i] for j in range(len(M))] for i in range(len(M))]
    v = negative_vector(S)
    assert (v is not None) == (-1 in inertia(S))
    if v is not None:
        assert all_fractions(v)
        assert sum((v[i] * S[i][j] * v[j] for i in range(len(S)) for j in range(len(S))),
                   Fraction(0)) < 0
        negative = [i for i in range(len(S)) if S[i][i] < 0]
        if negative:  # the first negative diagonal entry's unit vector
            assert v == identity(len(S))[negative[0]]


def test_inertia_of_zero_diagonal():
    # no diagonal pivot: the off-diagonal congruence step must find one
    M = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    assert sorted(inertia(M)) == [-1, 1]


def inversions(seq):
    return sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq))
               if seq[i] > seq[j])


@given(st.lists(st.integers(-3, 3), max_size=7))
def test_perm_sign_counts_inversions(seq):
    if len(set(seq)) < len(seq):
        assert perm_sign(seq) == 0
    else:
        assert perm_sign(seq) == (-1) ** inversions(seq)


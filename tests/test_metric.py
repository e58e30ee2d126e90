"""Metric structure: signature, causal classes, duals, magnitudes, and
the value-keyed tables against the dense formulas they replace."""

import math
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from formcalc.exact import perm_sign
from formcalc.forms import PolyForm, PolyVectorField
from formcalc.metric import (
    CausalClass,
    Metric,
    TimeOrientation,
    classify,
    form_inner,
    form_magnitude,
    gamma_factor,
    metric_dual_vector,
    parse_metric,
)
from formcalc.parity import Parity
from formcalc.poly import Poly


def test_signature():
    assert Metric.euclidean(3).signature == (1, 1, 1)
    assert Metric.minkowski(4).signature == (-1, 1, 1, 1)
    g = Metric(((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))))
    assert sorted(g.signature) == [-1, 1]


def test_riemannian_lorentzian_flags():
    assert Metric.euclidean(2).is_riemannian
    assert Metric.minkowski(2).is_lorentzian
    assert not Metric.minkowski(2).is_riemannian


def test_degenerate_metric_rejected():
    with pytest.raises(ValueError):
        Metric.diag(Fraction(1), Fraction(0))


def test_classify_causal_character():
    g = Metric.minkowski(2)
    assert classify((Fraction(1), Fraction(0)), g) == (
        CausalClass.TIMELIKE, TimeOrientation.FUTURE)
    assert classify((Fraction(-2), Fraction(0)), g) == (
        CausalClass.TIMELIKE, TimeOrientation.PAST)
    assert classify((Fraction(0), Fraction(1)), g)[0] is CausalClass.SPACELIKE
    assert classify((Fraction(1), Fraction(1)), g)[0] is CausalClass.LIGHTLIKE


def test_lightlike_self_orthogonality():
    g = Metric.minkowski(4)
    null = (Fraction(1), Fraction(1), Fraction(0), Fraction(0))
    assert g.inner(null, null) == 0


def test_gamma_factor_point_six():
    g = Metric.minkowski(2)
    rest = (Fraction(1), Fraction(0))
    moving = (Fraction(5, 4), Fraction(3, 4))  # speed 0.6, unit timelike
    assert gamma_factor(rest, moving, g) == Fraction(5, 4)
    # symmetric in the two observers
    assert gamma_factor(moving, rest, g) == Fraction(5, 4)


def test_gamma_requires_unit_timelike():
    g = Metric.minkowski(2)
    with pytest.raises(ValueError):
        gamma_factor((Fraction(2), Fraction(0)), (Fraction(1), Fraction(0)), g)


def test_riemannian_gamma_is_cosine():
    g = Metric.euclidean(2)
    got = gamma_factor((Fraction(1), Fraction(0)),
                       (Fraction(3, 5), Fraction(4, 5)), g)
    assert math.isclose(got, 0.6, abs_tol=1e-12)


def test_form_magnitude_three_point_five():
    e3 = Metric.euclidean(3)
    w = PolyForm.basis(3, (0,)).scale(Fraction(7, 2))
    mag, sign = form_magnitude(w, e3)
    assert mag == 3.5 and sign == 1


def test_form_magnitude_lorentzian_sign():
    g = Metric.minkowski(2)
    dt = PolyForm.basis(2, (0,))
    mag, sign = form_magnitude(dt, g)
    assert sign == -1 and mag == 1.0



@pytest.mark.parametrize("form", [PolyForm.basis(2, (0,)), PolyForm.basis(4, (0,))],
                         ids=["form-2d", "form-4d"])
def test_form_magnitude_checks_dimension(form):
    with pytest.raises(ValueError, match=f"the form has dimension {form.ambient_dim}, "
                                         "the metric 3"):
        form_magnitude(form, Metric.euclidean(3))


def test_metric_dual_round_trip():
    g = Metric.minkowski(3)
    omega = {(0,): Fraction(2), (2,): Fraction(-5)}
    v = metric_dual_vector(omega, g)
    assert v == [Fraction(-2), Fraction(0), Fraction(-5)]


def test_volume_scale():
    g = Metric.diag(Fraction(4), Fraction(9))
    assert g.volume_scale() == Fraction(6)
    assert Metric.minkowski(2).volume_scale() == Fraction(1)
    irrational = Metric.diag(Fraction(2), Fraction(1))
    for _ in range(2):  # a cached result must not swallow the error
        with pytest.raises(ValueError):
            irrational.volume_scale()


def test_parse_metric():
    g = parse_metric("diag(-1,1,1,1)")
    assert g == Metric.minkowski(4)
    h = parse_metric("1 1/2; 1/2 1")
    assert h.matrix[0][1] == Fraction(1, 2)
    with pytest.raises(ValueError):
        parse_metric("diag(1,2); extra")


# -- classification without a negative diagonal entry -----------------------

NULL_DIAGONAL = Metric(((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))))


def test_classify_without_negative_diagonal_entry():
    # g(v, v) = 2 v0 v1; the timelike reference is (1, -1)
    g = NULL_DIAGONAL
    assert classify((1, Fraction(-1, 2)), g) == (CausalClass.TIMELIKE, TimeOrientation.FUTURE)
    assert classify((-1, Fraction(1, 2)), g) == (CausalClass.TIMELIKE, TimeOrientation.PAST)
    assert classify((1, 0), g) == (CausalClass.LIGHTLIKE, TimeOrientation.FUTURE)
    assert classify((0, 1), g) == (CausalClass.LIGHTLIKE, TimeOrientation.PAST)
    assert classify((1, 1), g) == (CausalClass.SPACELIKE, TimeOrientation.NONE)


def test_gamma_factor_without_negative_diagonal_entry():
    g = NULL_DIAGONAL
    u, v = (1, Fraction(-1, 2)), (2, Fraction(-1, 4))
    assert g.inner(u, u) == g.inner(v, v) == -1
    assert gamma_factor(u, v, g) == Fraction(5, 4)
    with pytest.raises(ValueError, match="time orientation"):
        gamma_factor(u, (-2, Fraction(1, 4)), g)


def test_opposite_timelike_vectors_get_opposite_orientations():
    # g_00 < 0 but g^00 > 0: e_1 is timelike with no time component, so the
    # orientation must come from g(v, e_0), not from the sign of v_0
    g = Metric(((Fraction(-1), Fraction(2)), (Fraction(2), Fraction(-1))))
    assert g.is_lorentzian and g.inner((0, 1), (0, 1)) == -1
    assert classify((0, 1), g) == (CausalClass.TIMELIKE, TimeOrientation.PAST)
    assert classify((0, -1), g) == (CausalClass.TIMELIKE, TimeOrientation.FUTURE)


# -- the tables against the dense formulas they replace -----------------------

def det(rows):
    """The Leibniz sum over permutations, independent of any elimination."""
    n = len(rows)
    return sum((perm_sign(s) * math.prod((rows[i][s[i]] for i in range(n)), start=Fraction(1))
                for s in permutations(range(n))), Fraction(0))


def reference_inverse(matrix):
    """g^-1 as the adjugate over det (Cramer's rule), independent of the
    congruence the tables read it from."""
    n = len(matrix)

    def cofactor(i, j):
        minor = [row[:j] + row[j + 1:] for k, row in enumerate(matrix) if k != i]
        return (-1) ** (i + j) * det(minor)

    d = det(matrix)
    return [[cofactor(j, i) / d for j in range(n)] for i in range(n)]


def reference_inner(g, u, v):
    n = g.dim
    return sum(g.matrix[i][j] * u[i] * v[j] for i in range(n) for j in range(n))


def reference_form_inner(a_terms, b_terms, g):
    ginv = reference_inverse(g.matrix)
    total = Fraction(0)
    for idx_a, ca in a_terms.items():
        for idx_b, cb in b_terms.items():
            if len(idx_a) != len(idx_b):
                raise ValueError("degree mismatch")
            total += ca * cb * det([[ginv[i][j] for j in idx_b] for i in idx_a])
    return total


def reference_dual_vector(omega_terms, g):
    ginv, n = reference_inverse(g.matrix), g.dim
    co = [omega_terms.get((i,), Fraction(0)) for i in range(n)]
    return [sum(ginv[i][j] * co[j] for j in range(n)) for i in range(n)]


def _scaled_terms(out, coeff, factor):
    for e, c in coeff.terms.items():
        out[e] = out.get(e, Fraction(0)) + factor * c


def reference_flat(V, g):
    n = V.ambient_dim
    terms = {}
    for i in range(n):
        out = {}
        for j in range(n):
            _scaled_terms(out, V.components[j], g.matrix[i][j])
        terms[(i,)] = Poly(n, out)
    return PolyForm(n, 1, terms, V.parity)


def reference_hodge(w, g):
    """One minor of g^-1 per (term, index set K), as the Hodge star was
    first written."""
    n, p = w.ambient_dim, w.degree
    ginv, scale = reference_inverse(g.matrix), g.volume_scale()
    full = tuple(range(n))
    out = {}
    for idx, coeff in w.terms.items():
        for K in combinations(full, p):
            d = det([[ginv[i][j] for j in K] for i in idx])
            if d == 0:
                continue
            comp = tuple(i for i in full if i not in K)
            _scaled_terms(out.setdefault(comp, {}), coeff, scale * d * perm_sign(K + comp))
    return PolyForm(n, n - p, {C: Poly(n, t) for C, t in out.items()}, w.parity.flip())


small = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
nonzero = small.filter(bool)


@st.composite
def table_metrics(draw, n):
    """A^T D A for a unit lower-triangular A (the identity half the time,
    so that g is diagonal) and any signs in D; sqrt|det g| = sqrt|prod D|,
    rational for most draws of D."""
    D = [draw(st.sampled_from([-1, 1, 4, Fraction(-9, 4), Fraction(1, 4), 2, -3]))
         for _ in range(n)]
    A = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    if draw(st.booleans()):
        for i in range(n):
            for j in range(i):
                A[i][j] = draw(small)
    return Metric(tuple(tuple(sum(A[k][i] * D[k] * A[k][j] for k in range(n))
                              for j in range(n)) for i in range(n)))


@st.composite
def table_polys(draw, n):
    exponents = st.tuples(*[st.integers(0, 2)] * n)
    return Poly(n, draw(st.dictionaries(exponents, nonzero, min_size=1, max_size=3)))


@st.composite
def table_cases(draw):
    n = draw(st.integers(2, 5))
    return n, draw(table_metrics(n))


def constant_terms(draw, n, p):
    sets = list(combinations(range(n), p))
    return draw(st.dictionaries(st.sampled_from(sets), nonzero, max_size=4))


@settings(max_examples=100, deadline=None)
@given(table_cases(), st.data())
def test_inner_dual_and_form_inner_equal_the_dense_formulas(case, data):
    n, g = case
    u = data.draw(st.lists(small, min_size=n, max_size=n))
    v = data.draw(st.lists(small, min_size=n, max_size=n))
    got = g.inner(u, v)
    assert got == reference_inner(g, u, v) and type(got) is Fraction

    omega = constant_terms(data.draw, n, 1)
    got = metric_dual_vector(omega, g)
    assert got == reference_dual_vector(omega, g)
    assert all(type(x) is Fraction for x in got)

    p = data.draw(st.integers(0, n))
    a, b = constant_terms(data.draw, n, p), constant_terms(data.draw, n, p)
    got = form_inner(a, b, g)
    assert got == reference_form_inner(a, b, g) and type(got) is Fraction


@settings(max_examples=100, deadline=None)
@given(table_cases(), st.data())
def test_hodge_and_flat_equal_the_dense_formulas(case, data):
    n, g = case
    p = data.draw(st.integers(0, n))
    parity = data.draw(st.sampled_from(list(Parity)))
    sets = list(combinations(range(n), p))
    terms = data.draw(st.dictionaries(st.sampled_from(sets), table_polys(n), max_size=3))
    w = PolyForm(n, p, terms, parity)
    try:
        expected = reference_hodge(w, g)
    except ValueError:
        with pytest.raises(ValueError, match="irrational"):
            w.hodge(g)
    else:
        got = w.hodge(g)
        assert got == expected and got.parity is parity.flip()
        assert all(type(c) is Fraction for P in got.terms.values() for c in P.terms.values())

    V = PolyVectorField(n, tuple(data.draw(table_polys(n)) for _ in range(n)), parity)
    got = V.flat(g)
    assert got == reference_flat(V, g)
    assert all(type(c) is Fraction for P in got.terms.values() for c in P.terms.values())


@st.composite
def symmetric_matrices(draw):
    """Any symmetric rational matrix, n = 1-5; zeros are drawn often, so
    zero diagonals and singular matrices come up."""
    n = draw(st.integers(1, 5))
    entry = st.one_of(st.just(Fraction(0)), small)
    upper = {(i, j): draw(entry) for i in range(n) for j in range(i, n)}
    return tuple(tuple(upper[min(i, j), max(i, j)] for j in range(n)) for i in range(n))


def matmul(A, B):
    return [[sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in zip(*B)]
            for row in A]


@settings(max_examples=150, deadline=None)
@given(symmetric_matrices())
def test_congruence_gives_a_two_sided_inverse_and_det(A):
    assume(det(A) != 0)
    tables = Metric(A).tables
    n = len(A)
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    assert matmul(A, tables.inverse) == identity and matmul(tables.inverse, A) == identity
    assert all(type(v) is Fraction for row in tables.inverse for v in row)
    assert tables.det == det(A) and type(tables.det) is Fraction


@pytest.mark.parametrize("idx", [(1, 0), (0, 0), (0, 3), (-1, 2)])
def test_form_inner_refuses_bad_index_sets(idx):
    with pytest.raises(ValueError, match="strictly increasing"):
        form_inner({(0, 1): Fraction(1)}, {idx: Fraction(1)}, Metric.euclidean(3))


def test_equal_metrics_share_one_table():
    g, h = Metric.minkowski(4), parse_metric("diag(-1,1,1,1)")
    assert g is not h and g.tables is h.tables
    # one value however its entries are spelled
    same = [Metric(((Fraction(2, 4), 1), (1, 3))), parse_metric("1/2 1; 1 3"),
            Metric(((Fraction(1, 2), Fraction(3, 3)), (True, 3)))]
    assert all(k.tables is same[0].tables for k in same)
    assert same[0].tables.matrix == ((Fraction(1, 2), 1), (1, 3))
    assert g.tables.hodge_image(0b101) is h.tables.hodge_image(0b101)
    assert Metric.euclidean(4).tables is not g.tables


def test_diagonal_hodge_images_are_signed_products():
    g = Metric.diag(-1, 4, 1)
    # *dx1 = sqrt|det g| g^11 sgn(1,0,2) dx0^dx2 = 2 * 1/4 * -1; blades are bitmasks
    assert g.tables.hodge_image(0b010) == ((0b101, Fraction(-1, 2)),)
    # <dx0^dx1, dx0^dx1> = g^00 g^11 = -1 * 1/4
    dx01 = {(0, 1): Fraction(1)}
    assert form_inner(dx01, dx01, g) == Fraction(-1, 4)

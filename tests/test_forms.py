"""Polynomial differential forms: algebra, derivatives, Hodge, identities."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import formcalc
from formcalc.cochain import Cochain
from formcalc.forms import (
    PolyForm,
    PolyVectorField,
    form_from_text,
    form_to_text,
)
from formcalc.metric import Metric
from formcalc.parity import Parity
from formcalc.poly import MAX_EXPONENT, Poly, parse_poly
from formcalc.simplicial import MeshFormatError


def random_poly(rng, n, max_degree=2):
    p = Poly.zero(n)
    for _ in range(rng.randint(1, 3)):
        expo = tuple(rng.randint(0, max_degree) for _ in range(n))
        coeff = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        p = p + Poly(n, {expo: coeff})
    return p


def random_form(rng, n, p, parity=Parity.STRAIGHT):
    form = PolyForm.zero(n, p, parity)
    indices = list(range(n))
    for _ in range(rng.randint(1, 3)):
        idx = tuple(sorted(rng.sample(indices, p)))
        form = form + PolyForm.basis(n, idx, parity).scale(random_poly(rng, n))
    return form


def random_field(rng, n):
    return PolyVectorField(n, tuple(random_poly(rng, n) for _ in range(n)))


def test_wedge_basis_sign():
    dx, dy = PolyForm.basis(2, (0,)), PolyForm.basis(2, (1,))
    assert dx.wedge(dy) == PolyForm.basis(2, (0, 1))
    assert dy.wedge(dx) == -PolyForm.basis(2, (0, 1))
    assert dx.wedge(dx).is_zero()


def test_parity_multiplication_table():
    S, T = Parity.STRAIGHT, Parity.TWISTED
    assert S * S is S
    assert T * T is S
    assert S * T is T
    assert T * S is T
    assert S.flip() is T and T.flip() is S


def test_wedge_parity_multiplies():
    a = PolyForm.basis(3, (0,), Parity.TWISTED)
    b = PolyForm.basis(3, (1,), Parity.TWISTED)
    c = PolyForm.basis(3, (2,), Parity.STRAIGHT)
    assert a.wedge(b).parity is Parity.STRAIGHT
    assert a.wedge(c).parity is Parity.TWISTED


def test_wedge_graded_antisymmetry_randomized():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(2, 5)
        p = rng.randint(0, n)
        q = rng.randint(0, n - p)
        a, b = random_form(rng, n, p), random_form(rng, n, q)
        sign = (-1) ** (p * q)
        assert a.wedge(b) == b.wedge(a).scale(sign)


def test_d_squared_zero_randomized():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(1, 5)
        p = rng.randint(0, n - 1)
        w = random_form(rng, n, p)
        assert w.d().d().is_zero()


def test_leibniz_rule():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(2, 4)
        p = rng.randint(0, n - 1)
        q = rng.randint(0, n - 1 - p) if p < n - 1 else 0
        a, b = random_form(rng, n, p), random_form(rng, n, q)
        lhs = a.wedge(b).d()
        rhs = a.d().wedge(b) + a.wedge(b.d()).scale((-1) ** p)
        assert lhs == rhs


def test_pullback_commutes_with_d():
    rng = random.Random(17)
    for _ in range(30):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        p = rng.randint(0, min(n - 1, m))
        w = random_form(rng, n, p)
        phi = [random_poly(rng, m) for _ in range(n)]
        assert w.d().pullback(phi) == w.pullback(phi).d()


def test_interior_product_antiderivation():
    rng = random.Random(19)
    for _ in range(40):
        n = rng.randint(2, 4)
        p = rng.randint(1, n - 1)
        q = rng.randint(1, n - p)
        a, b = random_form(rng, n, p), random_form(rng, n, q)
        V = random_field(rng, n)
        lhs = a.wedge(b).interior(V)
        rhs = a.interior(V).wedge(b) + a.wedge(b.interior(V)).scale((-1) ** p)
        assert lhs == rhs
        assert a.interior(V).interior(V).is_zero()


def test_interior_checks_dimension_at_every_degree():
    """A 0-form contracts to zero, but only with a field on its own space."""
    V = PolyVectorField.constant([1, 0])
    for w in (PolyForm.scalar(3, 1), PolyForm.basis(3, (0,))):
        with pytest.raises(ValueError, match="ambient dimension mismatch"):
            w.interior(V)
    assert PolyForm.scalar(2, 1).interior(V) == PolyForm.zero(2, 0)


def test_flat_checks_dimension():
    # a larger metric's top-left block used to be read silently
    with pytest.raises(ValueError, match="the vector field has dimension 2, the metric 3"):
        PolyVectorField.constant([1, 2]).flat(Metric.euclidean(3))


def test_exact_modules_import_no_numpy():
    """The exact layer needs only the standard library: importing it in a
    fresh interpreter loads neither numpy nor SciPy."""
    code = ("import sys\n"
            "import formcalc, formcalc.exact, formcalc.poly, formcalc.parity\n"
            "import formcalc.metric, formcalc.forms\n"
            "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))\n")
    src = os.path.dirname(os.path.dirname(formcalc.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_hodge_euclidean_examples():
    e3 = Metric.euclidean(3)
    dx, dy, dz = (PolyForm.basis(3, (i,)) for i in range(3))
    assert dx.hodge(e3) == PolyForm.basis(3, (1, 2), Parity.TWISTED)
    assert dy.hodge(e3) == -PolyForm.basis(3, (0, 2), Parity.TWISTED)
    assert dz.hodge(e3) == PolyForm.basis(3, (0, 1), Parity.TWISTED)
    one = PolyForm.scalar(3, 1)
    assert one.hodge(e3) == PolyForm.basis(3, (0, 1, 2), Parity.TWISTED)


def test_hodge_minkowski_examples():
    g = Metric.minkowski(4)
    dt_dx = PolyForm.basis(4, (0, 1))
    assert dt_dx.hodge(g) == -PolyForm.basis(4, (2, 3), Parity.TWISTED)
    # double dual on 2-forms in Lorentzian 4-space is -1
    assert dt_dx.hodge(g).hodge(g) == -dt_dx


def test_hodge_double_dual_sign_randomized():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(1, 5)
        p = rng.randint(0, n)
        g = Metric.euclidean(n) if rng.random() < 0.5 else Metric.minkowski(n)
        det_sign = 1 if g.det() > 0 else -1
        w = random_form(rng, n, p)
        expected = w.scale(Fraction((-1) ** (p * (n - p)) * det_sign))
        assert w.hodge(g).hodge(g) == expected


def test_hodge_flips_parity():
    g = Metric.euclidean(2)
    w = PolyForm.basis(2, (0,), Parity.TWISTED)
    assert w.hodge(g).parity is Parity.STRAIGHT


def test_scalar_degree_overflow_is_zero():
    a = PolyForm.basis(2, (0, 1))
    assert a.wedge(a).is_zero()
    top = PolyForm.basis(3, (0, 1, 2))
    assert top.d().is_zero()


def test_vector_pairing_and_directional_derivative():
    V = PolyVectorField.constant((Fraction(1), Fraction(2)))
    w = PolyForm.basis(2, (0,)).scale(Fraction(3))
    assert w.pair(V) == Poly.constant(2, Fraction(3))


def test_flat_sharp_round_trip():
    g = Metric.minkowski(3)
    V = PolyVectorField.constant((Fraction(2), Fraction(-1), Fraction(4)))
    assert V.flat(g).sharp(g) == V


def test_integrability():
    """Frobenius: a 1-form w is integrable when w ^ dw = 0."""
    # x dy in 2-space: w ^ dw is a 3-form in 2-space, so it vanishes
    w2 = PolyForm.basis(2, (1,)).scale(parse_poly("x0", 2))
    assert w2.wedge(w2.d()).is_zero()
    # classic non-integrable contact form dz + x dy in 3-space
    contact = PolyForm.basis(3, (2,)) + PolyForm.basis(3, (1,)).scale(
        parse_poly("x0", 3))
    assert not contact.wedge(contact.d()).is_zero()
    # closed forms are always integrable
    dx = parse_form_dx()
    assert dx.wedge(dx.d()).is_zero()


def parse_form_dx():
    return form_from_text("n=3 p=1 parity=straight; [0]: 1")


def test_text_round_trip():
    rng = random.Random(29)
    for _ in range(20):
        n = rng.randint(1, 4)
        p = rng.randint(0, n)
        parity = Parity.TWISTED if rng.random() < 0.5 else Parity.STRAIGHT
        w = random_form(rng, n, p, parity)
        assert form_from_text(form_to_text(w)) == w


def test_degree_mismatch_rejected():
    with pytest.raises(ValueError):
        PolyForm.basis(2, (0,)) + PolyForm.basis(2, (0, 1))
    with pytest.raises(ValueError):
        PolyForm.basis(2, (0,)) + PolyForm.basis(2, (0,), Parity.TWISTED)


@pytest.mark.parametrize("text", ["x-1", "x7", "2*x0*x3^2"])
def test_parse_poly_rejects_variable_out_of_range(text):
    with pytest.raises(ValueError, match="outside x0..x2"):
        parse_poly(text, 3)


def test_form_text_rejects_repeated_index_set():
    with pytest.raises(MeshFormatError, match=r"index set \[0\] given twice"):
        form_from_text("n=2 p=1; [0]: 1; [0]: 2")


@pytest.mark.parametrize("build, value", [
    (lambda: Poly(2, {(0, 0): 0.1}), "0.1"),
    (lambda: PolyForm.scalar(2, 0.5), "0.5"),
    (lambda: Cochain(0, (0.5,), mode="exact"), "0.5"),
    (lambda: Metric.diag(0.5, 1), "0.5"),
], ids=["poly", "form", "cochain", "metric"])
def test_exact_mode_rejects_floats(build, value):
    with pytest.raises(TypeError, match=f"float {value} as an exact value"):
        build()


@pytest.mark.parametrize("build", [
    lambda: parse_poly("x0^-1", 2),
    lambda: PolyForm(2, 1, {(1, 0): 1}),
    lambda: PolyForm(2, 2, {(1, 0): 1}),
    lambda: Poly(2, {(1,): 1}),
], ids=["negative-power", "wrong-size-index", "decreasing-index", "short-exponents"])
def test_checked_constructors_reject_bad_input(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("build", [
    lambda: Poly(1, {(1.5,): 1}),
    lambda: Poly(1, {("2",): 1}),
    lambda: Poly(2.5),
], ids=["float-exponent", "string-exponent", "float-nvars"])
def test_poly_refuses_non_integer_exponents_and_nvars(build):
    # int() used to truncate these silently: (1.5,) read as x0, ("2",) as x0^2
    with pytest.raises(TypeError):
        build()


# -- the trusted internal results, against the checked constructors ---------

fractions = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3))


@st.composite
def polys(draw, n, min_size=0):
    exponents = st.tuples(*[st.integers(0, 2)] * n)
    return Poly(n, draw(st.dictionaries(exponents, fractions, min_size=min_size, max_size=3)))


@st.composite
def forms(draw, n, p=None, parity=None):
    p = draw(st.integers(0, n)) if p is None else p
    index_sets = st.sampled_from(list(combinations(range(n), p)))
    parity = draw(st.sampled_from(list(Parity))) if parity is None else parity
    terms = draw(st.dictionaries(index_sets, polys(n), min_size=1, max_size=3))
    return PolyForm(n, p, terms, parity)


@st.composite
def fields(draw, n):
    return PolyVectorField(n, tuple(draw(polys(n, min_size=1)) for _ in range(n)),
                           draw(st.sampled_from(list(Parity))))


@st.composite
def metrics(draw, n):
    """A^T D A for a shear A and diagonal D of signed rational squares, so
    that sqrt|det g| is rational."""
    D = [draw(st.sampled_from([-1, 1, 4, Fraction(-9, 4)])) for _ in range(n)]
    A = [[int(i == j) for j in range(n)] for i in range(n)]
    if n > 1:
        A[0][1] = draw(fractions)
    return Metric(tuple(tuple(sum(A[k][i] * D[k] * A[k][j] for k in range(n))
                              for j in range(n)) for i in range(n)))


def assert_canonical_poly(P):
    assert Poly(P.nvars, P.terms) == P
    for exps, c in P.terms.items():
        assert type(c) is Fraction and c != 0
        assert type(exps) is tuple and len(exps) == P.nvars
        assert all(type(e) is int and e >= 0 for e in exps)


def assert_canonical_form(w):
    assert PolyForm(w.ambient_dim, w.degree, w.terms, w.parity) == w
    for idx, c in w.terms.items():
        assert type(idx) is tuple and len(idx) == w.degree
        assert list(idx) == sorted(set(idx)) and all(0 <= i < w.ambient_dim for i in idx)
        assert type(c) is Poly and c.nvars == w.ambient_dim and not c.is_zero()
        assert_canonical_poly(c)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_trusted_results_are_canonical(data):
    n, m = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))
    P, Q, r = data.draw(polys(n)), data.draw(polys(n)), data.draw(fractions)
    i = data.draw(st.integers(0, n - 1))
    phi = [data.draw(polys(m)) for _ in range(n)]
    for R in (P + Q, P - Q, -P, P - P, P * Q, P * r, r * P, P.diff(i), P.subs(phi)):
        assert_canonical_poly(R)

    a = data.draw(forms(n))
    b = data.draw(forms(n, a.degree, a.parity))
    c = data.draw(forms(n))
    V, g = data.draw(fields(n)), data.draw(metrics(n))
    results = (a + b, a - b, -a, a - a, a.scale(P), a.scale(r), a.wedge(c), c.wedge(a),
               a.d(), a.interior(V), a.pullback(phi), a.hodge(g), V.flat(g))
    for w in results:
        assert_canonical_form(w)
    # identities that pin the signs the trusted path builds
    assert a.d().d().is_zero()
    assert a.interior(V).interior(V).is_zero()
    assert a.wedge(c) == c.wedge(a).scale((-1) ** (a.degree * c.degree))


# -- the packed integer kernel, against the tuple/Fraction arithmetic --------
#
# The references compute on plain dicts {exponent tuple: nonzero Fraction}:
# the direct tuple/Fraction arithmetic that the packed monomials and the
# integer numerators over one denominator must reproduce exactly.

def ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + c
    return {e: c for e, c in out.items() if c}


def ref_neg(a):
    return {e: -c for e, c in a.items()}


def ref_mul(a, b):
    """Every pair of terms multiplied, as ``Poly.__mul__`` was first written."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


def ref_diff(a, i):
    return {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i] for e, c in a.items() if e[i]}


def ref_subs(a, phi, m):
    """Each term a constant multiplied by its replacements one factor at a time."""
    total = {}
    for exps, c in a.items():
        term = {(0,) * m: c}
        for r, k in zip(phi, exps):
            for _ in range(k):
                term = ref_mul(term, r)
        total = ref_add(total, term)
    return total


def ref_eval(a, point):
    total = Fraction(0)
    for exps, c in a.items():
        for x, k in zip(point, exps):
            c *= x**k
        total += c
    return total


def ref_str(a):
    parts = []
    for exps in sorted(a, key=lambda e: (sum(e), e)):
        c = a[exps]
        factors = [f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(exps) if e]
        if not factors:
            parts.append(str(c))
        elif c in (1, -1):
            parts.append(("-" if c < 0 else "") + "*".join(factors))
        else:
            parts.append(str(c) + "*" + "*".join(factors))
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def reference_product(P, Q):
    return Poly(P.nvars, ref_mul(P.terms, Q.terms))


def reference_subs(P, phi):
    m = phi[0].nvars
    return Poly(m, ref_subs(P.terms, [r.terms for r in phi], m))


wide_fractions = st.fractions(-30, 30, max_denominator=12)


@st.composite
def term_dicts(draw, n, max_exponent=3, max_size=4):
    exponents = st.tuples(*[st.integers(0, max_exponent)] * n)
    return draw(st.dictionaries(exponents, wide_fractions.filter(bool), max_size=max_size))


def assert_matches(P, terms):
    """``P`` shows exactly ``terms``, prints as the reference prints them,
    and equals and hashes like every other polynomial of that value."""
    assert dict(P.terms) == terms
    assert all(type(c) is Fraction for c in P.terms.values())
    assert str(P) == ref_str(terms)
    Q = Poly(P.nvars, terms)
    assert P == Q and hash(P) == hash(Q)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_packed_kernel_equals_the_tuple_fraction_reference(data):
    n, m = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))
    a, b = data.draw(term_dicts(n)), data.draw(term_dicts(n))
    r = data.draw(wide_fractions)
    P, Q = Poly(n, a), Poly(n, b)
    assert_matches(P, a)
    assert_matches(P + Q, ref_add(a, b))
    assert_matches(P - Q, ref_add(a, ref_neg(b)))
    assert_matches(-P, ref_neg(a))
    assert_matches(P * Q, ref_mul(a, b))
    assert_matches(P * r, ref_mul(a, {(0,) * n: r} if r else {}))
    for i in range(n):
        assert_matches(P.diff(i), ref_diff(a, i))
    phi = [data.draw(term_dicts(m, 2, 3)) for _ in range(n)]
    assert_matches(P.subs([Poly(m, t) for t in phi]), ref_subs(a, phi, m))
    point = data.draw(st.lists(wide_fractions, min_size=n, max_size=n))
    got = P.eval(point)
    assert got == ref_eval(a, point) and type(got) is Fraction
    # one value built along two paths: equal, with equal hashes
    halves = [Poly(n, {e: c / 2 for e, c in a.items()})] * 2
    assert sum(halves, Poly.zero(n)) == P and hash(sum(halves, Poly.zero(n))) == hash(P)
    assert (P * Q == Q * P) and hash(P * Q) == hash(Q * P)


def test_terms_view_is_read_only():
    P = parse_poly("1/2*x0 + 3", 2)
    with pytest.raises(TypeError):
        P.terms[(0, 0)] = Fraction(1)
    assert P.terms == {(1, 0): Fraction(1, 2), (0, 0): Fraction(3)}


def test_exponents_past_the_field_are_refused():
    assert Poly(2, {(MAX_EXPONENT, 0): 1}).terms == {(MAX_EXPONENT, 0): 1}
    with pytest.raises(ValueError, match=f"outside 0..{MAX_EXPONENT}"):
        Poly(2, {(0, MAX_EXPONENT + 1): 1})
    for text in (f"x0^{MAX_EXPONENT + 1}", "x1^100000000000", "x0^20000*x0^20000"):
        with pytest.raises(ValueError, match=f"outside 0..{MAX_EXPONENT}"):
            parse_poly(text, 2)


def test_products_and_powers_past_the_field_raise():
    """A field never wraps into its neighbour: the result is refused."""
    fits = Poly(2, {(16383, 0): 1}) * Poly(2, {(16384, 0): 1})
    assert fits.terms == {(MAX_EXPONENT, 0): 1}
    for P in (Poly(2, {(0, 20000): 1}), Poly(2, {(20000, 1): 1, (0, 0): 3})):
        with pytest.raises(ValueError, match=f"exceed {MAX_EXPONENT}"):
            P * P
    square = Poly(1, {(2,): 1})
    with pytest.raises(ValueError, match=f"exceed {MAX_EXPONENT}"):
        square.subs([Poly(1, {(20000,): 1})])


def test_pullback_builds_each_power_of_phi_once(monkeypatch):
    """A second term with the same power of x0 costs only its own wedge
    product: the powers of phi are built once per pullback."""
    calls = []
    mul = Poly.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(Poly, "__mul__", counted)
    monkeypatch.setattr(Poly, "__rmul__", counted)
    phi = [parse_poly("1 + x0", 1), parse_poly("2*x0", 1)]
    one = form_from_text("n=2 p=1; [0]: x0^3")
    two = form_from_text("n=2 p=1; [0]: x0^3; [1]: 5*x0^3")

    def muls(w):
        calls.clear()
        w.pullback(phi)
        return len(calls)

    assert muls(two) == muls(one) + 1
    cube = parse_poly("1 + 3*x0 + 3*x0^2 + x0^3", 1)
    assert two.pullback(phi) == form_from_text(f"n=1 p=1; [0]: {cube * 11}")


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_scalar_fast_paths_equal_the_term_by_term_products(data):
    n, m = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))
    P, Q = data.draw(polys(n)), data.draw(polys(n))
    r = data.draw(st.sampled_from([Fraction(1), Fraction(-1), Fraction(0)]) | fractions)
    R = Poly.constant(n, r)
    for got, expected in ((P * Q, reference_product(P, Q)), (P * R, reference_product(P, R)),
                          (R * P, reference_product(R, P)), (P * r, reference_product(P, R)),
                          (r * P, reference_product(R, P))):
        assert got == expected
        assert all(type(c) is Fraction for c in got.terms.values())
    phi = [data.draw(polys(m)) for _ in range(n)]
    assert P.subs(phi) == reference_subs(P, phi)

    a = data.draw(forms(n))
    scaled = {idx: reference_product(c, R) for idx, c in a.terms.items()}
    assert a.scale(r) == a.scale(R) == PolyForm(n, a.degree, scaled, a.parity)


def test_subs_reuses_powers_correctly_past_the_square():
    P = parse_poly("x0^4*x1^3 + 2*x0^3 - x1^5 + 1/2", 2)
    phi = [parse_poly("1 + x0 - 2*x1", 2), parse_poly("x0*x1 - 1/3", 2)]
    assert P.subs(phi) == reference_subs(P, phi)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(forms))
def test_text_round_trip_property(w):
    assert form_from_text(form_to_text(w)) == w

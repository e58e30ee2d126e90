"""Metric structure: signature, causal classes, duals, magnitudes."""

import math
from fractions import Fraction

import pytest

from formcalc.exact import inverse
from formcalc.forms import PolyForm
from formcalc.metric import (
    CausalClass,
    Metric,
    TimeOrientation,
    classify,
    form_magnitude,
    gamma_factor,
    induced_metric,
    metric_dual_vector,
    orthogonal_complement,
    parse_metric,
)


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


def test_orthogonal_complement():
    g = Metric.minkowski(2)
    basis = orthogonal_complement((Fraction(1), Fraction(0)), g)
    assert len(basis) == 1
    assert g.inner(basis[0], (Fraction(1), Fraction(0))) == 0
    # lightlike vectors are inside their own complement
    null = (Fraction(1), Fraction(1))
    comp = orthogonal_complement(null, g)
    assert any(g.inner(b, null) == 0 for b in comp)


def test_induced_metric_on_hyperboloid_tangent():
    # tangent line to the unit hyperboloid at (5/4, 3/4) is spacelike
    g = Metric.minkowski(2)
    jac = [[Fraction(3, 4)], [Fraction(5, 4)]]
    induced = induced_metric(jac, g)
    assert induced.matrix[0][0] == Fraction(1)
    assert induced.is_riemannian


def test_volume_scale():
    g = Metric.diag(Fraction(4), Fraction(9))
    assert g.volume_scale() == Fraction(6)
    assert Metric.minkowski(2).volume_scale() == Fraction(1)
    irrational = Metric.diag(Fraction(2), Fraction(1))
    for _ in range(2):  # a cached result must not swallow the error
        with pytest.raises(ValueError):
            irrational.volume_scale()


def test_inverse_matrix_is_cached_tuples():
    g = Metric.diag(-1, 4, 1, 1)
    assert g.inverse_matrix == tuple(map(tuple, inverse(g.matrix)))
    assert g.inverse_matrix is g.inverse_matrix


def test_parse_metric():
    g = parse_metric("diag(-1,1,1,1)")
    assert g == Metric.minkowski(4)
    h = parse_metric("1 1/2; 1/2 1")
    assert h.matrix[0][1] == Fraction(1, 2)
    with pytest.raises(ValueError):
        parse_metric("diag(1,2); extra")

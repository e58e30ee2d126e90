"""Orientation algebra: parity, frames, concatenation, twisting."""

from fractions import Fraction

import pytest

from formcalc import meshes
from formcalc.orient import (
    OrientationFrame,
    RelativeSign,
    concat,
    induced_boundary_sign,
    relative_sign,
    untwist,
)
from formcalc.parity import Parity


def test_parity_multiplication_table():
    S, T = Parity.STRAIGHT, Parity.TWISTED
    assert S * S is S
    assert T * T is S
    assert S * T is T
    assert T * S is T
    assert S.flip() is T and T.flip() is S


def test_relative_sign_of_plane_frames():
    e1 = (Fraction(1), Fraction(0))
    e2 = (Fraction(0), Fraction(1))
    ccw = OrientationFrame((e1, e2))
    cw = OrientationFrame((e2, e1))
    assert relative_sign(ccw, ccw) is RelativeSign.PLUS
    assert relative_sign(ccw, cw) is RelativeSign.MINUS


def test_concatenation_order_matters():
    x = OrientationFrame(((1, 0),))
    y = OrientationFrame(((0, 1),))
    assert concat(x, y).sign() is RelativeSign.PLUS
    assert concat(y, x).sign() is RelativeSign.MINUS


def test_degenerate_concatenation_rejected():
    x = OrientationFrame(((1, 0),))
    with pytest.raises(ValueError, match="degenerate"):
        concat(x, x)


def test_untwist_external_first_convention():
    # line y=0 inside the counterclockwise-oriented plane: crossing direction
    # +y followed by tangent +x agrees with (y, x) order, which is clockwise.
    ccw = OrientationFrame(((1, 0), (0, 1)))
    tangent = OrientationFrame(((1, 0),))
    external_up = OrientationFrame(((0, 1),))
    assert untwist(external_up, tangent, ccw) is RelativeSign.MINUS
    assert untwist(external_up, tangent,
                   OrientationFrame(((0, 1), (1, 0)))) is RelativeSign.PLUS


def test_untwist_flips_with_manifold_orientation():
    plus = OrientationFrame(((1, 0), (0, 1)))
    minus = OrientationFrame(((0, 1), (1, 0)))
    tangent = OrientationFrame(((2, 1),))
    external = OrientationFrame(((0, 1),))
    assert untwist(external, tangent, plus) is -untwist(external, tangent, minus)


def test_frame_validation():
    with pytest.raises(ValueError):
        OrientationFrame(((1, 0), (2, 0)))
    with pytest.raises(ValueError):
        OrientationFrame(((1, 0), (0, 1), (1, 1)))


def test_induced_boundary_sign_matches_matrix():
    cx = meshes.single_triangle()
    d2 = cx.boundary_matrix(2)
    cell = cx.simplices[2][0]
    for i, facet in enumerate(cx.simplices[1]):
        assert induced_boundary_sign(cell, facet).value == d2[i, 0]
    # reversing the stored facet order flips the sign
    assert (induced_boundary_sign((0, 1, 2), (1, 2)).value
            == -induced_boundary_sign((0, 1, 2), (2, 1)).value)


def test_induced_boundary_sign_rejects_non_facet():
    with pytest.raises(ValueError):
        induced_boundary_sign((0, 1, 2), (3, 4))

"""Betti numbers, torsion, closed-versus-exact classification."""

import math
import random
from fractions import Fraction

from formcalc import meshes
from formcalc.cochain import Cochain, coboundary, integrate
from formcalc.cohomology import (
    betti_numbers,
    is_closed,
    is_exact,
    smith_normal_form,
    winding_cochain,
)
from formcalc.parity import Parity
from formcalc.simplicial import Chain, build_complex


def test_smith_normal_form_basics():
    assert smith_normal_form([[2, 4], [4, 8]]) == [2]
    assert smith_normal_form([[1, 0], [0, 1]]) == [1, 1]
    assert smith_normal_form([[0, 0], [0, 0]]) == []
    # divisibility chain
    factors = smith_normal_form([[2, 0, 0], [0, 3, 0], [0, 0, 4]])
    for a, b in zip(factors, factors[1:]):
        assert b % a == 0


def test_betti_tables():
    expected = {
        meshes.annulus: (1, 1, 0),
        meshes.torus: (1, 2, 1),
        meshes.sphere_octahedron: (1, 0, 1),
        meshes.disk: (1, 0, 0),
    }
    for builder, betti in expected.items():
        report = betti_numbers(builder())
        assert report.betti == betti
        assert report.orientable


def test_mobius_report():
    report = betti_numbers(meshes.mobius_minimal())
    assert not report.orientable
    assert report.betti == (1, 1, 0)


def test_euler_identity():
    for builder in (meshes.annulus, meshes.torus, meshes.sphere_octahedron,
                    meshes.disk, meshes.mobius_minimal):
        cx = builder()
        report = betti_numbers(cx)
        alt_sum = sum((-1) ** k * b for k, b in enumerate(report.betti))
        assert alt_sum == cx.euler_characteristic()


def test_betti_invariant_under_refinement():
    cx = meshes.annulus()
    assert betti_numbers(meshes.uniform_refine(cx)).betti \
        == betti_numbers(cx).betti


def test_winding_cochain_closed_not_exact():
    cx = meshes.annulus()
    for _ in range(3):  # the annulus, then refined once and twice
        w = winding_cochain(cx)
        assert is_closed(w, cx)
        assert not is_exact(w, cx)["exact"]
        cx = meshes.uniform_refine(cx)


def test_rp2_torsion():
    # minimal six-vertex real projective plane
    triangles = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
                 (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3)]
    verts = [(math.cos(1.1 * i), math.sin(1.1 * i), 0.1 * i) for i in range(6)]
    report = betti_numbers(build_complex(verts, triangles))
    assert report.betti == (1, 0, 0)
    assert report.torsion == ((), (2,), ())
    assert report.orientable is False


def test_winding_integrals():
    cx = meshes.annulus()
    w = winding_cochain(cx)

    def loop(vertices):
        coeffs = {}
        for a, b in zip(vertices, vertices[1:] + vertices[:1]):
            idx = cx.simplex_index(tuple(sorted((a, b))), 1)
            sign = 1 if a < b else -1
            coeffs[idx] = coeffs.get(idx, Fraction(0)) + sign
        return Chain(1, {i: c for i, c in coeffs.items() if c != 0})

    # inner rim encircles the hole once; a single quad does not
    assert integrate(w, loop([0, 1, 2, 3])) != 0
    assert integrate(w, loop([0, 1, 5, 4])) == 0


def test_exact_cochain_recovers_primitive():
    cx = meshes.sphere_octahedron()
    rng = random.Random(21)
    f = Cochain(0, tuple(Fraction(rng.randint(-9, 9))
                         for _ in cx.simplices[0]), Parity.STRAIGHT, "exact")
    df = coboundary(f, cx)
    result = is_exact(df, cx)
    assert result["exact"]
    assert coboundary(result["primitive"], cx) == df


def test_exact_implies_closed():
    cx = meshes.torus()
    rng = random.Random(22)
    f = Cochain(0, tuple(Fraction(rng.randint(-9, 9))
                         for _ in cx.simplices[0]), Parity.STRAIGHT, "exact")
    df = coboundary(f, cx)
    assert is_closed(df, cx)

"""Discrete forms: coboundary, integration, cup product, Hodge, twisting."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from formcalc import meshes
from formcalc.cochain import (
    Cochain,
    NotWellCenteredError,
    cochain_from_csv,
    cochain_to_csv,
    coboundary,
    cup_wedge,
    dual_volume_ratios,
    hodge_diagonal,
    integrate,
    measure_from_metric,
    stokes_pairing_check,
    twist_cochain,
)
from formcalc.exact import perm_sign
from formcalc.metric import Metric
from formcalc.parity import Parity
from formcalc.simplicial import Chain, boundary, build_complex


def frac_cochain(cx, degree, values, parity=Parity.STRAIGHT):
    return Cochain(degree, tuple(Fraction(v) for v in values), parity, "exact")


def loop_chain(cx, loop):
    coeffs = {}
    for a, b in zip(loop, loop[1:] + loop[:1]):
        idx = cx.simplex_index(tuple(sorted((a, b))), 1)
        sign = 1 if a < b else -1
        coeffs[idx] = coeffs.get(idx, Fraction(0)) + sign
    return Chain(1, {i: c for i, c in coeffs.items() if c != 0})


def test_coboundary_squared_zero():
    cx = meshes.sphere_octahedron()
    rng = random.Random(3)
    f = frac_cochain(cx, 0, [rng.randint(-5, 5) for _ in cx.simplices[0]])
    assert coboundary(coboundary(f, cx), cx).is_zero()


def fine_fractions(rng, count):
    """Fractions whose denominators no float or 10^12 limit can carry."""
    return [Fraction(rng.randint(-10**20, 10**20), rng.choice([3**31, 10**15 + 37]))
            for _ in range(count)]


@pytest.mark.parametrize("builder", [
    lambda: meshes.uniform_refine(meshes.uniform_refine(meshes.torus())),
    meshes.solid_tetrahedron,
    lambda: meshes.uniform_refine(meshes.mobius_strip()),
], ids=["torus-refined-twice", "solid-tetrahedron", "mobius-refined"])
def test_exact_coboundary_stays_fraction(builder):
    cx = builder()
    rng = random.Random(11)
    for p in range(cx.dim):
        omega = Cochain(p, tuple(fine_fractions(rng, cx.num_simplices(p))))
        d = coboundary(omega, cx)
        assert all(type(v) is Fraction for v in d.values)
        expected = [Fraction(0)] * cx.num_simplices(p + 1)
        B = cx.boundary_matrix(p + 1).tocoo()
        for row, col, sign in zip(B.row.tolist(), B.col.tolist(), B.data.tolist()):
            expected[col] += sign * omega.values[row]
        assert list(d.values) == expected
        if p + 1 < cx.dim:
            dd = coboundary(d, cx)
            assert all(type(v) is Fraction and v == 0 for v in dd.values)


def test_float_coboundary_is_transposed_boundary():
    cx = meshes.uniform_refine(meshes.torus())
    values = np.random.default_rng(4).standard_normal(cx.num_simplices(1))
    d = coboundary(Cochain(1, tuple(values), mode="float"), cx)
    assert np.allclose(d.values, cx.boundary_matrix(2).T @ values, rtol=0, atol=1e-12)


def test_cup_wedge_matches_per_simplex_reference():
    cx = meshes.uniform_refine(meshes.mobius_strip())
    rng = random.Random(5)
    for p, q in [(0, 0), (0, 1), (1, 0), (1, 1), (0, 2)]:
        a = Cochain(p, tuple(fine_fractions(rng, cx.num_simplices(p))))
        b = Cochain(q, tuple(fine_fractions(rng, cx.num_simplices(q))), Parity.TWISTED)
        got = cup_wedge(a, b, cx)
        assert got.parity is Parity.TWISTED
        assert all(type(v) is Fraction for v in got.values)
        expected = []
        for s in cx.simplices[p + q]:
            srt = tuple(sorted(s))
            ab = (a.values[cx.simplex_index(srt[:p + 1], p)]
                  * b.values[cx.simplex_index(srt[p:], q)])
            ba = (b.values[cx.simplex_index(srt[:q + 1], q)]
                  * a.values[cx.simplex_index(srt[q:], p)])
            expected.append(perm_sign(s) * Fraction(1, 2) * (ab + (-1) ** (p * q) * ba))
        assert list(got.values) == expected


def test_coboundary_of_vertex_indicator():
    cx = meshes.single_triangle()
    f = frac_cochain(cx, 0, [1, 0, 0])
    df = coboundary(f, cx)
    # edges (0,1) and (0,2) lose the indicator vertex at their tail
    assert set(df.values) == {Fraction(-1), Fraction(0)}


def test_integration_counts_dots():
    # nine cells of value +1 integrate to 9
    cx = meshes.disk(segments=9)
    ones = frac_cochain(cx, 2, [1] * 9, Parity.TWISTED)
    assert integrate(ones, cx.fundamental_chain(Parity.TWISTED)) == 9
    # refined version: 26 dots of value 1/4 integrate to 6 1/2
    cx26 = meshes.disk(segments=26)
    quarters = frac_cochain(cx26, 2, [Fraction(1, 4)] * 26, Parity.TWISTED)
    assert integrate(quarters, cx26.fundamental_chain(Parity.TWISTED)) \
        == Fraction(13, 2)


def test_integration_parity_pairing_enforced():
    cx = meshes.disk()
    straight = frac_cochain(cx, 2, [1] * 8, Parity.STRAIGHT)
    with pytest.raises(ValueError):
        integrate(straight, cx.fundamental_chain(Parity.TWISTED))


def test_mobius_twisted_only():
    cx = meshes.mobius_minimal()
    twisted = frac_cochain(cx, 2, [1] * 5, Parity.TWISTED)
    assert integrate(twisted, cx.fundamental_chain(Parity.TWISTED)) == 5
    with pytest.raises(ValueError, match="twisted top-form"):
        cx.fundamental_chain(Parity.STRAIGHT)


def test_stokes_pairing_random():
    rng = random.Random(5)
    for builder in (meshes.disk, meshes.annulus, meshes.sphere_octahedron):
        cx = builder()
        for degree in range(cx.dim):
            omega = frac_cochain(
                cx, degree,
                [rng.randint(-9, 9) for _ in cx.simplices[degree]])
            chain = Chain(degree + 1, {
                i: Fraction(rng.randint(-3, 3))
                for i in range(cx.num_simplices(degree + 1))})
            lhs, rhs = stokes_pairing_check(omega, chain, cx)
            assert lhs == rhs


def test_closed_cochain_over_boundary_is_zero():
    cx = meshes.disk()
    f = frac_cochain(cx, 0, range(len(cx.simplices[0])))
    closed = coboundary(f, cx)
    rim = boundary(cx.fundamental_chain(Parity.STRAIGHT), cx)
    assert integrate(closed, rim) == 0


def test_cup_of_zero_cochains_is_pointwise_product():
    cx = meshes.single_triangle()
    f = frac_cochain(cx, 0, [2, 3, 5])
    g = frac_cochain(cx, 0, [7, 11, 13])
    fg = cup_wedge(f, g, cx)
    assert fg.values == (Fraction(14), Fraction(33), Fraction(65))


def test_cup_antisymmetric_in_degree_one():
    cx = meshes.torus()
    rng = random.Random(9)
    a = frac_cochain(cx, 1, [rng.randint(-4, 4) for _ in cx.simplices[1]])
    assert cup_wedge(a, a, cx).is_zero()


def test_cup_parity_multiplies():
    cx = meshes.torus()
    a = frac_cochain(cx, 1, [1] * len(cx.simplices[1]), Parity.TWISTED)
    b = frac_cochain(cx, 1, [1] * len(cx.simplices[1]), Parity.TWISTED)
    assert cup_wedge(a, b, cx).parity is Parity.STRAIGHT


def test_cup_torus_intersection_number():
    cx = meshes.torus()

    def vindex(i, j, k=3):
        return (i % k) * k + (j % k)

    def crossing_cocycle(direction):
        vals = [Fraction(0)] * cx.num_simplices(1)
        for t in range(3):
            if direction == 0:
                pairs = [(vindex(2, t), vindex(0, t)),
                         (vindex(2, t), vindex(0, t + 1))]
            else:
                pairs = [(vindex(t, 2), vindex(t, 0)),
                         (vindex(t, 2), vindex(t + 1, 0))]
            for a, b in pairs:
                idx = cx.simplex_index(tuple(sorted((a, b))), 1)
                vals[idx] = Fraction(1 if a < b else -1)
        return Cochain(1, tuple(vals), Parity.STRAIGHT, "exact")

    alpha = crossing_cocycle(0)
    beta = crossing_cocycle(1)
    fund = cx.fundamental_chain(Parity.STRAIGHT)
    assert abs(integrate(cup_wedge(alpha, beta, cx), fund)) == 1


def test_twist_round_trip_and_reversal():
    cx = meshes.annulus()
    ok, signs = cx.orientability()
    assert ok
    rng = random.Random(12)
    for degree in range(cx.dim + 1):
        c = frac_cochain(cx, degree,
                         [rng.randint(-9, 9) for _ in cx.simplices[degree]])
        t = twist_cochain(c, cx, signs)
        assert t.parity is Parity.TWISTED
        assert twist_cochain(t, cx, signs) == c
        flipped = twist_cochain(c, cx, [-s for s in signs])
        assert flipped.values == tuple(-v for v in t.values)


def test_twist_rejects_mobius_and_incoherent_signs():
    with pytest.raises(ValueError, match="non-orientable"):
        cx = meshes.mobius_minimal()
        c = frac_cochain(cx, 2, [1] * 5)
        twist_cochain(c, cx, [1] * 5)
    cx = meshes.annulus()
    ok, signs = cx.orientability()
    bad = list(signs)
    bad[0] = -bad[0]
    with pytest.raises(ValueError, match="coherent"):
        twist_cochain(frac_cochain(cx, 2, [1] * len(signs)), cx, bad)


def test_measure_unit_right_triangle():
    cx = meshes.unit_right_triangle()
    m = measure_from_metric(cx)
    assert m.cochain.parity is Parity.TWISTED
    assert math.isclose(m.total(cx), 0.5)


def test_measure_positive_and_refinement_invariant():
    cx = meshes.mobius_strip()
    m = measure_from_metric(cx)
    assert all(v > 0 for v in m.cochain.values)
    fine = meshes.uniform_refine(cx)
    # flat cells subdivide exactly
    assert math.isclose(measure_from_metric(fine).total(fine), m.total(cx),
                        rel_tol=1e-12)


def test_dual_ratio_equilateral_shared_edge():
    s = math.sqrt(3) / 2
    cx = build_complex([(0.0, 0.0), (1.0, 0.0), (0.5, s), (0.5, -s)],
                       [(0, 1, 2), (0, 1, 3)])
    ratios = dual_volume_ratios(cx, 1)
    shared = cx.simplex_index((0, 1), 1)
    assert math.isclose(ratios[shared], 1 / math.sqrt(3), rel_tol=1e-12)


def test_dual_ratios_cover_volume():
    s = math.sqrt(3) / 2
    cx = build_complex([(0.0, 0.0), (1.0, 0.0), (0.5, s), (0.5, -s)],
                       [(0, 1, 2), (0, 1, 3)])
    vertex_duals = dual_volume_ratios(cx, 0)  # primal volume of a vertex is 1
    assert math.isclose(sum(vertex_duals), 2 * math.sqrt(3) / 4, rel_tol=1e-12)


def test_hodge_diagonal_flips_parity_and_scales():
    s = math.sqrt(3) / 2
    cx = build_complex([(0.0, 0.0), (1.0, 0.0), (0.5, s), (0.5, -s)],
                       [(0, 1, 2), (0, 1, 3)])
    c = Cochain(1, tuple(1.0 for _ in cx.simplices[1]), Parity.STRAIGHT,
                "float")
    star = hodge_diagonal(c, cx)
    assert star.parity is Parity.TWISTED
    shared = cx.simplex_index((0, 1), 1)
    assert math.isclose(star.values[shared], 1 / math.sqrt(3), rel_tol=1e-12)


def test_hodge_diagonal_metric_scaling():
    # stretching the metric rescales dual/primal ratios anisotropically
    cx = build_complex([(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3) / 2)],
                       [(0, 1, 2)])
    g = Metric.diag(Fraction(4), Fraction(4))
    scaled = dual_volume_ratios(cx, 1, g)
    plain = dual_volume_ratios(cx, 1)
    for a, b in zip(scaled, plain):
        assert math.isclose(a, b, rel_tol=1e-12)  # ratios are scale-invariant


def test_hodge_diagonal_rejects_bad_inputs():
    obtuse = build_complex([(0.0, 0.0), (4.0, 0.0), (2.0, 0.2)], [(0, 1, 2)])
    with pytest.raises(NotWellCenteredError, match="degree 2"):
        dual_volume_ratios(obtuse, 1)
    ok = build_complex([(0.0, 0.0), (1.0, 0.0), (0.5, 1.0)], [(0, 1, 2)])
    with pytest.raises(ValueError, match="Riemannian"):
        dual_volume_ratios(ok, 1, Metric.minkowski(2))


# -- reference: the per-simplex circumcentric dual ----------------------------

def _gram_volume(points: list) -> float:
    """Unsigned volume of the simplex with the given vertex coordinates."""
    if len(points) == 1:
        return 1.0
    E = np.asarray(points[1:], dtype=float) - np.asarray(points[0], dtype=float)
    return math.sqrt(max(float(np.linalg.det(E @ E.T)), 0.0)) / math.factorial(len(E))


def _circumcenter(points: list) -> tuple:
    """(circumcenter, barycentric coordinates) within the affine hull."""
    pts = [np.asarray(p, dtype=float) for p in points]
    if len(pts) == 1:
        return pts[0], np.array([1.0])
    E = np.stack([p - pts[0] for p in pts[1:]])
    lam = np.linalg.solve(E @ E.T, 0.5 * np.einsum("ij,ij->i", E, E))
    return pts[0] + lam @ E, np.concatenate([[1.0 - lam.sum()], lam])


def reference_dual_volume_ratios(cx, degree, g=None):
    """One simplex at a time: recursive sums over ascending chains of
    circumcenters, cofaces read off the boundary matrices."""
    coords = [np.asarray(v, dtype=float) for v in cx.vertices]
    if g is not None:
        L = np.linalg.cholesky(np.array([[float(v) for v in row] for row in g.matrix]))
        coords = [L.T @ p for p in coords]
    n = cx.dim
    centers = []
    for k in range(n + 1):
        level = []
        for i, s in enumerate(cx.simplices[k]):
            c, bary = _circumcenter([coords[v] for v in s])
            if k > 0 and (bary <= 1e-12).any():
                raise NotWellCenteredError(k, i)
            level.append(c)
        centers.append(level)
    cofaces = {k: cx.boundary_matrix(k + 1).tolil().rows for k in range(degree, n)}

    def dual_volume(k, i, chain_pts):
        if k == n:
            return _gram_volume(chain_pts)
        return sum((dual_volume(k + 1, up, chain_pts + [centers[k + 1][up]])
                    for up in cofaces[k][i]), 0.0)

    return [dual_volume(degree, i, [centers[degree][i]])
            / _gram_volume([coords[v] for v in s])
            for i, s in enumerate(cx.simplices[degree])]


def two_regular_tetrahedra():
    """Two regular tetrahedra glued on a face, the second apex reflected."""
    a, b, c, d = (np.array(v, dtype=float) for v in
                  [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)])
    centroid = (a + b + c) / 3
    normal = np.cross(b - a, c - a)
    normal /= np.linalg.norm(normal)
    e = d - 2 * np.dot(d - centroid, normal) * normal
    return build_complex([tuple(v) for v in (a, b, c, d, e)],
                         [(0, 1, 2, 3), (0, 2, 1, 4)])


def _dual_ratios_or_error(ratios, cx, degree, g):
    try:
        return ratios(cx, degree, g)
    except NotWellCenteredError as exc:
        return ("not well-centred", exc.degree, exc.index)


@pytest.mark.parametrize("metric", [False, True], ids=["euclidean", "diag-4-1"])
@pytest.mark.parametrize("name", ["disk", "sphere", "tetrahedra"])
def test_dual_volume_ratios_match_per_simplex_reference(name, metric):
    cx = {"disk": lambda: meshes.uniform_refine(meshes.uniform_refine(meshes.disk())),
          "sphere": lambda: meshes.uniform_refine(
              meshes.uniform_refine(meshes.sphere_octahedron())),
          "tetrahedra": two_regular_tetrahedra}[name]()
    d = cx.embedding_dim()
    g = Metric.diag(4, *[1] * (d - 1)) if metric else None
    for degree in range(cx.dim + 1):
        want = _dual_ratios_or_error(reference_dual_volume_ratios, cx, degree, g)
        got = _dual_ratios_or_error(dual_volume_ratios, cx, degree, g)
        if isinstance(want, tuple):
            assert got == want
        else:
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("cx", [
    build_complex([(0.0, 0.0), (4.0, 0.0), (2.0, 0.2)], [(0, 1, 2)]),
    # one obtuse face (0, 1, 2) on an otherwise fine tetrahedron
    build_complex([(0.0, 0.0, 0.0), (4.0, 0.0, 0.0), (2.0, 0.2, 0.0), (2.0, 1.0, 3.0),
                   (2.0, -2.0, 2.0)], [(0, 1, 3, 4), (0, 1, 2, 3)]),
], ids=["obtuse-triangle", "tetrahedra-one-obtuse-face"])
def test_not_well_centered_error_matches_reference(cx):
    for degree in range(cx.dim + 1):
        with pytest.raises(NotWellCenteredError) as want:
            reference_dual_volume_ratios(cx, degree)
        with pytest.raises(NotWellCenteredError) as got:
            dual_volume_ratios(cx, degree)
        assert (got.value.degree, got.value.index) == (want.value.degree, want.value.index)


@pytest.mark.parametrize("points", [
    [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (0.5, 1.0)],
    [(0.0, 0.0), (0.1, 0.1), (0.3, 0.3), (0.02, 0.12)],
], ids=["exactly-collinear", "collinear-up-to-rounding"])
def test_degenerate_simplex_is_named(points):
    cx = build_complex(points, [(0, 1, 3), (0, 1, 2)])
    for degree in range(3):
        with pytest.raises(ValueError, match="degenerate simplex 1 of degree 2"):
            dual_volume_ratios(cx, degree)
    with pytest.raises(ValueError, match="degenerate simplex 1 of degree 2"):
        measure_from_metric(cx)


def test_measure_from_anisotropic_metric():
    cx = meshes.single_triangle()
    assert math.isclose(measure_from_metric(cx, Metric.diag(4, 9)).total(cx), 3.0,
                        rel_tol=1e-12)



@pytest.mark.parametrize("g", [Metric.diag(1, 1, 1), Metric.diag(4)], ids=["3-dim", "1-dim"])
def test_metric_dimension_mismatch_is_named(g):
    cx = meshes.single_triangle()
    message = f"metric dimension {g.dim} does not match the 2-dimensional vertex coordinates"
    with pytest.raises(ValueError, match=message):
        dual_volume_ratios(cx, 1, g)
    with pytest.raises(ValueError, match=message):
        hodge_diagonal(Cochain(1, (1.0, 2.0, 3.0), Parity.STRAIGHT, "float"), cx, g)
    with pytest.raises(ValueError, match=message):
        measure_from_metric(cx, g)

@pytest.mark.parametrize("A", [((2, 0), (0, 1)), ((1, 1), (0, 1))], ids=["stretch", "shear"])
def test_dual_ratios_under_metric_match_mapped_mesh(A):
    # the metric g = A^T A measures the mesh as the Euclidean metric measures
    # its image under A: here two equilateral triangles, well-centred
    s = math.sqrt(3) / 2
    image = np.array([(0.0, 0.0), (1.0, 0.0), (0.5, s), (0.5, -s)])
    A = np.array(A, dtype=float)
    tops = [(0, 1, 2), (0, 1, 3)]
    cx = build_complex(image @ np.linalg.inv(A).T, tops)
    g = Metric(tuple(tuple(int(v) for v in row) for row in A.T @ A))
    for degree in range(3):
        np.testing.assert_allclose(dual_volume_ratios(cx, degree, g),
                                   dual_volume_ratios(build_complex(image, tops), degree),
                                   rtol=1e-12, atol=0)


def test_cochain_csv_round_trip():
    c = Cochain(1, (Fraction(1, 3), Fraction(-2), Fraction(0)),
                Parity.TWISTED, "exact")
    text = cochain_to_csv(c)
    assert cochain_from_csv(text) == c
    assert cochain_to_csv(cochain_from_csv(text)) == text

"""Betti numbers, torsion, closed-versus-exact classification."""

import functools
import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from formcalc.simplicial import build_complex, loop_chain


def reference_snf(matrix):
    """Dense Smith normal form by brute force: a global smallest-pivot
    search, then row and column passes by floor division that swap in each
    nonzero remainder.  Its entries can grow past thousands of digits on
    dense blocks, so it is the reference on boundary matrices only."""
    m = [row[:] for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    factors = []
    r = 0
    while r < min(rows, cols):
        pivot = None
        best = None
        for i in range(r, rows):
            for j in range(r, cols):
                v = abs(m[i][j])
                if v and (best is None or v < best):
                    best, pivot = v, (i, j)
        if pivot is None:
            break
        i, j = pivot
        m[r], m[i] = m[i], m[r]
        for row in m:
            row[r], row[j] = row[j], row[r]
        while True:
            reduced = False
            for i in range(r + 1, rows):
                if m[i][r]:
                    q = m[i][r] // m[r][r]
                    for c in range(r, cols):
                        m[i][c] -= q * m[r][c]
                    if m[i][r]:
                        m[r], m[i] = m[i], m[r]
                        reduced = True
            for j in range(r + 1, cols):
                if m[r][j]:
                    q = m[r][j] // m[r][r]
                    for i in range(r, rows):
                        m[i][j] -= q * m[i][r]
                    if m[r][j]:
                        for i in range(r, rows):
                            m[i][r], m[i][j] = m[i][j], m[i][r]
                        reduced = True
            if not reduced:
                break
        p = abs(m[r][r])
        fix = None
        for i in range(r + 1, rows):
            for j in range(r + 1, cols):
                if m[i][j] % p:
                    fix = i
                    break
            if fix is not None:
                break
        if fix is not None:
            for c in range(r, cols):
                m[r][c] += m[fix][c]
            continue
        factors.append(p)
        r += 1
    return factors


def minors_snf(matrix):
    """Invariant factors by their definition: the k-th determinantal divisor
    d_k is the gcd of all k x k minors, and the k-th factor is d_k / d_(k-1)."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0

    @functools.lru_cache(maxsize=None)
    def minor(rs, cs):  # Laplace expansion along the first row
        if not rs:
            return 1
        return sum((-1) ** k * matrix[rs[0]][c] * minor(rs[1:], cs[:k] + cs[k + 1:])
                   for k, c in enumerate(cs) if matrix[rs[0]][c])

    factors = []
    previous = 1
    for k in range(1, min(rows, cols) + 1):
        d = 0
        for rs in itertools.combinations(range(rows), k):
            for cs in itertools.combinations(range(cols), k):
                d = math.gcd(d, minor(rs, cs))
        if d == 0:
            break
        factors.append(d // previous)
        previous = d
    return factors


def reference_solve(A, b):
    """One solution of A x = b over Q, free unknowns 0, or None if the system
    is inconsistent: dense forward elimination of the augmented matrix, the
    pivot of each column its first nonzero entry at or below the current
    row, then back-substitution."""
    ncols = len(A[0]) if A else 0
    m = [list(row) + [Fraction(v)] for row, v in zip(A, b)]
    pivots = []
    for c in range(ncols + 1):
        r = len(pivots)
        p = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        prow = m[r]
        nonzero = [j for j in range(c + 1, ncols + 1) if prow[j] != 0]
        for row in m[r + 1:]:
            if row[c] != 0:
                f = row[c] / Fraction(prow[c])
                row[c] = 0
                for j in nonzero:
                    row[j] -= f * prow[j]
        pivots.append(c)
    if pivots and pivots[-1] == ncols:
        return None
    x = [Fraction(0)] * ncols
    for row, c in zip(reversed(m[:len(pivots)]), reversed(pivots)):
        known = sum(row[j] * x[j] for j in range(c + 1, ncols) if row[j])
        x[c] = (row[ncols] - known) / Fraction(row[c])
    return x


def sparse_rows(matrix):
    """The nonzero entries of each row of a dense matrix, keyed by column."""
    return [{j: v for j, v in enumerate(row) if v} for row in matrix]


def _relabelled(cx, rng):
    """The complex with vertices permuted, triangles shuffled and each
    triangle's vertex list rotated (rotation keeps its orientation)."""
    perm = list(range(len(cx.vertices)))
    rng.shuffle(perm)
    new_of = {old: new for new, old in enumerate(perm)}
    tris = []
    for tri in cx.simplices[2]:
        t = [new_of[v] for v in tri]
        r = rng.randrange(3)
        tris.append(tuple(t[r:] + t[:r]))
    rng.shuffle(tris)
    return build_complex([cx.vertices[old] for old in perm], tris)


def _refined(builder, times):
    cx = builder()
    for _ in range(times):
        cx = meshes.uniform_refine(cx)
    return cx


@st.composite
def integer_matrices(draw):
    rows = draw(st.integers(0, 7))
    cols = draw(st.integers(0, 7))
    values = draw(st.sampled_from([tuple(range(-4, 5)), (-4, -3, -2, 0, 2, 3, 4)]))
    entries = st.sampled_from(values)
    return [draw(st.lists(entries, min_size=cols, max_size=cols)) for _ in range(rows)]


def test_smith_normal_form_basics():
    assert smith_normal_form(sparse_rows([[2, 4], [4, 8]])) == [2]
    assert smith_normal_form(sparse_rows([[1, 0], [0, 1]])) == [1, 1]
    assert smith_normal_form(sparse_rows([[0, 0], [0, 0]])) == []
    assert smith_normal_form([{0: 0, 1: 3}, {}]) == [3]
    # divisibility chain
    factors = smith_normal_form(sparse_rows([[2, 0, 0], [0, 3, 0], [0, 0, 4]]))
    for a, b in zip(factors, factors[1:]):
        assert b % a == 0


# Under reference_snf the entries of this block grow past 4300 digits.
@example([[3, -2, -3, 1, -4, 4, -1], [-4, -3, -2, -1, -3, 4, -4],
          [-3, 0, 0, 1, 3, 3, 1], [0, 1, -3, -3, 1, 3, -4],
          [-4, -1, 4, -3, -2, 0, 1], [-2, 4, 3, 1, 4, -1, -1],
          [0, -2, -3, 3, -4, 1, -1]])
@example([[2, 4, 0], [0, 6, 3]])
@settings(max_examples=200, deadline=None)
@given(integer_matrices())
def test_smith_normal_form_matches_minors(matrix):
    rows = sparse_rows(matrix)
    before = [dict(row) for row in rows]
    factors = smith_normal_form(rows)
    assert rows == before
    assert factors == minors_snf(matrix)
    assert all(type(f) is int for f in factors)


def test_smith_normal_form_matches_reference_on_boundaries():
    """The sparse coboundary rows that betti_numbers reads from the incidence
    arrays give the invariant factors of the dense boundary matrix."""
    rng = random.Random(31)
    for builder in (meshes.torus, meshes.mobius_strip, meshes.projective_plane):
        cx = _relabelled(_refined(builder, 2), rng)
        for k in (1, 2):
            rows = [dict(zip(f, s)) for f, s in zip(cx.faces[k].tolist(),
                                                    cx.face_signs[k].tolist())]
            matrix = cx.boundary_matrix(k).tolist()
            assert smith_normal_form(rows) == reference_snf(matrix)


def test_refined_homology():
    torus = betti_numbers(_refined(meshes.torus, 3))
    assert torus.betti == (1, 2, 1)
    assert torus.torsion == ((), (), ())
    rp2 = betti_numbers(_relabelled(_refined(meshes.projective_plane, 2),
                                    random.Random(32)))
    assert rp2.betti == (1, 0, 0)
    assert rp2.torsion == ((), (2,), ())
    assert rp2.orientable is False


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
    report = betti_numbers(meshes.projective_plane())
    assert report.betti == (1, 0, 0)
    assert report.torsion == ((), (2,), ())
    assert report.orientable is False


def test_winding_integrals():
    cx = meshes.annulus()
    w = winding_cochain(cx)
    # inner rim encircles the hole once; a single quad does not
    assert integrate(w, loop_chain(cx, [0, 1, 2, 3])) != 0
    assert integrate(w, loop_chain(cx, [0, 1, 5, 4])) == 0


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


def test_float_cochain_gets_no_closed_or_exact_verdict():
    """d of a float 0-cochain, scaled by 0.1, is closed in the mathematics,
    but its float coboundary reads up to 2.2e-16: a float verdict would be
    "not closed, not exact".  Both checks refuse float mode instead."""
    cx = _refined(meshes.torus, 2)
    rng = random.Random(3)
    f = Cochain(0, tuple(rng.random() * 10 for _ in cx.simplices[0]), mode="float")
    omega = coboundary(f, cx).scale(0.1)
    assert not coboundary(omega, cx).is_zero()
    for check in (is_closed, is_exact):
        with pytest.raises(ValueError, match="exact mode only"):
            check(omega, cx)
    top = Cochain(2, (0.5,) * cx.num_simplices(2), mode="float")
    with pytest.raises(ValueError, match="exact mode only"):
        is_closed(top, cx)


BUNDLED_SURFACES = ("torus", "mobius_strip", "annulus", "sphere_octahedron", "disk",
                    "projective_plane")


@functools.lru_cache(maxsize=None)
def _surface(name, seed):
    """A bundled surface refined twice and relabelled by ``seed``."""
    return _relabelled(_refined(getattr(meshes, name), 2), random.Random(seed))


def _random_cochain(cx, degree, rng):
    return Cochain(degree, tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                                 for _ in cx.simplices[degree]))


# RP^2 in degree 2 leaves a block with no unit entry after the unit pivots,
# so the rational pass runs there: every 2-cochain is exact over Q, though
# not over Z.  The Moebius strip is the other non-orientable surface.
@example("projective_plane", 0, 2, "random", 0)
@example("projective_plane", 1, 2, "coboundary", 1)
@example("mobius_strip", 0, 1, "winding", 2)
@example("mobius_strip", 1, 2, "random", 3)
@settings(max_examples=60, deadline=None)
@given(st.sampled_from(BUNDLED_SURFACES), st.integers(0, 2), st.sampled_from([1, 2]),
       st.sampled_from(["coboundary", "random", "winding"]), st.integers(0, 2**32))
def test_is_exact_matches_dense_reference(name, seed, degree, kind, value_seed):
    cx = _surface(name, seed)
    rng = random.Random(value_seed)
    omega = coboundary(_random_cochain(cx, degree - 1, rng), cx)
    if kind == "random":
        omega = _random_cochain(cx, degree, rng)
    elif kind == "winding" and degree == 1:  # a 1-cochain; degree 2 keeps d f
        omega = winding_cochain(cx) + omega
    expected = reference_solve(cx.boundary_matrix(degree).T.tolist(), omega.values)
    result = is_exact(omega, cx)
    assert result["exact"] == (expected is not None)
    if result["exact"]:
        primitive = result["primitive"]
        assert all(type(v) is Fraction for v in primitive.values)
        assert coboundary(primitive, cx) == omega
    else:
        assert result["primitive"] is None


def test_is_exact_runs_the_rational_pass_on_rp2(monkeypatch):
    """The RP^2 draw above covers the rational pass: after the unit pivots
    one row is left, holding no unit entry."""
    from formcalc import cohomology
    passes = []
    unit_pivots = cohomology._unit_pivots

    def counted(rows, rhs=None):
        passes.append(sum(1 for row in rows if row))
        return unit_pivots(rows, rhs)

    monkeypatch.setattr(cohomology, "_unit_pivots", counted)
    cx = _surface("projective_plane", 0)
    omega = _random_cochain(cx, 2, random.Random(0))
    assert is_exact(omega, cx)["exact"]
    assert len(passes) > 1 and passes[1] > 0


def test_is_exact_on_refine4_torus_within_a_second():
    cx = _refined(meshes.torus, 4)
    rng = random.Random(23)
    df = coboundary(_random_cochain(cx, 0, rng), cx)
    start = time.perf_counter()
    result = is_exact(df, cx)
    elapsed = time.perf_counter() - start
    assert result["exact"] and coboundary(result["primitive"], cx) == df
    assert elapsed < 1.0, f"is_exact took {elapsed:.2f} s on {len(cx.vertices)} vertices"


def test_cochain_that_does_not_fit_the_complex_is_refused():
    cx = meshes.torus()
    values = [Fraction(0)] * cx.num_simplices(1)
    too_long = Cochain(1, tuple(values + [Fraction(7)]))
    too_short = Cochain(1, tuple(values[:-5]))
    for omega in (too_long, too_short):
        for check in (is_exact, is_closed, coboundary):
            with pytest.raises(ValueError, match="values do not make a 1-cochain"):
                check(omega, cx)
    with pytest.raises(ValueError):
        is_exact(Cochain(3, ()), cx)
    with pytest.raises(ValueError):
        is_closed(Cochain(2, tuple(values)), cx)

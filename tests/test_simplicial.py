"""Simplicial complexes: construction, boundaries, orientability, mesh I/O."""

import math
import pathlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from formcalc import meshes
from formcalc.exact import perm_sign
from formcalc.parity import Parity
from formcalc.simplicial import (
    Chain,
    MeshFormatError,
    boundary,
    build_complex,
    loop_chain,
    mesh_to_text,
    parse_mesh,
)


def test_single_triangle_counts():
    cx = meshes.single_triangle()
    assert [cx.num_simplices(k) for k in range(3)] == [3, 3, 1]
    assert cx.euler_characteristic() == 1


def test_faces_are_generated_sorted():
    cx = build_complex([(0, 0), (1, 0), (0, 1)], [(2, 0, 1)])
    assert cx.simplices[1] == [(0, 1), (0, 2), (1, 2)]


def test_boundary_of_boundary_is_zero():
    for builder in (meshes.solid_tetrahedron, meshes.sphere_octahedron,
                    meshes.torus, meshes.mobius_minimal):
        cx = builder()
        for k in range(2, cx.dim + 1):
            prod = cx.boundary_matrix(k - 1) @ cx.boundary_matrix(k)
            assert not prod.any()


def test_boundary_matrix_signs_on_triangle():
    cx = meshes.single_triangle()
    d2 = cx.boundary_matrix(2)
    # faces of (0,1,2): +(1,2) -(0,2) +(0,1)
    col = {cx.simplices[1][i]: d2[i, 0] for i in range(3)}
    assert col[(1, 2)] == 1
    assert col[(0, 2)] == -1
    assert col[(0, 1)] == 1


def test_chain_boundary_matches_matrix():
    cx = meshes.disk()
    fund = cx.fundamental_chain(Parity.TWISTED)
    rim = boundary(fund, cx)
    vec = np.zeros(cx.num_simplices(2))
    for i, c in fund.coefficients.items():
        vec[i] = float(c)
    expected = cx.boundary_matrix(2) @ vec
    got = np.zeros(cx.num_simplices(1))
    for i, c in rim.coefficients.items():
        got[i] = float(c)
    assert np.array_equal(expected, got)


def test_orientability():
    assert meshes.sphere_octahedron().orientable()
    assert meshes.torus().orientable()
    assert meshes.annulus().orientable()
    assert not meshes.mobius_minimal().orientable()
    assert not meshes.mobius_strip().orientable()


def test_orientation_signs_are_coherent():
    cx = meshes.torus()
    ok, signs = cx.orientability()
    assert ok
    vec = np.array(signs, dtype=float)
    assert np.all(cx.boundary_matrix(2) @ vec == 0)


def test_fundamental_chain_twisted_always_exists():
    for builder in (meshes.torus, meshes.mobius_minimal):
        cx = builder()
        fund = cx.fundamental_chain(Parity.TWISTED)
        assert len(fund.coefficients) == cx.num_simplices(cx.dim)
        assert all(abs(c) == 1 for c in fund.coefficients.values())


def test_fundamental_chain_straight_requires_orientability():
    with pytest.raises(ValueError, match="twisted top-form"):
        meshes.mobius_minimal().fundamental_chain(Parity.STRAIGHT)
    chain = meshes.torus().fundamental_chain(Parity.STRAIGHT)
    assert chain.parity is Parity.STRAIGHT


def test_pseudo_manifold_check():
    assert meshes.torus().is_pseudo_manifold()
    # three triangles sharing one edge: not a pseudo-manifold
    cx = build_complex([(0, 0), (1, 0), (0, 1), (1, 1), (-1, 1)],
                       [(0, 1, 2), (0, 1, 3), (0, 1, 4)])
    assert not cx.is_pseudo_manifold()
    assert not cx.orientable()
    # a vertex in no triangle: not pure, so no pseudo-manifold, though the
    # one triangle is oriented and carries a straight fundamental chain
    lone = build_complex([(0, 0), (1, 0), (0, 1), (5, 5)], [(0, 1, 2)])
    assert not lone.is_pseudo_manifold()
    assert lone.orientable() and lone.fundamental_chain(Parity.STRAIGHT).coefficients == {0: 1}


def test_loop_chain_is_a_cycle_and_reverses_sign():
    cx = meshes.annulus()
    rim = loop_chain(cx, [0, 1, 2, 3])
    assert len(rim.coefficients) == 4
    assert boundary(rim, cx).is_zero()
    assert loop_chain(cx, [3, 2, 1, 0]) == -rim


def test_every_vertex_is_a_0_simplex():
    points = [(0, 0), (1, 0), (0, 1), (5, 5)]
    cx = build_complex(points, [(0, 1, 2)])
    assert cx.simplices[0] == [(0,), (1,), (2,), (3,)]
    assert cx.euler_characteristic() == 2
    assert parse_mesh(mesh_to_text(cx)).simplices == cx.simplices
    assert build_complex(points, [(2,)]).simplices == [[(0,), (1,), (2,), (3,)]]


def test_build_complex_rejects_bad_cells():
    with pytest.raises(ValueError):
        build_complex([(0, 0), (1, 0)], [(0, 0, 1)])
    with pytest.raises(ValueError):
        build_complex([(0, 0), (1, 0)], [(0, 1, 2)])
    with pytest.raises(ValueError):
        build_complex([(0, 0), (1, 0), (0, 1, 0)], [(0, 1, 2)])


def test_mesh_round_trip():
    cx = meshes.annulus()
    text = mesh_to_text(cx)
    back = parse_mesh(text)
    assert back.vertices == cx.vertices
    assert back.simplices == cx.simplices
    assert mesh_to_text(back) == text


def test_parse_mesh_reports_line_numbers():
    with pytest.raises(MeshFormatError, match="line 2"):
        parse_mesh("dim 2\nbogus record\n")


def test_uniform_refine_preserves_topology():
    cx = meshes.annulus()
    fine = meshes.uniform_refine(cx)
    assert fine.euler_characteristic() == cx.euler_characteristic()
    assert fine.num_simplices(2) == 4 * cx.num_simplices(2)
    assert fine.orientable() == cx.orientable()


def test_chain_algebra():
    a = Chain(1, {0: Fraction(2), 1: Fraction(-1)})
    b = Chain(1, {1: Fraction(1)})
    assert (a + b).coefficients == {0: Fraction(2)}
    assert (-a).coefficients == {0: Fraction(-2), 1: Fraction(1)}
    assert a.scale(Fraction(1, 2)).coefficients == {0: Fraction(1),
                                                    1: Fraction(-1, 2)}


# -- the incidence arrays against a per-simplex reference -------------------

def reference_incidence(cx, k):
    """Per k-simplex, the sorted list of (facet index, sign): drop vertex j
    for (-1)^j, times the sign of the permutation sorting the facet."""
    index = {tuple(sorted(s)): i for i, s in enumerate(cx.simplices[k - 1])}
    entries = []
    for s in cx.simplices[k]:
        facets = [s[:j] + s[j + 1:] for j in range(len(s))]
        entries.append(sorted((index[tuple(sorted(f))], (-1) ** j * perm_sign(f))
                              for j, f in enumerate(facets)))
    return entries


def relabelled(cx, seed):
    """The same complex with permuted vertex labels and top simplices
    listed in a shuffled order, each rotated or reversed."""
    rng = np.random.default_rng(seed)
    label = rng.permutation(len(cx.vertices))
    verts = [None] * len(cx.vertices)
    for old, new in enumerate(label):
        verts[new] = cx.vertices[old]
    tops = []
    for i in rng.permutation(cx.num_simplices(cx.dim)):
        s = [int(label[v]) for v in cx.simplices[cx.dim][i]]
        shift = int(rng.integers(len(s)))
        s = s[shift:] + s[:shift]
        tops.append(s[::-1] if rng.integers(2) else s)
    return build_complex(verts, tops)


def rp2():
    # minimal six-vertex real projective plane
    triangles = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
                 (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3)]
    verts = [(math.cos(1.1 * i), math.sin(1.1 * i), 0.1 * i) for i in range(6)]
    return build_complex(verts, triangles)


INCIDENCE_COMPLEXES = {
    "torus-relabelled-refined": lambda: meshes.uniform_refine(relabelled(meshes.torus(), 1)),
    "mobius-refined-relabelled":
        lambda: relabelled(meshes.uniform_refine(meshes.mobius_strip()), 2),
    "sphere-relabelled": lambda: relabelled(meshes.sphere_octahedron(), 3),
    "rp2": rp2,
    "rp2-relabelled": lambda: relabelled(rp2(), 4),
    "solid-tetrahedron": meshes.solid_tetrahedron,
    "tetrahedron-reordered": lambda: build_complex(
        [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], [(2, 0, 3, 1)]),
    "triangle-and-dangling-edge": lambda: build_complex(
        [(0, 0), (1, 0), (0, 1), (2, 0)], [(2, 0, 1), (3, 1)]),
}


@pytest.mark.parametrize("name", INCIDENCE_COMPLEXES)
def test_incidence_arrays_match_reference(name):
    cx = INCIDENCE_COMPLEXES[name]()
    for k in range(1, cx.dim + 1):
        reference = reference_incidence(cx, k)
        faces, signs = cx.faces[k], cx.face_signs[k]
        assert faces.shape == signs.shape == (cx.num_simplices(k), k + 1)
        got = [sorted(zip(f, s)) for f, s in zip(faces.tolist(), signs.tolist())]
        assert got == reference
        expected = np.zeros((cx.num_simplices(k - 1), cx.num_simplices(k)), dtype=np.int64)
        for col, entries in enumerate(reference):
            for row, sign in entries:
                expected[row, col] = sign
        B = cx.boundary_matrix(k)
        assert B.dtype == np.int64
        assert np.array_equal(B, expected)


def csr_orientability(cx):
    """Greedy sign propagation reading each facet's cells from the rows of
    the boundary matrix stored as a SciPy CSR matrix."""
    n = cx.dim
    B = sparse.csr_matrix(cx.boundary_matrix(n))
    signs = [0] * cx.num_simplices(n)
    for seed in range(len(signs)):
        if signs[seed]:
            continue
        signs[seed] = 1
        queue = [seed]
        while queue:
            cell = queue.pop()
            for row, sign in zip(cx.faces[n][cell].tolist(), cx.face_signs[n][cell].tolist()):
                for at in range(B.indptr[row], B.indptr[row + 1]):
                    other = int(B.indices[at])
                    if other == cell:
                        continue
                    want = -signs[cell] * sign * int(B.data[at])
                    if signs[other] == 0:
                        signs[other] = want
                        queue.append(other)
                    elif signs[other] != want:
                        return False, None
    return True, signs


BUNDLED_MESHES = {
    **meshes.BUILDERS,
    **{path.name: (lambda path=path: parse_mesh(path.read_text()))
       for path in sorted(pathlib.Path(__file__).parent.parent.joinpath("meshes").glob("*.mesh"))},
}


@pytest.mark.parametrize("name", BUNDLED_MESHES)
def test_orientability_matches_csr_walk(name):
    cx = BUNDLED_MESHES[name]()
    complexes = [cx, relabelled(meshes.uniform_refine(cx), 6)] if cx.dim == 2 else [cx]
    for complex_ in complexes:
        assert complex_.orientability() == csr_orientability(complex_)


def test_simplex_index_finds_rows_in_any_order():
    cx = relabelled(meshes.torus(), 5)
    for k in range(cx.dim + 1):
        for i, s in enumerate(cx.simplices[k]):
            assert cx.simplex_index(s[::-1], k) == i
        rows = np.array(cx.simplices[k])[::-1]
        assert cx.simplex_index(rows, k).tolist() == list(range(cx.num_simplices(k)))[::-1]
    with pytest.raises(KeyError):
        cx.simplex_index((0, 0), 1)


@st.composite
def pure_complexes(draw):
    dim = draw(st.integers(1, 3))
    count = draw(st.integers(dim + 1, 7))
    coord = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    verts = draw(st.lists(st.tuples(coord, coord, coord), min_size=count, max_size=count))
    tops = draw(st.lists(st.permutations(range(count)).map(lambda p: p[:dim + 1]),
                         min_size=1, max_size=8))
    return build_complex(verts, tops)


@settings(max_examples=60, deadline=None)
@given(pure_complexes())
def test_mesh_text_round_trip_keeps_incidence(cx):
    back = parse_mesh(mesh_to_text(cx))
    assert back.vertices == cx.vertices
    assert back.simplices == cx.simplices
    for k in range(1, cx.dim + 1):
        assert np.array_equal(back.boundary_matrix(k), cx.boundary_matrix(k))

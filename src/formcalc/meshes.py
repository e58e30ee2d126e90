"""Standard small triangulations used by the demos and tests.

The source material never fixes triangulations for its example surfaces,
so the usual minimal ones are built here and documented per builder.
"""

from __future__ import annotations

import math

from .simplicial import SimplicialComplex, build_complex


def single_triangle() -> SimplicialComplex:
    return build_complex([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [(0, 1, 2)])


def solid_tetrahedron() -> SimplicialComplex:
    verts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    return build_complex(verts, [(0, 1, 2, 3)])


def disk(segments: int = 8, radius: float = 1.0) -> SimplicialComplex:
    """Fan triangulation of a disk: center plus a boundary cycle."""
    verts = [(0.0, 0.0)]
    for i in range(segments):
        a = 2 * math.pi * i / segments
        verts.append((radius * math.cos(a), radius * math.sin(a)))
    tris = [(0, 1 + i, 1 + (i + 1) % segments) for i in range(segments)]
    return build_complex(verts, tris)


def annulus(segments: int = 4, r_inner: float = 1.0, r_outer: float = 2.0,
            ) -> SimplicialComplex:
    """Ring of 2*segments triangles between two concentric circles."""
    if segments < 4:
        raise ValueError("need at least 4 segments for a simplicial annulus")
    verts = []
    for r in (r_inner, r_outer):
        for i in range(segments):
            a = 2 * math.pi * i / segments
            verts.append((r * math.cos(a), r * math.sin(a)))
    tris = []
    for i in range(segments):
        j = (i + 1) % segments
        inner_i, inner_j = i, j
        outer_i, outer_j = segments + i, segments + j
        tris.append((inner_i, outer_i, outer_j))
        tris.append((inner_i, outer_j, inner_j))
    return build_complex(verts, tris)


def sphere_octahedron(radius: float = 1.0) -> SimplicialComplex:
    """Octahedral triangulation of the 2-sphere: 6 vertices, 8 triangles."""
    r = radius
    verts = [(r, 0, 0), (-r, 0, 0), (0, r, 0), (0, -r, 0), (0, 0, r), (0, 0, -r)]
    tris = [
        (0, 2, 4), (2, 1, 4), (1, 3, 4), (3, 0, 4),
        (2, 0, 5), (1, 2, 5), (3, 1, 5), (0, 3, 5),
    ]
    return build_complex(verts, tris)


def torus(k: int = 3, r_major: float = 2.0, r_minor: float = 1.0) -> SimplicialComplex:
    """k x k grid torus, each square split along a diagonal (k >= 3)."""
    if k < 3:
        raise ValueError("grid torus needs k >= 3 to stay simplicial")
    verts = []
    for i in range(k):
        for j in range(k):
            u = 2 * math.pi * i / k
            v = 2 * math.pi * j / k
            x = (r_major + r_minor * math.cos(v)) * math.cos(u)
            y = (r_major + r_minor * math.cos(v)) * math.sin(u)
            z = r_minor * math.sin(v)
            verts.append((x, y, z))
    idx = lambda i, j: (i % k) * k + (j % k)
    tris = []
    for i in range(k):
        for j in range(k):
            a, b = idx(i, j), idx(i + 1, j)
            c, d = idx(i, j + 1), idx(i + 1, j + 1)
            tris.append((a, b, d))
            tris.append((a, d, c))
    return build_complex(verts, tris)


def mobius_minimal() -> SimplicialComplex:
    """Five-vertex Moebius strip: triangles (i, i+1, i+2) around a pentagon."""
    verts = []
    for i in range(5):
        a = 2 * math.pi * i / 5
        verts.append((math.cos(a), math.sin(a), 0.2 * (-1) ** i))
    tris = [tuple((i + j) % 5 for j in range(3)) for i in range(5)]
    return build_complex(verts, tris)


def mobius_strip(segments: int = 6, width: float = 1.0, radius: float = 2.0,
                 ) -> SimplicialComplex:
    """Moebius band of 2*segments triangles on the standard embedding."""
    if segments < 3:
        raise ValueError("need at least 3 segments")
    verts = []
    for i in range(segments):
        u = math.pi * i / segments  # half-turn over the full loop
        for s in (-0.5, 0.5):
            w = s * width
            x = (radius + w * math.cos(u)) * math.cos(2 * u)
            y = (radius + w * math.cos(u)) * math.sin(2 * u)
            z = w * math.sin(u)
            verts.append((x, y, z))
    lo = lambda i: 2 * (i % segments)
    hi = lambda i: 2 * (i % segments) + 1
    tris = []
    for i in range(segments):
        if i < segments - 1:
            a, b, c, d = lo(i), hi(i), lo(i + 1), hi(i + 1)
        else:
            # seam with the orientation flip
            a, b, c, d = lo(i), hi(i), hi(0), lo(0)
        tris.append((a, b, d))
        tris.append((a, d, c))
    return build_complex(verts, tris)


def projective_plane() -> SimplicialComplex:
    """Minimal six-vertex real projective plane: 10 triangles, 15 edges.

    RP^2 does not embed in 3-space, so the coordinates only place the
    vertices; the triangles cross each other and only the combinatorics
    (torsion 2 in degree 1, non-orientable) mean anything."""
    verts = [(math.cos(1.1 * i), math.sin(1.1 * i), 0.1 * i) for i in range(6)]
    tris = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
            (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3)]
    return build_complex(verts, tris)


def uniform_refine(complex: SimplicialComplex) -> SimplicialComplex:
    """Midpoint subdivision of a 1- or 2-dimensional complex."""
    if complex.dim > 2:
        raise ValueError("uniform refinement implemented up to dimension 2")
    verts = list(complex.vertices)
    mid: dict[tuple, int] = {}

    def midpoint(a: int, b: int) -> int:
        key = (min(a, b), max(a, b))
        if key not in mid:
            va, vb = verts[a], verts[b]
            verts.append(tuple((x + y) / 2 for x, y in zip(va, vb)))
            mid[key] = len(verts) - 1
        return mid[key]

    tops = []
    if complex.dim == 1:
        for (a, b) in complex.simplices[1]:
            m = midpoint(a, b)
            tops.extend([(a, m), (m, b)])
    else:
        for (a, b, c) in complex.simplices[2]:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            tops.extend([(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)])
    return build_complex(verts, tops)


BUILDERS = {
    "triangle": single_triangle,
    "tetrahedron": solid_tetrahedron,
    "disk": disk,
    "annulus": annulus,
    "sphere": sphere_octahedron,
    "torus": torus,
    "mobius": mobius_minimal,
    "mobius-strip": mobius_strip,
    "rp2": projective_plane,
}

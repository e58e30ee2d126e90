"""Orientation sign algebra: frame concatenation, twisting, boundary signs.

A frame is an ordered list of spanning vectors; arcs and helices from the
pictorial vocabulary reduce to 2-frames and 3-frames.  Every comparison of
orientations bottoms out in a determinant sign.

Convention (fixed): converting between external (twisted) and internal
(untwisted) orientations concatenates external-first, and the result must
agree with the ambient manifold orientation.  Boundary orientation is
outward-normal-first.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exact import det, perm_sign, rank
from .poly import _as_fraction


class FrameKind(enum.Enum):
    INTERNAL = "internal"
    EXTERNAL = "external"


class RelativeSign(enum.Enum):
    PLUS = 1
    MINUS = -1

    def __mul__(self, other: "RelativeSign") -> "RelativeSign":
        if not isinstance(other, RelativeSign):
            return NotImplemented
        return RelativeSign(self.value * other.value)

    def __neg__(self) -> "RelativeSign":
        return RelativeSign(-self.value)

    @staticmethod
    def of(x) -> "RelativeSign":
        if x > 0:
            return RelativeSign.PLUS
        if x < 0:
            return RelativeSign.MINUS
        raise ValueError("degenerate configuration has no sign")


@dataclass(frozen=True)
class OrientationFrame:
    """Ordered list of k independent direction vectors in n-space."""

    vectors: tuple
    kind: FrameKind = FrameKind.INTERNAL

    def __post_init__(self):
        vecs = tuple(tuple(_as_fraction(x) for x in v) for v in self.vectors)
        if vecs:
            n = len(vecs[0])
            if any(len(v) != n for v in vecs):
                raise ValueError("frame vectors disagree on dimension")
            if len(vecs) > n:
                raise ValueError("more vectors than the ambient dimension")
            if rank(vecs) != len(vecs):
                raise ValueError("frame vectors must be linearly independent")
        object.__setattr__(self, "vectors", vecs)

    @property
    def size(self) -> int:
        return len(self.vectors)

    @property
    def ambient_dim(self) -> int:
        return len(self.vectors[0]) if self.vectors else 0

    def determinant(self) -> Fraction:
        """Determinant relative to the standard basis (full frames only)."""
        if self.size != self.ambient_dim:
            raise ValueError("determinant needs a full frame")
        return det(self.vectors)

    def sign(self) -> RelativeSign:
        return RelativeSign.of(self.determinant())


def concat(first: OrientationFrame, second: OrientationFrame) -> OrientationFrame:
    """Join two frames, the second onto the end of the first."""
    vectors = first.vectors + second.vectors
    n = len(vectors[0]) if vectors else 0
    kind = FrameKind.INTERNAL if len(vectors) == n else first.kind
    try:
        return OrientationFrame(vectors, kind)
    except ValueError as exc:
        raise ValueError(f"degenerate concatenation: {exc}") from exc


def relative_sign(a: OrientationFrame, b: OrientationFrame) -> RelativeSign:
    """Orientation of full frame a relative to full frame b."""
    return RelativeSign.of(a.determinant() * b.determinant())


def untwist(external: OrientationFrame, tangent: OrientationFrame,
            manifold_orientation: OrientationFrame) -> RelativeSign:
    """Sign of external-then-tangent against the manifold orientation.

    +1 means the supplied external orientation is the twisting of the
    supplied internal one under the fixed external-first convention."""
    n = manifold_orientation.ambient_dim
    if manifold_orientation.size != n:
        raise ValueError("manifold orientation must be a full frame")
    if external.size + tangent.size != n:
        raise ValueError("external frame must complement the tangent frame")
    joined = concat(external, tangent)
    return relative_sign(joined, manifold_orientation)


def induced_boundary_sign(cell: Sequence[int], facet: Sequence[int]) -> RelativeSign:
    """Sign of the orientation a facet inherits from an ordered simplex.

    Matches the boundary-matrix entry: omit position j for (-1)^j, times
    the permutation aligning the facet's stored vertex order."""
    cell = tuple(cell)
    facet = tuple(facet)
    missing = set(cell) - set(facet)
    if len(missing) != 1 or set(facet) - set(cell):
        raise ValueError(f"{facet} is not a facet of {cell}")
    omitted = missing.pop()
    j = cell.index(omitted)
    reduced = cell[:j] + cell[j + 1:]
    align = perm_sign([reduced.index(v) for v in facet])
    if align == 0:
        raise ValueError("facet repeats vertices")
    return RelativeSign.of((-1) ** j * align)

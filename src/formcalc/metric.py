"""Constant metrics with signature: norms, causal classes, duals, angles.

Only flat (constant-coefficient) metrics are supported.  The Lorentzian
convention is mostly-plus: one minus sign, on the time direction.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .exact import det, inertia, inverse
from .poly import _as_fraction


def _fraction_sqrt(x: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None."""
    if x < 0:
        return None
    n, d = x.numerator, x.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


class CausalClass(enum.Enum):
    TIMELIKE = "timelike"
    LIGHTLIKE = "lightlike"
    SPACELIKE = "spacelike"


class TimeOrientation(enum.Enum):
    FUTURE = "future"
    PAST = "past"
    NONE = "n/a"


@dataclass(frozen=True)
class Metric:
    """Symmetric nonsingular constant metric on n-space."""

    matrix: tuple  # tuple of row tuples of Fraction
    signature: tuple = field(init=False)

    def __post_init__(self):
        rows = tuple(tuple(_as_fraction(v) for v in row) for row in self.matrix)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("metric matrix must be square")
        for i in range(n):
            for j in range(n):
                if rows[i][j] != rows[j][i]:
                    raise ValueError("metric matrix must be symmetric")
        object.__setattr__(self, "matrix", rows)
        sig = inertia(rows)
        if any(s == 0 for s in sig):
            raise ValueError("metric matrix is singular")
        object.__setattr__(self, "signature", tuple(sig))

    # -- constructors -------------------------------------------------
    @staticmethod
    def diag(*entries) -> "Metric":
        n = len(entries)
        return Metric(tuple(
            tuple(_as_fraction(entries[i]) if i == j else Fraction(0) for j in range(n))
            for i in range(n)))

    @staticmethod
    def euclidean(n: int) -> "Metric":
        return Metric.diag(*([1] * n))

    @staticmethod
    def minkowski(n: int) -> "Metric":
        """Signature (-,+,...,+) with coordinate 0 as time."""
        return Metric.diag(-1, *([1] * (n - 1)))

    # -- basics -------------------------------------------------------
    @property
    def dim(self) -> int:
        return len(self.matrix)

    @property
    def is_riemannian(self) -> bool:
        return all(s > 0 for s in self.signature)

    @property
    def is_lorentzian(self) -> bool:
        return sorted(self.signature)[0] < 0 and sum(1 for s in self.signature if s < 0) == 1

    def det(self) -> Fraction:
        return det(self.matrix)

    @cached_property
    def inverse_matrix(self) -> tuple:
        """g^-1 as a tuple of row tuples, computed on first use."""
        return tuple(map(tuple, inverse(self.matrix)))

    def inner(self, u: Sequence, v: Sequence) -> Fraction:
        u = [_as_fraction(x) for x in u]
        v = [_as_fraction(x) for x in v]
        if len(u) != self.dim or len(v) != self.dim:
            raise ValueError(f"vectors of {len(u)} and {len(v)} components "
                             f"for a metric of dimension {self.dim}")
        return sum(self.matrix[i][j] * u[i] * v[j]
                   for i in range(self.dim) for j in range(self.dim))

    @cached_property
    def _volume_scale(self) -> Fraction | None:
        return _fraction_sqrt(abs(self.det()))

    def volume_scale(self) -> Fraction:
        """sqrt|det g|, exact; raises if not a rational square."""
        s = self._volume_scale
        if s is None:
            raise ValueError("sqrt|det g| is irrational; use an orthonormal-scaled metric")
        return s

    def __str__(self) -> str:
        if all(self.matrix[i][j] == 0 for i in range(self.dim)
               for j in range(self.dim) if i != j):
            return "diag(" + ",".join(str(self.matrix[i][i]) for i in range(self.dim)) + ")"
        return ";".join(" ".join(str(v) for v in row) for row in self.matrix)


def classify(v: Sequence, g: Metric) -> tuple[CausalClass, TimeOrientation]:
    """Causal class of a nonzero vector; future/past from the time component.

    Requires a Lorentzian metric with the minus sign on coordinate 0 for
    the time orientation; Riemannian vectors are all spacelike.
    """
    v = [_as_fraction(x) for x in v]
    if all(x == 0 for x in v):
        raise ValueError("cannot classify the zero vector")
    q = g.inner(v, v)
    if g.is_riemannian:
        return CausalClass.SPACELIKE, TimeOrientation.NONE
    if not g.is_lorentzian:
        raise ValueError("classification needs a Riemannian or Lorentzian metric")
    time_axis = next(i for i in range(g.dim) if g.matrix[i][i] < 0)
    if q < 0:
        cls = CausalClass.TIMELIKE
    elif q == 0:
        cls = CausalClass.LIGHTLIKE
    else:
        return CausalClass.SPACELIKE, TimeOrientation.NONE
    t = v[time_axis]
    return cls, (TimeOrientation.FUTURE if t > 0 else TimeOrientation.PAST)


def gamma_factor(u: Sequence, v: Sequence, g: Metric):
    """|g(u, v)| for unit timelike pairs; the cosine of the angle when g
    is Riemannian (then inputs need not be unit)."""
    if g.is_riemannian:
        uu, vv = g.inner(u, u), g.inner(v, v)
        if uu == 0 or vv == 0:
            raise ValueError("zero-length vector")
        return float(g.inner(u, v)) / math.sqrt(float(uu) * float(vv))
    if not g.is_lorentzian:
        raise ValueError("gamma factor needs a Lorentzian metric")
    for w in (u, v):
        q = g.inner(w, w)
        if q != -1:
            cls, _ = classify(w, g)
            if cls is not CausalClass.TIMELIKE:
                raise ValueError("gamma factor needs timelike vectors")
            raise ValueError("gamma factor needs unit timelike vectors (g(V,V) = -1)")
    cu, ou = classify(u, g)
    cv, ov = classify(v, g)
    if ou is not ov:
        raise ValueError("vectors must share a time orientation")
    return abs(g.inner(u, v))


def orthogonal_complement(v: Sequence, g: Metric) -> list[list[Fraction]]:
    """Basis of the g-orthogonal complement of a nonzero vector (n-1 vectors)."""
    v = [_as_fraction(x) for x in v]
    if all(x == 0 for x in v):
        raise ValueError("zero vector has no orthogonal complement")
    n = g.dim
    # one linear condition: sum_j (g v)_j w_j = 0
    gv = [sum(g.matrix[i][j] * v[j] for j in range(n)) for i in range(n)]
    pivot = next(i for i in range(n) if gv[i] != 0)
    basis = []
    for j in range(n):
        if j == pivot:
            continue
        w = [Fraction(0)] * n
        w[j] = Fraction(1)
        w[pivot] = -gv[j] / gv[pivot]
        basis.append(w)
    return basis


def form_inner(a_terms: dict, b_terms: dict, g: Metric) -> Fraction:
    """Induced inner product of two constant p-forms given as
    {index-set: Fraction} coefficient maps."""
    ginv = g.inverse_matrix
    total = Fraction(0)
    for idx_a, ca in a_terms.items():
        for idx_b, cb in b_terms.items():
            if len(idx_a) != len(idx_b):
                raise ValueError("degree mismatch")
            sub = [[ginv[i][j] for j in idx_b] for i in idx_a]
            total += ca * cb * det(sub)
    return total


def form_magnitude(form, g: Metric, point=None) -> tuple[float, int]:
    """(sqrt(|<w,w>|), sign of <w,w>) for a form evaluated at a point.

    ``form`` is a PolyForm (its coefficients are evaluated at ``point``,
    default: the origin)."""
    if form.ambient_dim != g.dim:
        raise ValueError(f"the form has dimension {form.ambient_dim}, the metric {g.dim}")
    if point is None:
        point = [0] * form.ambient_dim
    terms = {idx: p.eval(point) for idx, p in form.terms.items()}
    q = form_inner(terms, terms, g)
    sign = (q > 0) - (q < 0)
    return math.sqrt(abs(float(q))), sign


def metric_dual_vector(omega_terms: dict, g: Metric) -> list[Fraction]:
    """Sharp: constant 1-form coefficients -> vector components."""
    ginv = g.inverse_matrix
    n = g.dim
    co = [omega_terms.get((i,), Fraction(0)) for i in range(n)]
    return [sum(ginv[i][j] * co[j] for j in range(n)) for i in range(n)]


def induced_metric(jacobian: Sequence[Sequence], g: Metric) -> Metric:
    """Pullback of g along an affine map with the given n x m Jacobian
    (columns = images of the domain basis vectors)."""
    J = [[_as_fraction(v) for v in row] for row in jacobian]
    n = len(J)
    if n != g.dim:
        raise ValueError("Jacobian rows must match the metric dimension")
    m = len(J[0]) if J else 0
    rows = []
    for a in range(m):
        row = []
        for b in range(m):
            row.append(sum(g.matrix[i][j] * J[i][a] * J[j][b]
                           for i in range(n) for j in range(n)))
        rows.append(tuple(row))
    try:
        return Metric(tuple(rows))
    except ValueError as exc:
        raise ValueError(f"induced metric is degenerate: {exc}") from exc


def parse_metric(text: str) -> Metric:
    """Parse the CLI metric literal: ``diag(-1,1,1,1)`` or row syntax
    ``a b c; b d e; c e f``."""
    text = text.strip()
    if text.startswith("diag(") and text.endswith(")"):
        entries = [Fraction(t) for t in text[5:-1].split(",")]
        return Metric.diag(*entries)
    rows = [tuple(Fraction(v) for v in row.split()) for row in text.split(";") if row.strip()]
    if not rows:
        raise ValueError("empty metric literal")
    return Metric(tuple(rows))

"""Constant metrics with signature: norms, causal classes, duals, angles.

Only flat (constant-coefficient) metrics are supported.  The Lorentzian
convention is mostly-plus: one minus sign, on the time direction.

Everything the operations read from a metric is in its ``MetricTables``:
the signature, a timelike reference vector, det g and g^-1 (all four from
one symmetric congruence), the nonzero entries of g and g^-1 row by row,
sqrt|det g|, and, per index set I asked for, the Hodge image of dx^I.
The Hodge star and the induced inner product of forms are both repeated
contractions (``exact.contract``) by rows of g^-1: *dx^I is the volume
form contracted by the rows of I in turn, and <dx^I, dx^K> is dx^K
contracted the same way down to a scalar.  Equal matrix values share one
table; each entry is computed on first use, and ``metric_tables`` keeps
the last TABLE_CACHE_SIZE matrices, keyed on their entries as integer
(numerator, denominator) pairs.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence

from .exact import contract, diagonalize
from .poly import _as_fraction

TABLE_CACHE_SIZE = 128
_IRRATIONAL_SCALE = "sqrt|det g| is irrational; use an orthonormal-scaled metric"


def _fraction_sqrt(x: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None."""
    if x < 0:
        return None
    n, d = x.numerator, x.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def _nonzero_rows(matrix) -> tuple:
    return tuple(tuple((j, v) for j, v in enumerate(row) if v) for row in matrix)


def _contract_rows(terms: dict, ginv, I: tuple) -> dict:
    """{index set: Fraction} contracted by rows i of g^-1 for i in I, in that
    order (the vectors (dx^i)^sharp); zero sums are dropped after each step."""
    for i in I:
        terms = {K: c for K, c in contract(terms, ginv[i]).items() if c}
    return terms


class MetricTables:
    """What the metric operations read, for one matrix value; each entry is
    computed on first use, and the Hodge images are kept in a plain dict of
    tuples.  Every metric equal to that value shares these."""

    def __init__(self, matrix: tuple):
        self.matrix = matrix
        self.dim = len(matrix)
        self._hodge: dict[tuple, tuple] = {}

    @cached_property
    def det(self) -> Fraction:
        """det g, the product of the congruence's pivots d_k."""
        return math.prod(self._diagonal[0], start=Fraction(1))

    @cached_property
    def inverse(self) -> tuple:
        """g^-1 = sum_k b_k b_k^T / d_k over the congruence, as row tuples."""
        terms = list(zip(*self._diagonal))
        return tuple(tuple(sum((b[i] * b[j] / d for d, b in terms if b[i] and b[j]), Fraction(0))
                           for j in range(self.dim)) for i in range(self.dim))

    @cached_property
    def rows(self) -> tuple:
        """Row i of g as its nonzero (j, g_ij) pairs."""
        return _nonzero_rows(self.matrix)

    @cached_property
    def inverse_rows(self) -> tuple:
        """Row i of g^-1 as its nonzero (j, g^ij) pairs."""
        return _nonzero_rows(self.inverse)

    @cached_property
    def volume_scale(self) -> Fraction | None:
        """sqrt|det g| when it is rational, else None."""
        return _fraction_sqrt(abs(self.det))

    @cached_property
    def _diagonal(self) -> tuple:
        return diagonalize(self.matrix)

    @cached_property
    def signature(self) -> tuple:
        """The signs of the eigenvalues of g, ascending; 0 for a null direction."""
        return tuple(sorted((d > 0) - (d < 0) for d in self._diagonal[0]))

    @cached_property
    def time_reference(self) -> tuple | None:
        """A timelike vector T: e_t for the first g_tt < 0, else the vector of
        the first negative pivot of ``diagonalize``; None when g has none."""
        return next((tuple(b) for d, b in zip(*self._diagonal) if d < 0), None)

    def hodge_image(self, I: tuple) -> tuple:
        """The Hodge star of dx^I as ((C, factor), ...) with *dx^I = sum
        factor dx^C: the volume form sqrt|det g| dx^0 ^ ... ^ dx^(n-1)
        contracted by (dx^i)^sharp for i in I, in that order."""
        table = self._hodge.get(I)
        if table is None:
            scale = self.volume_scale
            if scale is None:
                raise ValueError(_IRRATIONAL_SCALE)
            volume = {tuple(range(self.dim)): scale}
            table = self._hodge[I] = tuple(_contract_rows(volume, self.inverse, I).items())
        return table


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def metric_tables(key: tuple) -> MetricTables:
    """The one ``MetricTables`` of a matrix value, given as row tuples of
    (numerator, denominator) int pairs in lowest terms: ints hash far
    faster than Fractions."""
    return MetricTables(tuple(tuple(Fraction(n, d) for n, d in row) for row in key))


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

    def __post_init__(self):
        rows = tuple(tuple(_as_fraction(v) for v in row) for row in self.matrix)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("metric matrix must be square")
        # the matrix value as int pairs: the key of its shared tables
        key = tuple(tuple((v.numerator, v.denominator) for v in row) for row in rows)
        if tuple(zip(*key)) != key:
            raise ValueError("metric matrix must be symmetric")
        object.__setattr__(self, "matrix", rows)
        object.__setattr__(self, "_key", key)
        if 0 in self.signature:
            raise ValueError("metric matrix is singular")

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
    def signature(self) -> tuple:
        """The signs of the eigenvalues, ascending: negatives first."""
        return self.tables.signature

    @property
    def is_riemannian(self) -> bool:
        return all(s > 0 for s in self.signature)

    @property
    def is_lorentzian(self) -> bool:
        return self.signature.count(-1) == 1

    @cached_property
    def tables(self) -> MetricTables:
        """The tables of this matrix value, shared with every equal metric."""
        return metric_tables(self._key)

    def det(self) -> Fraction:
        return self.tables.det

    def inner(self, u: Sequence, v: Sequence) -> Fraction:
        u = [_as_fraction(x) for x in u]
        v = [_as_fraction(x) for x in v]
        if len(u) != self.dim or len(v) != self.dim:
            raise ValueError(f"vectors of {len(u)} and {len(v)} components "
                             f"for a metric of dimension {self.dim}")
        return sum(gij * ui * v[j]
                   for ui, row in zip(u, self.tables.rows) for j, gij in row)

    def volume_scale(self) -> Fraction:
        """sqrt|det g|, exact; raises if not a rational square."""
        s = self.tables.volume_scale
        if s is None:
            raise ValueError(_IRRATIONAL_SCALE)
        return s

    def __str__(self) -> str:
        if all(self.matrix[i][j] == 0 for i in range(self.dim)
               for j in range(self.dim) if i != j):
            return "diag(" + ",".join(str(self.matrix[i][i]) for i in range(self.dim)) + ")"
        return ";".join(" ".join(str(v) for v in row) for row in self.matrix)


def classify(v: Sequence, g: Metric) -> tuple[CausalClass, TimeOrientation]:
    """Causal class of a nonzero vector from g(v, v); a timelike or
    lightlike vector is future when g(v, T) < 0, with T the metric's
    timelike reference (e_t for a diagonal metric with g_tt < 0, so future
    means v_t > 0 there).  Riemannian vectors are all spacelike.
    """
    v = [_as_fraction(x) for x in v]
    if all(x == 0 for x in v):
        raise ValueError("cannot classify the zero vector")
    q = g.inner(v, v)
    if g.is_riemannian:
        return CausalClass.SPACELIKE, TimeOrientation.NONE
    if not g.is_lorentzian:
        raise ValueError("classification needs a Riemannian or Lorentzian metric")
    if q > 0:
        return CausalClass.SPACELIKE, TimeOrientation.NONE
    cls = CausalClass.TIMELIKE if q < 0 else CausalClass.LIGHTLIKE
    # a causal vector is never g-orthogonal to a timelike one
    future = g.inner(v, g.tables.time_reference) < 0
    return cls, (TimeOrientation.FUTURE if future else TimeOrientation.PAST)


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


def form_inner(a_terms: dict, b_terms: dict, g: Metric) -> Fraction:
    """Induced inner product of two constant p-forms given as
    {index-set: Fraction} coefficient maps, index sets strictly increasing:
    the sum over I of a_I times b contracted by (dx^i)^sharp for i in I.
    It never reads sqrt|det g|, so it holds when that is irrational."""
    total = Fraction(0)
    if not (a_terms and b_terms):
        return total
    degrees = {len(idx) for idx in a_terms} | {len(idx) for idx in b_terms}
    if len(degrees) > 1:
        raise ValueError("degree mismatch")
    for idx in (*a_terms, *b_terms):
        if not all(0 <= i < j for i, j in zip(idx, idx[1:] + (g.dim,))):
            raise ValueError(f"index sets must be strictly increasing in 0..{g.dim - 1}")
    ginv = g.tables.inverse
    for idx_a, ca in a_terms.items():
        total += ca * _contract_rows(b_terms, ginv, idx_a).get((), 0)
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
    co = [omega_terms.get((i,), Fraction(0)) for i in range(g.dim)]
    return [sum(gij * co[j] for j, gij in row) for row in g.tables.inverse_rows]


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

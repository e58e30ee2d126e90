"""Exact exterior algebra on flat n-space.

Forms are sums of basis terms dx^I (I a strictly increasing index set)
with polynomial coefficients over Q, plus a straight/twisted parity tag.
All identities (antisymmetry, d*d = 0, Leibniz, naturality of pullback,
double Hodge dual) hold exactly, not to tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Mapping, Sequence

from .exact import det, perm_sign
from .metric import Metric, metric_dual_vector
from .parity import Parity
from .poly import Poly, _as_fraction, parse_poly
from .simplicial import MeshFormatError


def _coerce_poly(nvars: int, value) -> Poly:
    if isinstance(value, Poly):
        if value.nvars != nvars:
            raise ValueError("coefficient variable count mismatch")
        return value
    return Poly.constant(nvars, value)


@dataclass(frozen=True)
class PolyForm:
    """Degree-p form on n-space with polynomial coefficients."""

    ambient_dim: int
    degree: int
    terms: Mapping[tuple, Poly] = field(default_factory=dict)
    parity: Parity = Parity.STRAIGHT

    def __post_init__(self):
        n, p = self.ambient_dim, self.degree
        if not 0 <= p <= n:
            raise ValueError(f"degree {p} out of range for dimension {n}")
        clean = {}
        for idx, coeff in dict(self.terms).items():
            idx = tuple(int(i) for i in idx)
            if len(idx) != p:
                raise ValueError(f"index set {idx} has wrong size for degree {p}")
            if list(idx) != sorted(set(idx)) or (idx and not (0 <= idx[0] and idx[-1] < n)):
                raise ValueError(f"index set {idx} must be strictly increasing in range")
            coeff = _coerce_poly(n, coeff)
            if not coeff.is_zero():
                clean[idx] = clean.get(idx, Poly.zero(n)) + coeff
        object.__setattr__(self, "terms", {i: c for i, c in clean.items() if not c.is_zero()})

    # -- constructors -------------------------------------------------
    @staticmethod
    def zero(n: int, p: int, parity: Parity = Parity.STRAIGHT) -> "PolyForm":
        return PolyForm(n, p, {}, parity)

    @staticmethod
    def scalar(n: int, value, parity: Parity = Parity.STRAIGHT) -> "PolyForm":
        return PolyForm(n, 0, {(): _coerce_poly(n, value)}, parity)

    @staticmethod
    def basis(n: int, indices: Sequence[int], parity: Parity = Parity.STRAIGHT) -> "PolyForm":
        """dx^{i1} wedge ... wedge dx^{ip} for possibly unsorted indices."""
        sign = perm_sign(indices)
        if sign == 0:
            raise ValueError("repeated index in basis form")
        return PolyForm(n, len(indices), {tuple(sorted(indices)): sign}, parity)

    # -- ring structure -----------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "PolyForm") -> "PolyForm":
        if not isinstance(other, PolyForm):
            return NotImplemented
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degree")
        if self.parity is not other.parity:
            raise ValueError("cannot add forms of different twistedness")
        out = dict(self.terms)
        for idx, c in other.terms.items():
            out[idx] = out.get(idx, Poly.zero(self.ambient_dim)) + c
        return PolyForm(self.ambient_dim, self.degree, out, self.parity)

    def __sub__(self, other: "PolyForm") -> "PolyForm":
        return self + other.scale(-1)

    def __neg__(self) -> "PolyForm":
        return self.scale(-1)

    def scale(self, scalar) -> "PolyForm":
        """Multiply by a scalar field (polynomial or rational constant)."""
        s = _coerce_poly(self.ambient_dim, scalar)
        return PolyForm(self.ambient_dim, self.degree,
                        {idx: s * c for idx, c in self.terms.items()}, self.parity)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyForm):
            return NotImplemented
        return (self.ambient_dim == other.ambient_dim and self.degree == other.degree
                and self.parity is other.parity and self.terms == dict(other.terms))

    def __hash__(self):
        return hash((self.ambient_dim, self.degree, self.parity,
                     frozenset(self.terms.items())))

    # -- exterior algebra ----------------------------------------------
    def wedge(self, other: "PolyForm") -> "PolyForm":
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        n = self.ambient_dim
        p = self.degree + other.degree
        parity = self.parity * other.parity
        if p > n:
            # tangential overflow: the intersection picture degenerates
            return PolyForm.zero(n, n, parity)
        out: dict = {}
        for ia, ca in self.terms.items():
            for ib, cb in other.terms.items():
                sign = perm_sign(ia + ib)
                if sign == 0:
                    continue
                idx = tuple(sorted(ia + ib))
                out[idx] = out.get(idx, Poly.zero(n)) + sign * ca * cb
        return PolyForm(n, p, out, parity)

    def d(self) -> "PolyForm":
        """Exterior derivative; parity preserved, d(d(w)) = 0."""
        n = self.ambient_dim
        if self.degree == n:
            return PolyForm.zero(n, n, self.parity)
        out: dict = {}
        for idx, coeff in self.terms.items():
            for i in range(n):
                dc = coeff.diff(i)
                if dc.is_zero():
                    continue
                sign = perm_sign((i,) + idx)
                if sign == 0:
                    continue
                merged = tuple(sorted((i,) + idx))
                out[merged] = out.get(merged, Poly.zero(n)) + sign * dc
        return PolyForm(n, self.degree + 1, out, self.parity)

    def interior(self, V: "PolyVectorField") -> "PolyForm":
        """Contraction by a vector field; degree drops, parity multiplies."""
        if self.degree == 0:
            return PolyForm.zero(self.ambient_dim, 0, self.parity * V.parity)
        if V.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        n = self.ambient_dim
        out: dict = {}
        for idx, coeff in self.terms.items():
            for j, i in enumerate(idx):
                comp = V.components[i]
                if comp.is_zero():
                    continue
                rest = idx[:j] + idx[j + 1:]
                out[rest] = out.get(rest, Poly.zero(n)) + ((-1) ** j) * comp * coeff
        return PolyForm(n, self.degree - 1, out, self.parity * V.parity)

    def pullback(self, phi: Sequence[Poly]) -> "PolyForm":
        """Pullback along the polynomial map u -> phi(u) into this form's space.

        ``phi`` has ambient_dim entries, each a polynomial in the m domain
        variables.  Degree above m gives the zero form (tangential case)."""
        n = self.ambient_dim
        if len(phi) != n:
            raise ValueError(f"map must have {n} component polynomials")
        m = phi[0].nvars if phi else 0
        if any(c.nvars != m for c in phi):
            raise ValueError("map components disagree on domain arity")
        if self.degree > m:
            return PolyForm.zero(m, m, self.parity)
        # phi* dx_i as a 1-form on the domain
        dphi = [PolyForm(m, 1, {(j,): phi[i].diff(j) for j in range(m)})
                for i in range(n)]
        result = PolyForm.zero(m, self.degree, self.parity)
        for idx, coeff in self.terms.items():
            term = PolyForm.scalar(m, coeff.subs(list(phi)))
            for i in idx:
                term = term.wedge(dphi[i])
            result = result + PolyForm(m, term.degree, term.terms, self.parity)
        return result

    def hodge(self, g: Metric) -> "PolyForm":
        """Hodge dual for a constant metric; degree n-p, parity flipped.

        Satisfies hodge(hodge(w)) = (-1)^{p(n-p)} sgn(det g) w."""
        n = self.ambient_dim
        if g.dim != n:
            raise ValueError("metric dimension mismatch")
        p = self.degree
        ginv = g.inverse_matrix()
        scale = g.volume_scale()
        full = tuple(range(n))
        out: dict = {}
        ksets = list(combinations(full, p))
        for idx, coeff in self.terms.items():
            for K in ksets:
                sub = [[ginv[i][j] for j in K] for i in idx]
                d = det(sub)
                if d == 0:
                    continue
                comp = tuple(i for i in full if i not in K)
                sign = perm_sign(K + comp)
                out[comp] = out.get(comp, Poly.zero(n)) + (scale * d * sign) * coeff
        return PolyForm(n, n - p, out, self.parity.flip())

    # -- pairings -------------------------------------------------------
    def pair(self, V: "PolyVectorField") -> Poly:
        """Degree-1 pairing with a vector field: the crossing-count scalar."""
        if self.degree != 1:
            raise ValueError("pairing is defined for 1-forms")
        if V.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        total = Poly.zero(self.ambient_dim)
        for (i,), coeff in self.terms.items():
            total = total + coeff * V.components[i]
        return total

    def sharp(self, g: Metric) -> "PolyVectorField":
        """Metric dual of a 1-form with constant coefficients."""
        if self.degree != 1:
            raise ValueError("sharp is defined for 1-forms")
        const = {}
        for idx, coeff in self.terms.items():
            if not coeff.is_constant():
                raise ValueError("sharp needs constant coefficients")
            const[idx] = coeff.constant_value()
        comps = metric_dual_vector(const, g)
        n = self.ambient_dim
        return PolyVectorField(n, tuple(Poly.constant(n, c) for c in comps), self.parity)

    # -- predicates -----------------------------------------------------
    def is_closed(self) -> bool:
        return self.d().is_zero()

    def is_integrable(self) -> bool:
        """Frobenius test for 1-forms: w wedge dw = 0 identically."""
        if self.degree != 1:
            raise ValueError("integrability test is for 1-forms")
        return self.wedge(self.d()).is_zero()

    # -- formatting -------------------------------------------------------
    def __str__(self) -> str:
        body = "; ".join(
            f"[{','.join(str(i) for i in idx)}]: {coeff}"
            for idx, coeff in sorted(self.terms.items()))
        head = f"n={self.ambient_dim} p={self.degree} parity={self.parity}"
        return head + ("; " + body if body else "")

    def __repr__(self) -> str:
        return f"PolyForm({self})"


@dataclass(frozen=True)
class PolyVectorField:
    """Vector field on n-space with polynomial components."""

    ambient_dim: int
    components: tuple
    parity: Parity = Parity.STRAIGHT

    def __post_init__(self):
        comps = tuple(_coerce_poly(self.ambient_dim, c) for c in self.components)
        if len(comps) != self.ambient_dim:
            raise ValueError("component count must equal the ambient dimension")
        object.__setattr__(self, "components", comps)

    @staticmethod
    def constant(values: Sequence, parity: Parity = Parity.STRAIGHT) -> "PolyVectorField":
        n = len(values)
        return PolyVectorField(n, tuple(Poly.constant(n, _as_fraction(v)) for v in values),
                               parity)

    @staticmethod
    def basis(n: int, i: int, parity: Parity = Parity.STRAIGHT) -> "PolyVectorField":
        return PolyVectorField.constant([1 if j == i else 0 for j in range(n)], parity)

    def apply_to_scalar(self, f) -> Poly:
        """Directional derivative: pair(d f, V)."""
        f = _coerce_poly(self.ambient_dim, f)
        df = PolyForm.scalar(self.ambient_dim, f).d()
        return df.pair(self)

    def flat(self, g: Metric) -> PolyForm:
        """Metric-dual 1-form g(V, .)."""
        n = self.ambient_dim
        terms = {}
        for i in range(n):
            c = Poly.zero(n)
            for j in range(n):
                c = c + g.matrix[i][j] * self.components[j]
            terms[(i,)] = c
        return PolyForm(n, 1, terms, self.parity)

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.components) + ")"


# -- module-level operation aliases (the operation vocabulary) ----------

def add(a: PolyForm, b: PolyForm) -> PolyForm:
    return a + b


def scale(scalar, w: PolyForm) -> PolyForm:
    return w.scale(scalar)


def wedge(a: PolyForm, b: PolyForm) -> PolyForm:
    return a.wedge(b)


def exterior_derivative(w: PolyForm) -> PolyForm:
    return w.d()


def pair(w: PolyForm, V: PolyVectorField) -> Poly:
    return w.pair(V)


def interior_product(V: PolyVectorField, w: PolyForm) -> PolyForm:
    return w.interior(V)


def pullback(phi: Sequence[Poly], w: PolyForm) -> PolyForm:
    return w.pullback(phi)


def is_integrable_1form(w: PolyForm) -> bool:
    return w.is_integrable()


def hodge(w: PolyForm, g: Metric) -> PolyForm:
    return w.hodge(g)


# -- text serialization ---------------------------------------------------

def form_to_text(w: PolyForm) -> str:
    return str(w)


def form_from_text(text: str) -> PolyForm:
    """Parse the ``form_to_text`` format:
    ``n=3 p=2 parity=twisted; [0,1]: 3/2*x0^2; [1,2]: 1``.

    Malformed text raises MeshFormatError."""
    parts = [p.strip() for p in text.strip().split(";")]
    meta = dict(token.partition("=")[::2] for token in parts[0].split())
    try:
        if "n" not in meta or "p" not in meta:
            raise ValueError(f"header {parts[0]!r} needs n= and p=")
        n, p = int(meta["n"]), int(meta["p"])
        parity = Parity(meta.get("parity", "straight"))
        terms = {}
        for chunk in filter(None, parts[1:]):
            idx_text, _, poly_text = chunk.partition(":")
            idx_text = idx_text.strip()
            if not (idx_text.startswith("[") and idx_text.endswith("]")):
                raise ValueError(f"bad term {chunk!r}")
            inner = idx_text[1:-1].strip()
            idx = tuple(int(t) for t in inner.split(",")) if inner else ()
            terms[idx] = parse_poly(poly_text.strip(), n)
        return PolyForm(n, p, terms, parity)
    except (ValueError, IndexError, ZeroDivisionError) as exc:
        raise MeshFormatError(None, f"bad form text: {exc}") from exc

"""Exact exterior algebra on flat n-space.

Forms are sums of basis terms dx^I (I a strictly increasing index set)
with polynomial coefficients over Q, plus a straight/twisted parity tag.
All identities (antisymmetry, d*d = 0, Leibniz, naturality of pullback,
double Hodge dual) hold exactly, not to tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .exact import _accumulate, contract, perm_sign
from .metric import Metric, metric_dual_vector
from .parity import Parity
from .poly import MeshFormatError, Poly, _as_fraction, parse_poly, substitute


def _coerce_poly(nvars: int, value) -> Poly:
    if isinstance(value, Poly):
        if value.nvars != nvars:
            raise ValueError("coefficient variable count mismatch")
        return value
    return Poly.constant(nvars, value)


@dataclass(frozen=True)
class PolyForm:
    """Degree-p form on n-space with polynomial coefficients.

    The constructor checks every index set and coefficient; results of the
    operations below are built by ``_trusted``, which does not."""

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
            _accumulate(clean, idx, _coerce_poly(n, coeff))
        object.__setattr__(self, "terms", {i: c for i, c in clean.items() if not c.is_zero()})

    @classmethod
    def _trusted(cls, n: int, p: int, terms: dict, parity: Parity) -> "PolyForm":
        """Wrap strictly increasing index sets mapped to Polys, built by this
        package; only zero coefficients are dropped."""
        self = object.__new__(cls)
        # in field order, so that every instance keeps the same compact attribute layout
        object.__setattr__(self, "ambient_dim", n)
        object.__setattr__(self, "degree", p)
        object.__setattr__(self, "terms", {i: c for i, c in terms.items() if not c.is_zero()})
        object.__setattr__(self, "parity", parity)
        return self

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
            _accumulate(out, idx, c)
        return PolyForm._trusted(self.ambient_dim, self.degree, out, self.parity)

    def __sub__(self, other: "PolyForm") -> "PolyForm":
        return self + other.scale(-1)

    def __neg__(self) -> "PolyForm":
        return self.scale(-1)

    def scale(self, scalar) -> "PolyForm":
        """Multiply by a scalar field (polynomial or rational constant)."""
        if isinstance(scalar, Poly):
            s = _coerce_poly(self.ambient_dim, scalar)
            terms = {idx: s * c for idx, c in self.terms.items()}
        else:
            s = _as_fraction(scalar)
            terms = {idx: c._scaled(s) for idx, c in self.terms.items()}
        return PolyForm._trusted(self.ambient_dim, self.degree, terms, self.parity)

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
                if sign:
                    c = ca * cb
                    _accumulate(out, tuple(sorted(ia + ib)), c if sign > 0 else -c)
        return PolyForm._trusted(n, p, out, parity)

    def d(self) -> "PolyForm":
        """Exterior derivative; parity preserved, d(d(w)) = 0."""
        n = self.ambient_dim
        if self.degree == n:
            return PolyForm.zero(n, n, self.parity)
        out: dict = {}
        for idx, coeff in self.terms.items():
            for i in range(n):
                sign = perm_sign((i,) + idx)
                if sign:
                    dc = coeff.diff(i)
                    _accumulate(out, tuple(sorted((i,) + idx)), dc if sign > 0 else -dc)
        return PolyForm._trusted(n, self.degree + 1, out, self.parity)

    def interior(self, V: "PolyVectorField") -> "PolyForm":
        """Contraction by a vector field; degree drops, parity multiplies."""
        if V.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        if self.degree == 0:
            return PolyForm.zero(self.ambient_dim, 0, self.parity * V.parity)
        return PolyForm._trusted(self.ambient_dim, self.degree - 1,
                                 contract(self.terms, V.components), self.parity * V.parity)

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
        # phi* dx_i as a 1-form on the domain, for the i the index sets use
        dphi = {i: PolyForm._trusted(m, 1, {(j,): phi[i].diff(j) for j in range(m)},
                                     Parity.STRAIGHT)
                for i in {i for idx in self.terms for i in idx}}
        # one substitution for every coefficient, so the powers of phi are shared
        coeffs = substitute(list(self.terms.values()), phi)
        result = PolyForm.zero(m, self.degree, self.parity)
        for idx, coeff in zip(self.terms, coeffs):
            term = PolyForm._trusted(m, 0, {(): coeff}, self.parity)
            for i in idx:
                term = term.wedge(dphi[i])
            result = result + term
        return result

    def hodge(self, g: Metric) -> "PolyForm":
        """Hodge dual for a constant metric; degree n-p, parity flipped.

        Satisfies hodge(hodge(w)) = (-1)^{p(n-p)} sgn(det g) w."""
        n = self.ambient_dim
        if g.dim != n:
            raise ValueError(f"the form has dimension {n}, the metric {g.dim}")
        g.volume_scale()  # raises when irrational, for the zero form too
        out: dict = {}
        for idx, coeff in self.terms.items():
            for comp, factor in g.tables.hodge_image(idx):
                _accumulate(out, comp, coeff._scaled(factor))
        return PolyForm._trusted(n, n - self.degree, out, self.parity.flip())

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
        return PolyVectorField(n, tuple(Poly.constant(n, v) for v in values), parity)

    def flat(self, g: Metric) -> PolyForm:
        """Metric-dual 1-form g(V, .)."""
        n = self.ambient_dim
        if g.dim != n:
            raise ValueError(f"the vector field has dimension {n}, the metric {g.dim}")
        terms = {(i,): sum((self.components[j]._scaled(gij) for j, gij in row), Poly.zero(n))
                 for i, row in enumerate(g.tables.rows)}
        return PolyForm._trusted(n, 1, terms, self.parity)

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.components) + ")"


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
            if idx in terms:
                raise ValueError(f"index set {idx_text} given twice")
            terms[idx] = parse_poly(poly_text.strip(), n)
        return PolyForm(n, p, terms, parity)
    except (ValueError, IndexError, ZeroDivisionError) as exc:
        raise MeshFormatError(None, f"bad form text: {exc}") from exc

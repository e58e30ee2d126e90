"""Exact exterior algebra on flat n-space.

Forms are sums of basis terms dx^I (I a strictly increasing index set)
with polynomial coefficients over Q, plus a straight/twisted parity tag.
All identities (antisymmetry, d*d = 0, Leibniz, naturality of pullback,
double Hodge dual) hold exactly, not to tolerance.

A form in n variables is stored as ``Poly`` stores a polynomial, one level
up: integer numerators over one positive denominator, in lowest terms, so
equal forms have equal (n, degree, parity, denominator, numerators).  The
numerator of c x^e dx^I is keyed by ``blade << 16n | monomial``, where the
monomial is x^e packed as in ``poly`` (e_i in bits 16i .. 16i+15) and the
blade of dx^I is the bitmask of I (the bitmap representation of basis
blades: Dorst, Fontijne & Mann, *Geometric Algebra for Computer Science*,
2007, ch. 19).  Every operation reads these bits:

- wedge: blades A and B with A & B != 0 give zero; otherwise the sign is
  the parity of the pairs (i in A, j in B, i > j), and the product's key is
  the sum of the two keys, since the blades are disjoint and no exponent
  field carries;
- d: dx^i ^ dx^I has the sign of the parity of the bits of I below i, and
  the key of d_i(x^e) dx^i ^ dx^I is ``k - (1 << 16i) + (1 << 16n + i)``;
- interior: dropping bit i from a blade takes that same sign;
- hodge: the metric's Hodge images are keyed by blade.

An exponent of a product (wedge, interior, pullback, scale) past
MAX_EXPONENT sets the guard bit of its field, and the result is refused
with ValueError; a field never carries into its neighbour or a blade bit.
Only this module knows the layout: ``PolyForm.terms`` shows a form as
index tuples mapped to ``Poly`` coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import lcm
from operator import or_
from types import MappingProxyType
from typing import Mapping, Sequence

from .exact import perm_sign
from .metric import Metric, metric_dual_vector
from .parity import Parity
from .poly import (
    _FIELD_MASK,
    FIELD_BITS,
    MAX_EXPONENT,
    MeshFormatError,
    Poly,
    _add_into,
    _guard,
    _lowest,
    _poly,
    _ratio,
    _reduced,
    parse_poly,
    substitute,
)


def _coerce_poly(nvars: int, value) -> Poly:
    if isinstance(value, Poly):
        if value.nvars != nvars:
            raise ValueError("coefficient variable count mismatch")
        return value
    return Poly.constant(nvars, value)


def _by_blade(nums: dict, shift: int) -> dict:
    """The (key, numerator) pairs of each blade, keyed by the blade."""
    groups: dict = {}
    for k, c in nums.items():
        b = k >> shift
        group = groups.get(b)
        if group is None:
            groups[b] = [(k, c)]
        else:
            group.append((k, c))
    return groups


def _swaps(a: int, b: int) -> int:
    """The pairs (i in a, j in b) with i > j: the transpositions that sort
    dx^a ^ dx^b into increasing order."""
    count = 0
    while b:
        low = b & -b
        b ^= low
        count += (a >> low.bit_length()).bit_count()
    return count


def _checked(nums: dict, guard: int) -> dict:
    """Products ``nums`` with the sums that cancelled dropped; raises when
    an exponent passed MAX_EXPONENT (set a guard bit)."""
    if 0 in nums.values():
        nums = {k: c for k, c in nums.items() if c}
    if nums and reduce(or_, nums) & guard:
        raise ValueError(f"an exponent of the product would exceed {MAX_EXPONENT}")
    return nums


def _wedge(a: dict, b: dict, shift: int, guard: int) -> dict:
    """Numerators of a ^ b from those of a and b, for keys whose blades
    start at bit ``shift``; ``guard`` is that many variables' guard mask."""
    out: dict = {}
    get = out.get
    right = _by_blade(b, shift).items()
    for ba, left in _by_blade(a, shift).items():
        for bb, terms in right:
            if ba & bb:
                continue
            odd = _swaps(ba, bb) & 1
            for ka, ca in left:
                if odd:
                    ca = -ca
                for kb, cb in terms:
                    k = ka + kb
                    out[k] = get(k, 0) + ca * cb
    return _checked(out, guard)


def _differential(P: Poly) -> dict:
    """Numerators of dP as a 1-form, over P's denominator."""
    m = P.nvars
    top = FIELD_BITS * m
    out = {}
    for e, c in P._nums.items():
        for j in range(m):
            k = (e >> FIELD_BITS * j) & _FIELD_MASK
            if k:
                out[e - (1 << FIELD_BITS * j) + (1 << (top + j))] = c * k
    return out


def _form(n: int, p: int, parity: Parity, den: int, nums: dict) -> "PolyForm":
    """Wrap nonzero numerators over ``den``, brought to lowest terms."""
    self = object.__new__(PolyForm)
    self.ambient_dim, self.degree, self.parity = n, p, parity
    self._den, self._nums = _lowest(den, nums)
    return self


class PolyForm:
    """Immutable degree-p form on n-space with polynomial coefficients.

    The constructor checks every index set and coefficient; the results of
    the operations below are built without re-checking them."""

    __slots__ = ("ambient_dim", "degree", "parity", "_den", "_nums")

    def __init__(self, ambient_dim: int, degree: int,
                 terms: Mapping[tuple, object] | None = None,
                 parity: Parity = Parity.STRAIGHT):
        n, p = ambient_dim, degree
        if not 0 <= p <= n:
            raise ValueError(f"degree {p} out of range for dimension {n}")
        shift = FIELD_BITS * n
        den, nums = 1, {}
        for idx, coeff in dict(terms or {}).items():
            idx = tuple(int(i) for i in idx)
            if len(idx) != p:
                raise ValueError(f"index set {idx} has wrong size for degree {p}")
            if list(idx) != sorted(set(idx)) or (idx and not (0 <= idx[0] and idx[-1] < n)):
                raise ValueError(f"index set {idx} must be strictly increasing in range")
            c = _coerce_poly(n, coeff)
            top = sum(1 << i for i in idx) << shift
            den = _add_into(nums, den, {top | e: v for e, v in c._nums.items()}, c._den)
        self.ambient_dim, self.degree, self.parity = n, p, parity
        self._den, self._nums = _lowest(den, nums)

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

    # -- views and predicates -----------------------------------------
    @property
    def terms(self) -> Mapping[tuple, Poly]:
        """Read-only view: each index set mapped to its nonzero coefficient."""
        n = self.ambient_dim
        shift = FIELD_BITS * n
        mask = (1 << shift) - 1
        return MappingProxyType({
            tuple(i for i in range(n) if b >> i & 1):
                _reduced(n, self._den, {k & mask: c for k, c in group})
            for b, group in _by_blade(self._nums, shift).items()})

    def is_zero(self) -> bool:
        return not self._nums

    # -- ring structure -----------------------------------------------
    def __add__(self, other: "PolyForm") -> "PolyForm":
        if not isinstance(other, PolyForm):
            return NotImplemented
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degree")
        if self.parity is not other.parity:
            raise ValueError("cannot add forms of different twistedness")
        if not other._nums:
            return self
        if not self._nums:
            return other
        out = dict(self._nums)
        den = _add_into(out, self._den, other._nums, other._den)
        return _form(self.ambient_dim, self.degree, self.parity, den, out)

    def __sub__(self, other: "PolyForm") -> "PolyForm":
        return self + other.scale(-1)

    def __neg__(self) -> "PolyForm":
        return self.scale(-1)

    def scale(self, scalar) -> "PolyForm":
        """Multiply by a scalar field (polynomial or rational constant)."""
        n, p, parity = self.ambient_dim, self.degree, self.parity
        if isinstance(scalar, Poly):
            s = _coerce_poly(n, scalar)
            # s is a 0-form: its keys are its monomials
            nums = _wedge(self._nums, s._nums, FIELD_BITS * n, _guard(n))
            return _form(n, p, parity, self._den * s._den, nums)
        num, den = _ratio(scalar)
        if den == 1 and num == 1:
            return self
        if not num:
            return _form(n, p, parity, 1, {})
        return _form(n, p, parity, self._den * den,
                     {k: c * num for k, c in self._nums.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyForm):
            return NotImplemented
        return (self.ambient_dim == other.ambient_dim and self.degree == other.degree
                and self.parity is other.parity and self._den == other._den
                and self._nums == other._nums)

    def __hash__(self):
        return hash((self.ambient_dim, self.degree, self.parity, self._den,
                     frozenset(self._nums.items())))

    # -- exterior algebra ----------------------------------------------
    def wedge(self, other: "PolyForm") -> "PolyForm":
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        n = self.ambient_dim
        p = self.degree + other.degree
        parity = self.parity * other.parity
        if p > n:
            # tangential overflow: the intersection picture degenerates
            return _form(n, n, parity, 1, {})
        nums = _wedge(self._nums, other._nums, FIELD_BITS * n, _guard(n))
        return _form(n, p, parity, self._den * other._den, nums)

    def d(self) -> "PolyForm":
        """Exterior derivative; parity preserved, d(d(w)) = 0."""
        n = self.ambient_dim
        if self.degree == n:
            return _form(n, n, self.parity, 1, {})
        shift = FIELD_BITS * n
        fields = [(1 << i, FIELD_BITS * i, 1 << FIELD_BITS * i, 1 << (shift + i))
                  for i in range(n)]
        out: dict = {}
        get = out.get
        for k, c in self._nums.items():
            blade = k >> shift
            odd = False  # the parity of the bits of the blade below i
            for bit, low, unit, top in fields:
                if blade & bit:
                    odd = not odd
                    continue
                e = (k >> low) & _FIELD_MASK
                if e:
                    key = k - unit + top
                    out[key] = get(key, 0) + (-c * e if odd else c * e)
        if 0 in out.values():
            out = {k: c for k, c in out.items() if c}
        return _form(n, self.degree + 1, self.parity, self._den, out)

    def interior(self, V: "PolyVectorField") -> "PolyForm":
        """Contraction by a vector field; degree drops, parity multiplies."""
        n = self.ambient_dim
        if V.ambient_dim != n:
            raise ValueError("ambient dimension mismatch")
        parity = self.parity * V.parity
        if self.degree == 0:
            return _form(n, 0, parity, 1, {})
        shift = FIELD_BITS * n
        # the components over one denominator
        den = lcm(*(P._den for P in V.components))
        vector = [P._nums.items() if P._den == den
                  else [(e, c * (den // P._den)) for e, c in P._nums.items()]
                  for P in V.components]
        out: dict = {}
        get = out.get
        for k, c in self._nums.items():
            rest = k >> shift
            while rest:  # the bits of the blade from the lowest: signs alternate
                low = rest & -rest
                rest ^= low
                base = k - (low << shift)
                for e, v in vector[low.bit_length() - 1]:
                    key = base + e
                    out[key] = get(key, 0) + c * v
                c = -c
        return _form(n, self.degree - 1, parity, self._den * den, _checked(out, _guard(n)))

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
            return _form(m, m, self.parity, 1, {})
        shift, top, guard = FIELD_BITS * n, FIELD_BITS * m, _guard(m)
        mask = (1 << shift) - 1
        groups = _by_blade(self._nums, shift)
        # one substitution for every coefficient, so the powers of phi are shared
        coeffs = substitute([_reduced(n, self._den, {k & mask: c for k, c in group})
                             for group in groups.values()], phi)
        dphi: dict = {}  # phi* dx^i = d phi_i, for the i the blades use
        out, den = {}, 1
        for blade, coeff in zip(groups, coeffs):
            nums, nden = coeff._nums, coeff._den
            while blade and nums:
                low = blade & -blade
                blade ^= low
                i = low.bit_length() - 1
                if i not in dphi:
                    dphi[i] = _differential(phi[i])
                nums = _wedge(nums, dphi[i], top, guard)
                nden *= phi[i]._den
            if nums:
                den = _add_into(out, den, nums, nden)
        return _form(m, self.degree, self.parity, den, out)

    def hodge(self, g: Metric) -> "PolyForm":
        """Hodge dual for a constant metric; degree n-p, parity flipped.

        Satisfies hodge(hodge(w)) = (-1)^{p(n-p)} sgn(det g) w."""
        n = self.ambient_dim
        if g.dim != n:
            raise ValueError(f"the form has dimension {n}, the metric {g.dim}")
        g.volume_scale()  # raises when irrational, for the zero form too
        shift = FIELD_BITS * n
        image = g.tables.hodge_image
        out, den = {}, 1
        for blade, group in _by_blade(self._nums, shift).items():
            for star, factor in image(blade):
                move, num = (star - blade) << shift, factor.numerator
                den = _add_into(out, den, {k + move: c * num for k, c in group},
                                self._den * factor.denominator)
        return _form(n, n - self.degree, self.parity.flip(), den, out)

    # -- pairings -------------------------------------------------------
    def pair(self, V: "PolyVectorField") -> Poly:
        """Degree-1 pairing with a vector field: the crossing-count scalar."""
        if self.degree != 1:
            raise ValueError("pairing is defined for 1-forms")
        s = self.interior(V)
        # a 0-form's keys are its monomials
        return _poly(self.ambient_dim, s._den, s._nums)

    def sharp(self, g: Metric) -> "PolyVectorField":
        """Metric dual of a 1-form with constant coefficients."""
        if self.degree != 1:
            raise ValueError("sharp is defined for 1-forms")
        n = self.ambient_dim
        shift = FIELD_BITS * n
        const = {}
        for k, c in self._nums.items():
            if k & ((1 << shift) - 1):
                raise ValueError("sharp needs constant coefficients")
            const[((k >> shift).bit_length() - 1,)] = Fraction(c, self._den)
        comps = metric_dual_vector(const, g)
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
        return PolyForm(n, 1, terms, self.parity)

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

"""Multivariate polynomials with exact rational coefficients.

Kept deliberately small: these are coefficient objects for exact forms,
not a computer-algebra system.

A polynomial in n variables is stored as integer numerators over one
positive integer denominator, in lowest terms: zero numerators are dropped
and gcd(denominator, every numerator) = 1, so equal polynomials have equal
(nvars, denominator, numerators).  Each numerator is keyed by its monomial
x0^e0 * ... * x{n-1}^e{n-1}, packed into one int that holds e_i in bits
16i .. 16i+15 (packed exponent vectors: Monagan & Pearce, CASC 2007), so
the product of two monomials is one integer add.  The top bit of each
field is a guard bit: an exponent is at most MAX_EXPONENT = 2**15 - 1.
The constructor and ``parse_poly`` refuse a larger one, and a product or a
substitution whose result would need one raises ValueError; a field never
wraps.  ``Poly.terms`` shows a polynomial as exponent tuples mapped to
Fractions.

``MeshFormatError``, raised by every text parser in the package, lives
here beside ``parse_poly``: the lowest module its callers all import.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, reduce
from math import gcd
from numbers import Rational
from operator import index, or_
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

FIELD_BITS = 16
MAX_EXPONENT = (1 << FIELD_BITS - 1) - 1
_FIELD_MASK = (1 << FIELD_BITS) - 1


def _as_fraction(x) -> Fraction:
    """The one exact-mode entry check: rationals pass, anything else
    (floats included) raises TypeError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, Rational):
        return Fraction(x)
    raise TypeError(f"cannot use {type(x).__name__} {x!r} as an exact value")


def _ratio(x) -> tuple[int, int]:
    """An exact value as (numerator, denominator) in lowest terms, the
    denominator positive; checked like ``_as_fraction``."""
    if type(x) is int:
        return x, 1
    x = _as_fraction(x)
    return int(x.numerator), int(x.denominator)


@cache
def _guard(nvars: int) -> int:
    """The top bit of every exponent field; a sum of two packed monomials
    has one of them set exactly when some exponent passed MAX_EXPONENT."""
    return sum(1 << (FIELD_BITS * i + FIELD_BITS - 1) for i in range(nvars))


def _poly(nvars: int, den: int, nums: dict) -> "Poly":
    """Wrap numerators already in lowest terms over ``den``, none of them zero."""
    self = object.__new__(Poly)
    self.nvars, self._den, self._nums, self._hash = nvars, den, nums, None
    return self


def _lowest(den: int, nums: dict) -> tuple[int, dict]:
    """Nonzero numerators over ``den`` brought to lowest terms."""
    if den != 1:
        if not nums:
            return 1, nums
        g = gcd(den, *nums.values())
        if g != 1:
            den //= g
            nums = {e: c // g for e, c in nums.items()}
    return den, nums


def _reduced(nvars: int, den: int, nums: dict) -> "Poly":
    """Wrap nonzero numerators over ``den``, brought to lowest terms."""
    return _poly(nvars, *_lowest(den, nums)) if den != 1 else _poly(nvars, 1, nums)


def _add_into(out: dict, den: int, nums: dict, nden: int, scale: int = 1) -> int:
    """Add ``scale * nums / nden`` to the numerators ``out`` over ``den``
    in place, dropping sums that cancel; ``out`` is rescaled when the
    common denominator grows, and that denominator is returned."""
    if nden != den:
        grow = nden // gcd(den, nden)
        if grow != 1:
            for e in out:
                out[e] *= grow
            den *= grow
        scale *= den // nden
    get = out.get
    for e, c in nums.items():
        c = c * scale + get(e, 0)
        if c:
            out[e] = c
        else:
            del out[e]
    return den


class Poly:
    """Immutable polynomial over Q in ``nvars`` variables x0..x{n-1}.

    The constructor checks every exponent and coefficient; the results of
    the arithmetic below are built without re-checking them."""

    __slots__ = ("nvars", "_den", "_nums", "_hash")

    def __init__(self, nvars: int, terms: Mapping[tuple, object] | None = None):
        self.nvars = nvars = index(nvars)
        shifts = range(0, FIELD_BITS * nvars, FIELD_BITS)
        den, nums = 1, {}
        for exps, c in (terms or {}).items():
            if len(exps) != nvars:
                raise ValueError(f"bad exponent tuple {tuple(exps)} for {nvars} variables")
            key = 0
            for shift, e in zip(shifts, exps):
                e = index(e)
                if not 0 <= e <= MAX_EXPONENT:
                    raise ValueError(f"exponent {e} in {tuple(exps)} is outside 0..{MAX_EXPONENT}")
                key |= e << shift
            n, d = _ratio(c)
            if not nums:
                den, nums = d, {key: n} if n else {}
            elif n:
                den = _add_into(nums, den, {key: n}, d)
        self._den, self._nums = _lowest(den, nums)
        self._hash = None

    # -- constructors -------------------------------------------------
    @staticmethod
    def constant(nvars: int, value) -> "Poly":
        n, d = _ratio(value)
        return _poly(nvars, d, {0: n} if n else {})

    @staticmethod
    def zero(nvars: int) -> "Poly":
        return _poly(nvars, 1, {})

    # -- views and predicates -----------------------------------------
    @property
    def terms(self) -> Mapping[tuple, Fraction]:
        """Read-only view: each exponent tuple mapped to its nonzero Fraction."""
        n, den = self.nvars, self._den
        shifts = range(0, FIELD_BITS * n, FIELD_BITS)
        return MappingProxyType({tuple((e >> s) & _FIELD_MASK for s in shifts): Fraction(c, den)
                                 for e, c in self._nums.items()})

    def is_zero(self) -> bool:
        return not self._nums

    def is_constant(self) -> bool:
        nums = self._nums
        return not nums or (len(nums) == 1 and 0 in nums)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return Fraction(self._nums.get(0, 0), self._den)

    # -- arithmetic ---------------------------------------------------
    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.nvars != self.nvars:
                raise ValueError("variable-count mismatch")
            return other
        return Poly.constant(self.nvars, other)

    def __add__(self, other) -> "Poly":
        other = self._coerce(other)
        if not other._nums:
            return self
        if not self._nums:
            return other
        out = dict(self._nums)
        den = _add_into(out, self._den, other._nums, other._den)
        return _reduced(self.nvars, den, out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _poly(self.nvars, self._den, {e: -c for e, c in self._nums.items()})

    def __sub__(self, other) -> "Poly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Poly":
        return self._coerce(other) + (-self)

    def _times(self, n: int, d: int) -> "Poly":
        """This polynomial times n/d (lowest terms, d > 0); x1 and x(-1)
        multiply no coefficient."""
        if d == 1 and (n == 1 or n == -1):
            return self if n == 1 else -self
        if not n:
            return _poly(self.nvars, 1, {})
        return _reduced(self.nvars, self._den * d, {e: c * n for e, c in self._nums.items()})

    def _scaled(self, c) -> "Poly":
        """This polynomial times the rational ``c``, unchecked."""
        return self._times(c.numerator, c.denominator)

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            return self._times(*_ratio(other))
        if other.nvars != self.nvars:
            raise ValueError("variable-count mismatch")
        a, b = self._nums, other._nums
        if len(b) == 1 and 0 in b:
            return self._times(b[0], other._den)
        if len(a) == 1 and 0 in a:
            return other._times(a[0], self._den)
        if not (a and b):
            return _poly(self.nvars, 1, {})
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            (e1, c1), = a.items()
            out = {e1 + e2: c1 * c2 for e2, c2 in b.items()}
        else:
            out = {}
            get = out.get
            for e1, c1 in a.items():
                for e2, c2 in b.items():
                    e = e1 + e2
                    out[e] = get(e, 0) + c1 * c2
            if 0 in out.values():  # some terms cancel, never all: Q[x] has no zero divisors
                out = {e: c for e, c in out.items() if c}
        if reduce(or_, out) & _guard(self.nvars):
            raise ValueError(f"an exponent of the product would exceed {MAX_EXPONENT}")
        return _reduced(self.nvars, self._den * other._den, out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return (self.nvars == other.nvars and self._den == other._den
                    and self._nums == other._nums)
        try:
            return self == self._coerce(other)
        except (TypeError, ValueError):
            return NotImplemented

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.nvars, self._den, frozenset(self._nums.items())))
        return self._hash

    # -- calculus -----------------------------------------------------
    def diff(self, i: int) -> "Poly":
        if not 0 <= i < self.nvars:
            raise ValueError(f"variable x{i} outside x0..x{self.nvars - 1}")
        shift = FIELD_BITS * i
        unit = 1 << shift
        out = {}
        for e, c in self._nums.items():
            k = (e >> shift) & _FIELD_MASK
            if k:
                out[e - unit] = c * k
        return _reduced(self.nvars, self._den, out)

    def eval(self, point: Iterable) -> Fraction:
        point = [_as_fraction(x) for x in point]
        if len(point) != self.nvars:
            raise ValueError("evaluation point has wrong arity")
        total = Fraction(0)
        for e, c in self._nums.items():
            for x in point:
                k = e & _FIELD_MASK
                if k:
                    c *= x**k
                e >>= FIELD_BITS
            total += c
        return total / self._den

    def subs(self, replacements: Sequence["Poly"]) -> "Poly":
        """Substitute x_i -> replacements[i] (polynomials in m variables)."""
        return substitute([self], replacements)[0]

    # -- formatting ---------------------------------------------------
    def __repr__(self) -> str:
        return f"Poly({self.nvars}, {self})"

    def __str__(self) -> str:
        terms = self.terms
        if not terms:
            return "0"
        parts = []
        for exps in sorted(terms, key=lambda e: (sum(e), e)):
            c = terms[exps]
            factors = [f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(exps) if e]
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            elif c == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(str(c) + "*" + "*".join(factors))
        out = " + ".join(parts)
        return out.replace("+ -", "- ")


def substitute(polys: Sequence[Poly], replacements: Sequence[Poly]) -> list[Poly]:
    """Each of ``polys`` with x_i -> replacements[i] (polynomials in m
    variables).  Each power r_i^e is built once, when first needed, and
    shared by every polynomial and term that uses it."""
    n = len(replacements)
    m = replacements[0].nvars if replacements else 0
    if any(r.nvars != m for r in replacements):
        raise ValueError("replacement polynomials disagree on variable count")
    if any(P.nvars != n for P in polys):
        raise ValueError("need one replacement polynomial per variable")
    one = {0: 1}
    powers = [[None, r] for r in replacements]  # r^e at [e], grown on demand
    results = []
    for P in polys:
        out, den = {}, 1
        for key, c in P._nums.items():
            term = None
            for ps in powers:
                if not key:
                    break
                k = key & _FIELD_MASK
                key >>= FIELD_BITS
                if k:
                    while len(ps) <= k:
                        ps.append(ps[-1] * ps[1])
                    term = ps[k] if term is None else term * ps[k]
            if term is None:
                den = _add_into(out, den, one, 1, c)
            else:
                den = _add_into(out, den, term._nums, term._den, c)
        results.append(_reduced(m, den * P._den, out))
    return results


class MeshFormatError(ValueError):
    """Malformed input text: a mesh, a cochain CSV or a form.  Carries the
    offending line number, or None when the error belongs to no line."""

    def __init__(self, line: int | None, message: str):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


def parse_poly(text: str, nvars: int) -> Poly:
    """Parse the ``str`` output format: sums of ``c*x0^a*x1`` monomials.
    A variable index outside ``0..nvars-1`` or an exponent above
    MAX_EXPONENT raises ValueError."""
    text = text.replace("- ", "+ -").strip()
    if text in ("", "0"):
        return Poly.zero(nvars)
    total = Poly.zero(nvars)
    for chunk in text.split("+"):
        chunk = chunk.strip()
        if not chunk:
            continue
        coeff = Fraction(1)
        exps = [0] * nvars
        for factor in chunk.split("*"):
            factor = factor.strip()
            if factor.startswith("-x"):
                coeff = -coeff
                factor = factor[1:]
            if factor.startswith("x"):
                var, caret, power = factor[1:].partition("^")
                if not 0 <= int(var) < nvars:
                    raise ValueError(f"variable {factor!r} outside x0..x{nvars - 1}")
                exps[int(var)] += int(power) if caret else 1
            elif factor == "-":
                coeff = -coeff
            else:
                coeff *= Fraction(factor)
        total = total + Poly(nvars, {tuple(exps): coeff})
    return total

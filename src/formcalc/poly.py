"""Multivariate polynomials with exact rational coefficients.

Kept deliberately small: these are coefficient objects for exact forms,
not a computer-algebra system.  A polynomial in n variables is a map
from exponent tuples (length n) to nonzero Fractions.

``MeshFormatError``, raised by every text parser in the package, lives
here beside ``parse_poly``: the lowest module its callers all import.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational
from operator import add
from typing import Iterable, Mapping


def _as_fraction(x) -> Fraction:
    """The one exact-mode entry check: rationals pass, anything else
    (floats included) raises TypeError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, Rational):
        return Fraction(x)
    raise TypeError(f"cannot use {type(x).__name__} {x!r} as an exact value")


def _accumulate(out: dict, key, value) -> None:
    """``out[key] += value``, without a zero to start a missing key from."""
    old = out.get(key)
    out[key] = value if old is None else old + value


class Poly:
    """Immutable polynomial over Q in ``nvars`` variables x0..x{n-1}.

    The constructor checks every exponent and coefficient; results of the
    arithmetic below are built by ``_trusted``, which does not."""

    __slots__ = ("nvars", "terms", "_hash")

    def __init__(self, nvars: int, terms: Mapping[tuple, object] | None = None):
        self.nvars = int(nvars)
        clean = {}
        for exps, c in (terms or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != self.nvars or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent tuple {exps} for {self.nvars} variables")
            _accumulate(clean, exps, _as_fraction(c))
        self.terms = {e: c for e, c in clean.items() if c}
        self._hash = None

    @classmethod
    def _trusted(cls, nvars: int, terms: dict) -> "Poly":
        """Wrap canonical exponent tuples mapped to Fractions, built by this
        package; only zero coefficients are dropped."""
        return cls._wrap(nvars, {e: c for e, c in terms.items() if c})

    @classmethod
    def _wrap(cls, nvars: int, terms: dict) -> "Poly":
        """``_trusted`` for terms that are already all nonzero."""
        self = object.__new__(cls)
        self.nvars, self.terms, self._hash = nvars, terms, None
        return self

    # -- constructors -------------------------------------------------
    @staticmethod
    def constant(nvars: int, value) -> "Poly":
        return Poly(nvars, {(0,) * nvars: value})

    @staticmethod
    def zero(nvars: int) -> "Poly":
        return Poly(nvars, {})

    # -- predicates ---------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exps) for exps in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.terms.get((0,) * self.nvars, Fraction(0))

    # -- arithmetic ---------------------------------------------------
    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.nvars != self.nvars:
                raise ValueError("variable-count mismatch")
            return other
        return Poly.constant(self.nvars, other)

    def __add__(self, other) -> "Poly":
        other = self._coerce(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            _accumulate(out, e, c)
        return Poly._trusted(self.nvars, out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._wrap(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Poly":
        return self._coerce(other) + (-self)

    def _scaled(self, c: Fraction) -> "Poly":
        """This polynomial times the Fraction ``c``, unchecked; x1 and x(-1)
        multiply no coefficient."""
        if c == 1:
            return self
        if c == -1:
            return -self
        if not c:
            return Poly._wrap(self.nvars, {})
        return Poly._wrap(self.nvars, {e: c * v for e, v in self.terms.items()})

    def _scalar(self) -> Fraction | None:
        """The value of a nonzero constant polynomial, else None."""
        if len(self.terms) == 1:
            (exps, c), = self.terms.items()
            if not any(exps):
                return c
        return None

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            return self._scaled(_as_fraction(other))
        other = self._coerce(other)
        c = other._scalar()
        if c is not None:
            return self._scaled(c)
        c = self._scalar()
        if c is not None:
            return other._scaled(c)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                _accumulate(out, tuple(map(add, e1, e2)), c1 * c2)
        return Poly._trusted(self.nvars, out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.nvars == other.nvars and self.terms == other.terms
        try:
            return self == self._coerce(other)
        except (TypeError, ValueError):
            return NotImplemented

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.nvars, frozenset(self.terms.items())))
        return self._hash

    # -- calculus -----------------------------------------------------
    def diff(self, i: int) -> "Poly":
        out = {}
        for exps, c in self.terms.items():
            k = exps[i]
            if k:
                out[exps[:i] + (k - 1,) + exps[i + 1:]] = c * k
        return Poly._wrap(self.nvars, out)

    def eval(self, point: Iterable) -> Fraction:
        point = [_as_fraction(x) for x in point]
        if len(point) != self.nvars:
            raise ValueError("evaluation point has wrong arity")
        total = Fraction(0)
        for exps, c in self.terms.items():
            v = c
            for x, e in zip(point, exps):
                v *= x**e
            total += v
        return total

    def subs(self, replacements: list["Poly"]) -> "Poly":
        """Substitute x_i -> replacements[i] (polynomials in m variables)."""
        if len(replacements) != self.nvars:
            raise ValueError("need one replacement polynomial per variable")
        m = replacements[0].nvars if replacements else 0
        if any(r.nvars != m for r in replacements):
            raise ValueError("replacement polynomials disagree on variable count")
        one = Poly._wrap(m, {(0,) * m: Fraction(1)})
        powers = [[one, r] for r in replacements]  # r^e at [e], grown on demand
        out: dict = {}
        for exps, c in self.terms.items():
            term = one
            for r, ps, e in zip(replacements, powers, exps):
                if e:
                    while len(ps) <= e:
                        ps.append(ps[-1] * r)
                    term = ps[e] if term is one else term * ps[e]
            for key, v in term._scaled(c).terms.items():
                _accumulate(out, key, v)
        return Poly._trusted(m, out)

    # -- formatting ---------------------------------------------------
    def __repr__(self) -> str:
        return f"Poly({self.nvars}, {self})"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted(self.terms, key=lambda e: (sum(e), e)):
            c = self.terms[exps]
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


class MeshFormatError(ValueError):
    """Malformed input text: a mesh, a cochain CSV or a form.  Carries the
    offending line number, or None when the error belongs to no line."""

    def __init__(self, line: int | None, message: str):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


def parse_poly(text: str, nvars: int) -> Poly:
    """Parse the ``str`` output format: sums of ``c*x0^a*x1`` monomials.
    A variable index outside ``0..nvars-1`` raises ValueError."""
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

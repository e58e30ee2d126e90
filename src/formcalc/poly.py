"""Multivariate polynomials with exact rational coefficients.

Kept deliberately small: these are coefficient objects for exact forms,
not a computer-algebra system.  A polynomial in n variables is a map
from exponent tuples (length n) to nonzero Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational
from typing import Iterable, Mapping


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, Rational):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x).limit_denominator(10**12)
    raise TypeError(f"cannot use {type(x).__name__} as an exact coefficient")


class Poly:
    """Immutable polynomial over Q in ``nvars`` variables x0..x{n-1}."""

    __slots__ = ("nvars", "terms", "_hash")

    def __init__(self, nvars: int, terms: Mapping[tuple, object] | None = None):
        self.nvars = int(nvars)
        clean = {}
        if terms:
            for exps, c in terms.items():
                c = _as_fraction(c)
                if c == 0:
                    continue
                exps = tuple(int(e) for e in exps)
                if len(exps) != self.nvars or any(e < 0 for e in exps):
                    raise ValueError(f"bad exponent tuple {exps} for {self.nvars} variables")
                clean[exps] = clean.get(exps, Fraction(0)) + c
        self.terms = {e: c for e, c in clean.items() if c != 0}
        self._hash = None

    # -- constructors -------------------------------------------------
    @staticmethod
    def constant(nvars: int, value) -> "Poly":
        return Poly(nvars, {(0,) * nvars: value})

    @staticmethod
    def zero(nvars: int) -> "Poly":
        return Poly(nvars, {})

    @staticmethod
    def variable(nvars: int, i: int) -> "Poly":
        exps = [0] * nvars
        exps[i] = 1
        return Poly(nvars, {tuple(exps): 1})

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
            out[e] = out.get(e, Fraction(0)) + c
        return Poly(self.nvars, out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Poly":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "Poly":
        other = self._coerce(other)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return Poly(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative power")
        out = Poly.constant(self.nvars, 1)
        for _ in range(k):
            out = out * self
        return out

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
            if exps[i] == 0:
                continue
            e = list(exps)
            k = e[i]
            e[i] = k - 1
            out[tuple(e)] = out.get(tuple(e), Fraction(0)) + c * k
        return Poly(self.nvars, out)

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
        total = Poly.zero(m)
        for exps, c in self.terms.items():
            term = Poly.constant(m, c)
            for r, e in zip(replacements, exps):
                for _ in range(e):
                    term = term * r
            total = total + term
        return total

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

"""Exact linear algebra over the rationals.

LinComb is a finite formal linear combination over arbitrary ordered,
hashable basis keys; Polynomial is a dense univariate polynomial.  Their
coefficients are exact: `int`, or `Fraction` after division.  Both
two-variable expansions P(X+Y) and P(XY) are returned as sparse coefficient
dicts keyed by (i, j) monomial exponents.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter

# an integer, "p/q" or a plain decimal: no exponent, since Fraction computes 10**exp
_RATIONAL = re.compile(r"\s*[-+]?([0-9]+(/[0-9]+)?|[0-9]*\.[0-9]+|[0-9]+\.)\s*")


def format_rational(q):
    """Serialize an `int` or `Fraction` as "p/q", or "p" when the denominator is 1.
    Anything else, a float included, raises TypeError rather than print inexactly."""
    if type(q) is int:
        return str(q)
    if not isinstance(q, (int, Fraction)):
        raise TypeError(f"not an exact rational: {q!r}")
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def parse_rational(s):
    """Parse an integer, "p/q" or a plain decimal; other text raises ValueError."""
    if not _RATIONAL.fullmatch(s):
        raise ValueError(f"not an integer, p/q or plain decimal: {s!r}")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s!r}") from None


class LinComb:
    """Finite formal sum of basis keys with nonzero exact coefficients:
    `int`, or `Fraction` after division.

    Keys must be hashable and mutually orderable; iteration is always in
    sorted key order, which makes every downstream output deterministic.
    """

    __slots__ = ("_c",)

    def __init__(self, terms=()):
        c = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for key, coeff in items:
            if key in c:
                coeff += c[key]
            if coeff:
                c[key] = coeff
            else:
                c.pop(key, None)
        self._c = c

    @classmethod
    def _merged(cls, c):
        """Adopt the dict c, which must hold each key once and no zero coefficient."""
        res = cls.__new__(cls)
        res._c = c
        return res

    @classmethod
    def term(cls, key, coeff=1):
        return cls([(key, coeff)])

    @classmethod
    def zero(cls):
        return cls()

    def coeff(self, key):
        return self._c.get(key, 0)

    def items(self):
        return sorted(self._c.items(), key=itemgetter(0))

    def keys(self):
        return sorted(self._c)

    def terms(self):
        """The (key, coeff) pairs unsorted, for sums whose order does not matter."""
        return self._c.items()

    def __len__(self):
        return len(self._c)

    def __bool__(self):
        return bool(self._c)

    def __iter__(self):
        return iter(self.keys())

    def __add__(self, other):
        out = dict(self._c)
        for key, coeff in other._c.items():
            s = out.get(key, 0) + coeff
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return LinComb._merged(out)

    def __neg__(self):
        return LinComb._merged({k: -v for k, v in self._c.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, scalar):
        return LinComb._merged({} if not scalar else {k: v * scalar for k, v in self._c.items()})

    __rmul__ = __mul__

    def map_keys(self, fn):
        """Relabel basis keys through fn and collect coefficients."""
        return LinComb((fn(k), v) for k, v in self._c.items())

    def bind(self, fn):
        """Linear extension of a key-level map fn: key -> LinComb."""
        return LinComb((key, v * c) for k, v in self._c.items() for key, c in fn(k)._c.items())

    def __eq__(self, other):
        return isinstance(other, LinComb) and self._c == other._c

    def __repr__(self):
        if not self._c:
            return "LinComb(0)"
        parts = [f"{format_rational(v)}*{k!r}" for k, v in self.items()]
        return "LinComb(" + " + ".join(parts) + ")"


def bilinear(a, b, fn):
    """Bilinear extension of fn(key_a, key_b), which may return a key or a LinComb."""
    def terms(product):
        return product._c.items() if isinstance(product, LinComb) else ((product, 1),)

    return LinComb((key, va * vb * c)
                   for ka, va in a._c.items() for kb, vb in b._c.items()
                   for key, c in terms(fn(ka, kb)))


class Polynomial:
    """Dense univariate polynomial with exact coefficients: `int`, or
    `Fraction` after division."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = list(coeffs)
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls([1])

    @classmethod
    def x(cls, k=1):
        """The monomial X^k, one coefficient list."""
        return cls([0] * k + [1])

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def coeff(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __add__(self, other):
        other = self._coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial([self.coeff(i) + other.coeff(i) for i in range(n)])

    def __sub__(self, other):
        return self + -self._coerce(other)

    def __neg__(self):
        return Polynomial([-c for c in self.coeffs])

    @staticmethod
    def _coerce(v):
        return v if isinstance(v, Polynomial) else Polynomial([v])

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return Polynomial([c * other for c in self.coeffs])
        out = [0] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, k):
        out = Polynomial.one()
        for _ in range(k):
            out = out * self
        return out

    def __call__(self, q):
        """Exact evaluation at a rational point (Horner)."""
        q = Fraction(q)
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * q + c
        return acc

    def compose_sum(self):
        """Coefficients of P(X+Y) as a dict {(i, j): coeff}."""
        out = {}
        for d, a in enumerate(self.coeffs):
            if not a:
                continue
            for i in range(d + 1):
                key = (i, d - i)
                out[key] = out.get(key, 0) + a * math.comb(d, i)
        return {k: v for k, v in out.items() if v}

    def compose_prod(self):
        """Coefficients of P(XY) as a dict {(i, i): coeff}."""
        return {(d, d): a for d, a in enumerate(self.coeffs) if a}

    def to_json(self):
        """Coefficient strings, index = degree; the zero polynomial is ["0"]."""
        if not self.coeffs:
            return ["0"]
        return [format_rational(c) for c in self.coeffs]

    def pretty(self):
        """Readable form like "X^3 - 3X^2 + 2X"."""
        if not self.coeffs:
            return "0"
        parts = []
        for d in range(self.degree, -1, -1):
            c = self.coeff(d)
            if not c:
                continue
            if d == 0:
                body = format_rational(abs(c))
            else:
                mag = abs(c)
                coeff_txt = "" if mag == 1 else format_rational(mag)
                body = f"{coeff_txt}X" + (f"^{d}" if d > 1 else "")
            if not parts:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append(("- " if c < 0 else "+ ") + body)
        return " ".join(parts)

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Polynomial({self.pretty()})"


@lru_cache(maxsize=None)
def falling_factorial(k):
    """X(X-1)...(X-k+1); the empty product for k = 0."""
    out = Polynomial.one()
    for i in range(k):
        out = out * Polynomial([-i, 1])
    return out


@lru_cache(maxsize=None)
def hilbert(k):
    """X(X-1)...(X-k+1) / k!"""
    return falling_factorial(k) * Fraction(1, math.factorial(k))

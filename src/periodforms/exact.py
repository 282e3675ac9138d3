"""Exact scalar arithmetic: rationals, Gaussian rationals and quadratic numbers.

Everything in here is immutable and hashable so values can be used as dict
keys and compared structurally in tests.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError


def parse_rational(text) -> Fraction:
    """Parse "p/q" or "p" (also accepts ints) into a Fraction."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, str):
        try:
            return Fraction(text.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError("cannot parse rational %r" % (text,)) from exc
    raise DomainError("cannot parse rational %r" % (text,))


def format_rational(q: Fraction) -> str:
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)


class GaussianRational:
    """A number re + im*i with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        # a Fraction is immutable, so one given as a part is kept as it is
        object.__setattr__(self, "re", re if type(re) is Fraction else Fraction(re))
        object.__setattr__(self, "im", im if type(im) is Fraction else Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @staticmethod
    def parse(pair) -> "GaussianRational":
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise DomainError("Gaussian rational must be a [re, im] pair, got %r" % (pair,))
        return GaussianRational(parse_rational(pair[0]), parse_rational(pair[1]))

    def to_pair(self):
        return [format_rational(self.re), format_rational(self.im)]

    def __add__(self, other):
        other = _coerce(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.re == other and self.im == 0
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(self.re) + 1j * complex(self.im)

    def __repr__(self):
        return "GaussianRational(%s, %s)" % (self.re, self.im)


def _coerce(value) -> GaussianRational:
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(value)
    raise TypeError("cannot mix GaussianRational with %r" % (value,))


class QuadraticNumber:
    """A value a + b*sqrt(disc) with rational a, b and disc.

    Used for residues at points whose y-coordinate lives in a quadratic
    extension, so disc may be negative, as at y^2 = f(x) < 0; a value with
    b != 0 there is not real, and float() refuses it.  There is no
    addition: quadratic_sum adds a list of them exactly, grouping the sqrt
    coefficients by discriminant.
    """

    __slots__ = ("a", "b", "disc")

    def __init__(self, a, b=0, disc=0):
        a, b, disc = (v if isinstance(v, (int, Fraction)) else Fraction(v) for v in (a, b, disc))
        if b == 0:
            disc = Fraction(0)
        if disc == 0:
            b = Fraction(0)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "disc", disc)

    def __setattr__(self, name, value):
        raise AttributeError("QuadraticNumber is immutable")

    def scale(self, c) -> "QuadraticNumber":
        c = Fraction(c)
        return QuadraticNumber(self.a * c, self.b * c, self.disc)

    def __float__(self):
        import math

        if self.disc < 0:
            raise DomainError("%r is not real" % (self,))
        return float(self.a) + float(self.b) * math.sqrt(float(self.disc))

    def __repr__(self):
        if self.b == 0:
            return "QuadraticNumber(%s)" % (self.a,)
        return "QuadraticNumber(%s + %s*sqrt(%s))" % (self.a, self.b, self.disc)


def quadratic_sum(values) -> Fraction:
    """Exact sum of QuadraticNumbers; error if irrational parts survive.

    Groups the sqrt coefficients by discriminant; all groups must cancel.
    """
    total = Fraction(0)
    by_disc = {}
    for v in values:
        if isinstance(v, (int, Fraction)):
            total += Fraction(v)
            continue
        total += v.a
        if v.b != 0:
            by_disc[v.disc] = by_disc.get(v.disc, Fraction(0)) + v.b
    for disc, coeff in by_disc.items():
        if coeff != 0:
            raise DomainError(
                "sum is irrational: %s*sqrt(%s) remains" % (coeff, disc)
            )
    return total

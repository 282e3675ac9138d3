"""Dense univariate polynomials and homogeneous ternary forms over Q.

A Polynomial is an integer vector over one positive denominator, kept in
lowest terms, so its kernels run on ints: products are integer
convolutions, division is pseudo-division over Z and gcd is the primitive
PRS (Knuth, TAOCP vol. 2, 4.6.1).  TernaryForm keeps Fraction coefficients.
Nothing in here ever rounds.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import gcd, isqrt, lcm

from .errors import DomainError


class Polynomial:
    """Univariate polynomial, coefficients listed from the constant term up.

    Stored as num / den: integer coefficients num over a positive den with
    gcd(den, *num) = 1, so equal polynomials have equal (num, den).  The
    zero polynomial is ((), 1) and has degree -1 by convention.
    """

    __slots__ = ("num", "den")

    def __init__(self, coeffs=()):
        values = [Fraction(v) for v in coeffs]
        while values and values[-1] == 0:
            values.pop()
        # the lcm of reduced denominators leaves no common factor
        den = lcm(*(v.denominator for v in values))
        num = tuple(v.numerator * (den // v.denominator) for v in values)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @staticmethod
    def _make(num, den):
        """num / den in canonical form: trailing zeros trimmed, den > 0,
        no common factor."""
        num = list(num)
        while num and num[-1] == 0:
            num.pop()
        if den < 0:
            num, den = [-c for c in num], -den
        g = gcd(den, *num)  # den itself when num is empty
        if g != 1:
            num, den = [c // g for c in num], den // g
        p = object.__new__(Polynomial)
        object.__setattr__(p, "num", tuple(num))
        object.__setattr__(p, "den", den)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @staticmethod
    def x():
        return Polynomial((0, 1))

    @staticmethod
    def from_roots(roots, lead=1):
        p = Polynomial((lead,))
        for r in roots:
            p = p * Polynomial((-Fraction(r), 1))
        return p

    @property
    def coeffs(self):
        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

    @property
    def degree(self):
        return len(self.num) - 1

    def is_zero(self):
        return not self.num

    def coefficient(self, k):
        if 0 <= k < len(self.num):
            return Fraction(self.num[k], self.den)
        return Fraction(0)

    def __add__(self, other):
        other = _lift(other)
        a, b = self.num, other.num
        den = lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den
        if len(a) < len(b):
            a, b, sa, sb = b, a, sb, sa
        out = [sa * x for x in a]
        for k, y in enumerate(b):
            out[k] += sb * y
        return Polynomial._make(out, den)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._make([-c for c in self.num], self.den)

    def __sub__(self, other):
        return self + (-_lift(other))

    def __rsub__(self, other):
        return _lift(other) - self

    def __mul__(self, other):
        other = _lift(other)
        a, b = self.num, other.num
        if not a or not b:
            return Polynomial()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        return Polynomial._make(out, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, exponent):
        exponent = int(exponent)
        if exponent < 0:
            raise DomainError("polynomial powers must be nonnegative")
        out = Polynomial((1,))
        for _ in range(exponent):
            out = out * self
        return out

    def __divmod__(self, other):
        # lead^k A = Q B + R over the numerators, k = deg A - deg B + 1
        other = _lift(other)
        if other.is_zero():
            raise DomainError("division by the zero polynomial")
        q, r, k = _pseudo_divmod(self.num, other.num)
        scale = self.den * other.num[-1] ** k
        quotient = Polynomial._make([c * other.den for c in q], scale)
        return quotient, Polynomial._make(r, scale)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def monic(self):
        if self.is_zero():
            return self
        return Polynomial._make(self.num, self.num[-1])

    def gcd(self, other):
        # primitive PRS: only integer pseudo-remainders, content removed
        a, b = _primitive(self.num), _primitive(_lift(other).num)
        while b:
            a, b = b, _primitive(_pseudo_divmod(a, b)[1])
        return Polynomial._make(a, a[-1] if a else 1)

    def derivative(self):
        return Polynomial._make([k * c for k, c in enumerate(self.num)][1:], self.den)

    def is_squarefree(self):
        if self.is_zero():
            return False
        return self.gcd(self.derivative()).degree == 0

    def __call__(self, x):
        num = self.num
        if not num:
            return Fraction(0)
        if isinstance(x, (int, Fraction)):
            # homogeneous Horner over Z: sum c_i u^i v^(n-i), over den v^n
            u, v = x.numerator, x.denominator
            acc, power = num[-1], 1
            for c in reversed(num[:-1]):
                power *= v
                acc = acc * u + c * power
            return Fraction(acc, self.den * power)
        # Horner over the Fraction coefficients, for floats and complex
        coeffs = self.coeffs
        acc = coeffs[-1]
        for c in reversed(coeffs[:-1]):
            acc = acc * x + c
        return acc

    def rational_roots(self):
        """All rational roots with multiplicities, sorted by the root.

        The total multiplicity may be less than the degree when some
        roots are irrational; the caller decides whether that matters.

        By Hensel lifting (Loos, SIAM J. Comput. 12, 1983).  sq = self /
        gcd(self, self') has the same roots, all simple; let c be its
        numerator vector and a = |c_n|.  A root u/v in lowest terms has
        v | a, so y = a u / v is an integer with |y| <= B = a + max |c_i|.
        Take the first prime q not dividing a at which every root of c
        mod q is simple; only primes dividing a * disc(sq) fail.  Each
        rational root reduces to such a root, whose Newton lift mod q^(2^i)
        is unique, so once the modulus M exceeds 2B, y is the symmetric
        residue of a * r mod M.  Candidates are checked exactly.
        """
        if self.is_zero():
            raise DomainError("the zero polynomial has no root list")
        sq = self // self.gcd(self.derivative())
        c = sq.num
        a = abs(c[-1])
        bound = a + max(abs(x) for x in c)
        dc = [k * x for k, x in enumerate(c)][1:]
        for q in count(2):
            if a % q and all(q % d for d in range(2, isqrt(q) + 1)):
                residues = [r for r in range(q) if _eval_mod(c, r, q) == 0]
                if all(_eval_mod(dc, r, q) for r in residues):
                    break
        found, p = {}, self
        for r in residues:
            m = q
            while m <= 2 * bound:
                m *= m
                r = (r - _eval_mod(c, r, m) * pow(_eval_mod(dc, r, m), -1, m)) % m
            y = a * r % m
            root = Fraction(y - m if 2 * y > m else y, a)
            if sq(root) != 0:
                continue
            mult = 0
            factor = Polynomial((-root, 1))
            while p(root) == 0:
                p = p // factor
                mult += 1
            found[root] = mult
        return sorted(found.items())

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _lift(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return "Polynomial(%s)" % (list(self.coeffs),)


def _lift(value):
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return Polynomial._make((value.numerator,), value.denominator)
    raise DomainError("cannot use %r as a polynomial" % (value,))


def _primitive(num):
    """num without trailing zeros, divided by its content, made
    positive-leading; the zero vector gives []."""
    num = list(num)
    while num and num[-1] == 0:
        num.pop()
    if not num:
        return num
    g = gcd(*num)
    if num[-1] < 0:
        g = -g
    return [c // g for c in num]


def _pseudo_divmod(a, b):
    """(q, r, k) with lead(b)^k a = q b + r over Z, deg r < deg b and
    k = max(0, deg a - deg b + 1), for integer vectors a and b != 0
    (Knuth, TAOCP vol. 2, 4.6.1, Algorithm R).  r may keep zeros on top."""
    n = len(b) - 1
    lead = b[-1]
    k = max(0, len(a) - n)
    q, r = [0] * k, list(a)
    power = lead ** k
    for j in range(k - 1, -1, -1):
        power //= lead
        c = r[n + j]
        q[j] = c * power
        r = [lead * x for x in r[:j]] + [lead * x - c * y for x, y in zip(r[j:n + j], b)]
    return q, r[:n], k


def _eval_mod(coeffs, x, m):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % m
    return acc


def ternary_monomials(degree):
    """Exponent triples (i, j, k) with i+j+k = degree, leading variable first."""
    return sorted(
        (
            (i, j, degree - i - j)
            for i in range(degree, -1, -1)
            for j in range(degree - i, -1, -1)
        ),
        reverse=True,
    )


class TernaryForm:
    """Homogeneous form in three variables with rational coefficients."""

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree, coeffs):
        degree = int(degree)
        if degree < 0:
            raise DomainError("a form needs a nonnegative degree")
        table = {}
        for key, value in dict(coeffs).items():
            i, j, k = (int(e) for e in key)
            if min(i, j, k) < 0 or i + j + k != degree:
                raise DomainError(
                    "exponents %r do not match degree %d" % (key, degree)
                )
            value = Fraction(value)
            if value:
                table[(i, j, k)] = value
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", tuple(sorted(table.items(), reverse=True)))

    def __setattr__(self, name, value):
        raise AttributeError("TernaryForm is immutable")

    @staticmethod
    def linear(a, b, c):
        return TernaryForm(1, {(1, 0, 0): a, (0, 1, 0): b, (0, 0, 1): c})

    def is_zero(self):
        return not self.coeffs

    def coefficient(self, key):
        for k, v in self.coeffs:
            if k == tuple(key):
                return v
        return Fraction(0)

    def coefficient_vector(self):
        return [self.coefficient(m) for m in ternary_monomials(self.degree)]

    def __add__(self, other):
        if not isinstance(other, TernaryForm):
            return NotImplemented
        if self.degree != other.degree:
            raise DomainError("cannot add forms of different degrees")
        table = dict(self.coeffs)
        for key, value in other.coeffs:
            table[key] = table.get(key, Fraction(0)) + value
        return TernaryForm(self.degree, table)

    def __neg__(self):
        return TernaryForm(self.degree, {k: -v for k, v in self.coeffs})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = Fraction(c)
        return TernaryForm(self.degree, {k: v * c for k, v in self.coeffs})

    def __mul__(self, other):
        if not isinstance(other, TernaryForm):
            return NotImplemented
        table = {}
        for (i1, j1, k1), a in self.coeffs:
            for (i2, j2, k2), b in other.coeffs:
                key = (i1 + i2, j1 + j2, k1 + k2)
                table[key] = table.get(key, Fraction(0)) + a * b
        return TernaryForm(self.degree + other.degree, table)

    def partial(self, variable):
        if variable not in (0, 1, 2):
            raise DomainError("variable index must be 0, 1 or 2")
        if self.degree == 0:
            raise DomainError("cannot differentiate a constant form")
        table = {}
        for key, value in self.coeffs:
            e = key[variable]
            if e == 0:
                continue
            new = list(key)
            new[variable] = e - 1
            table[tuple(new)] = value * e
        return TernaryForm(self.degree - 1, table)

    def __call__(self, point):
        # one power table per coordinate, not a power per monomial
        powers = [[c**0] for c in point]
        for c, row in zip(point, powers):
            for _ in range(self.degree):
                row.append(row[-1] * c)
        px, py, pz = powers
        acc = 0
        for (i, j, k), value in self.coeffs:
            acc = acc + value * px[i] * py[j] * pz[k]
        return acc

    def __eq__(self, other):
        if not isinstance(other, TernaryForm):
            return NotImplemented
        return self.degree == other.degree and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.degree, self.coeffs))

    def __repr__(self):
        return "TernaryForm(%d, %s)" % (self.degree, dict(self.coeffs))

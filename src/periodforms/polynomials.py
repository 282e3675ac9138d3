"""Dense univariate polynomials and homogeneous ternary forms over Q.

A Polynomial is an integer vector over one positive denominator, kept in
lowest terms, so its kernels run on ints: products are integer
convolutions and division is pseudo-division over Z.  The gcd is decided
modulo one 30-bit prime when it is constant, which is the common case,
and found otherwise by Brown's modular algorithm with an exact division
check (Brown, J. ACM 18, 1971; Knuth, TAOCP vol. 2, 4.6.1).  A TernaryForm
is integer coefficients over one positive denominator too, so its values
at rational and Polynomial points are integer sums.  Nothing in here ever
rounds; values at float and complex points are those the Fraction
coefficients give, bit for bit.  A linear form's value there is one dot
product of its converted coefficients with the coordinates, which gives the
bits of the power tables that higher degrees use wherever its terms are
finite.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import gcd, lcm

from .errors import DomainError


class Polynomial:
    """Univariate polynomial, coefficients listed from the constant term up.

    Stored as num / den: integer coefficients num over a positive den with
    gcd(den, *num) = 1, so equal polynomials have equal (num, den).  The
    zero polynomial is ((), 1) and has degree -1 by convention.
    """

    __slots__ = ("num", "den")

    def __init__(self, coeffs=()):
        values = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in coeffs]
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
        return Polynomial._make(_convolve(self.num, other.num), self.den * other.den)

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

    def gcd(self, other):
        """The monic gcd; the zero polynomial when both are zero."""
        h = _integer_gcd(self.num, _lift(other).num)
        return Polynomial._make(h, h[-1] if h else 1)

    def derivative(self):
        return Polynomial._make([k * c for k, c in enumerate(self.num)][1:], self.den)

    def is_squarefree(self):
        if self.is_zero():
            return False
        return self.gcd(self.derivative()).degree == 0

    def _at(self, u, v):
        """(numerator, denominator) of the value at x = u/v, for integers u
        and v != 0, not reduced: the homogeneous Horner over Z, sum c_i u^i
        v^(n-i), over den v^n."""
        num = self.num
        if not num:
            return 0, 1
        acc, power = num[-1], 1
        for c in reversed(num[:-1]):
            power *= v
            acc = acc * u + c * power
        return acc, self.den * power

    def __call__(self, x):
        if isinstance(x, (int, Fraction)):
            return Fraction(*self._at(x.numerator, x.denominator))
        if not self.num:
            return Fraction(0)
        # Horner over the Fraction coefficients, for floats and complex
        coeffs = self.coeffs
        acc = coeffs[-1]
        for c in reversed(coeffs[:-1]):
            acc = acc * x + c
        return acc

    def _simple_rational_roots(self):
        """The rational roots of this nonzero squarefree polynomial, sorted.

        By Hensel lifting (Loos, SIAM J. Comput. 12, 1983).  Let c be the
        numerator vector and a = |c_n|.  A root u/v in lowest terms has
        v | a, so y = a u / v is an integer with |y| <= B = a + max |c_i|.
        Take the first prime q not dividing a at which every root of c
        mod q is simple; only primes dividing a * disc fail.  Each
        rational root reduces to such a root, whose Newton lift mod q^(2^i)
        is unique, so once the modulus M exceeds 2B, y is the symmetric
        residue of a * r mod M.  Candidates are checked exactly.
        """
        c = self.num
        a = abs(c[-1])
        bound = a + max(abs(x) for x in c)
        dc = [k * x for k, x in enumerate(c)][1:]
        for q in count(2):
            if a % q and _is_prime(q):
                residues = [r for r in range(q) if _eval_mod(c, r, q) == 0]
                if all(_eval_mod(dc, r, q) for r in residues):
                    break
        roots = []
        for r in residues:
            m = q
            while m <= 2 * bound:
                m *= m
                r = (r - _eval_mod(c, r, m) * pow(_eval_mod(dc, r, m), -1, m)) % m
            y = a * r % m
            root = Fraction(y - m if 2 * y > m else y, a)
            if self(root) == 0:
                roots.append(root)
        return sorted(roots)

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


def _convolve(a, b):
    """Product of two integer coefficient vectors."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _is_prime(n):
    """Miller-Rabin with the first twelve prime bases, which is exact for
    n < 3.3 * 10^24 (Sorenson and Webster, Math. Comp. 86, 2017)."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n == b:
            return True
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes():
    """The primes below 2^30 in decreasing order, so that residues and
    their products stay small ints.  The first, 2^30 - 35, is the largest
    prime below 2^30 and is given without a test, so the common case of a
    gcd decided at one prime tests none."""
    q = 2**30 - 35
    while True:
        yield q
        q -= 2
        while not _is_prime(q):
            q -= 2


def _gcd_mod(a, b, p):
    """Monic gcd of the integer vectors a and b modulo the prime p, which
    divides neither leading coefficient: Euclid over GF(p)."""
    a, b = [x % p for x in a], [x % p for x in b]
    while b:
        n, inv = len(b) - 1, pow(b[-1], -1, p)
        for j in range(len(a) - 1 - n, -1, -1):
            c = a[n + j] * inv % p
            if c:
                a[j:n + j] = [(x - c * y) % p for x, y in zip(a[j:n + j], b)]
        del a[n:]
        while a and not a[-1]:
            a.pop()
        a, b = b, a
    inv = pow(a[-1], -1, p)
    return [x * inv % p for x in a]


def _divides(h, a):
    """Whether the integer vector h != 0 divides a over Z, by long
    division that stops at the first inexact quotient coefficient."""
    r, n, lead = list(a), len(h) - 1, h[-1]
    for j in range(len(r) - 1 - n, -1, -1):
        c, rest = divmod(r[n + j], lead)
        if rest:
            return False
        if c:
            r[j:n + j] = [x - c * y for x, y in zip(r[j:n + j], h)]
    return not any(r[:n])


def _integer_gcd(a, b):
    """The primitive, positive-leading gcd over Z of integer vectors a and
    b; [] when both vanish.

    Let p be a prime dividing neither leading coefficient.  A primitive
    common factor h has lc(h) | lc(a), so h mod p keeps its degree and
    divides both images: deg gcd(a, b) <= deg gcd(a mod p, b mod p).  So a
    constant gcd mod p proves a constant gcd.  Otherwise this is Brown's
    modular algorithm (J. ACM 18, 1971; Knuth, TAOCP vol. 2, 4.6.1): with
    l = gcd(lc(a), lc(b)), l * h / lc(h) has integer coefficients, and its
    image is l times the monic gcd mod p at every prime where the degree is
    the least seen, so those images are joined by the Chinese remainder
    theorem in symmetric residues; a prime of lower degree restarts the
    image, one of higher degree is skipped.  When one more prime leaves the
    image unchanged, its primitive part H is a candidate, returned only if H
    divides a and b exactly.  Then H | h and deg H >= deg h, so H = h; a
    failed check only asks for more primes.
    """
    a, b = _primitive(a), _primitive(b)
    if not a or not b:
        return a or b
    if len(a) == 1 or len(b) == 1:
        return [1]
    lead = gcd(a[-1], b[-1])
    image, modulus, size = None, 1, min(len(a), len(b))
    for p in _primes():
        if a[-1] % p == 0 or b[-1] % p == 0:
            continue
        g = _gcd_mod(a, b, p)
        if len(g) == 1:
            return [1]
        if len(g) > size:
            continue
        g = [lead * c % p for c in g]
        if image is None or len(g) < size:
            image, modulus, size = _symmetric(g, p), p, len(g)
            continue
        inv = pow(modulus, -1, p)
        joined = [x + modulus * ((c - x) * inv % p) for x, c in zip(image, g)]
        modulus *= p
        joined = _symmetric(joined, modulus)
        if joined == image:
            h = _primitive(image)
            if _divides(h, a) and _divides(h, b):
                return h
        image = joined


def _symmetric(values, m):
    """Residues mod m, given in (-m/2, m), moved into (-m/2, m/2]."""
    return [x - m if 2 * x > m else x for x in values]


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
    """Homogeneous form in three variables with rational coefficients.

    Stored as num / den: num is a tuple of (exponents, integer) pairs,
    exponents descending, no zero integer, over a positive den with
    gcd(den, *integers) = 1, so equal forms have equal (num, den).
    """

    __slots__ = ("degree", "num", "den")

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
            table[(i, j, k)] = Fraction(value)
        den = lcm(*(v.denominator for v in table.values()))
        num = {key: v.numerator * (den // v.denominator) for key, v in table.items()}
        self._init(degree, num, den)

    @staticmethod
    def _make(degree, num, den):
        """The form sum num[key] x^key / den, put in canonical form."""
        form = object.__new__(TernaryForm)
        form._init(degree, num, den)
        return form

    def _init(self, degree, num, den):
        """Stores num / den with zero terms dropped and the common factor
        removed."""
        num = sorted(((key, c) for key, c in num.items() if c), reverse=True)
        g = gcd(den, *(c for _, c in num))  # den itself when num is empty
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "num", tuple((key, c // g) for key, c in num))
        object.__setattr__(self, "den", den // g)

    def __setattr__(self, name, value):
        raise AttributeError("TernaryForm is immutable")

    @staticmethod
    def linear(a, b, c):
        """The form a x + b y + c z, equal to TernaryForm(1, {(1, 0, 0): a,
        (0, 1, 0): b, (0, 0, 1): c}) without its exponent checks."""
        a, b, c = (v if isinstance(v, (int, Fraction)) else Fraction(v) for v in (a, b, c))
        den = lcm(a.denominator, b.denominator, c.denominator)
        return TernaryForm._make(1, {
            (1, 0, 0): a.numerator * (den // a.denominator),
            (0, 1, 0): b.numerator * (den // b.denominator),
            (0, 0, 1): c.numerator * (den // c.denominator)}, den)

    @property
    def coeffs(self):
        den = self.den
        return tuple((key, Fraction(c, den)) for key, c in self.num)

    def is_zero(self):
        return not self.num

    def coefficient(self, key):
        key = tuple(key)
        for k, c in self.num:
            if k == key:
                return Fraction(c, self.den)
        return Fraction(0)

    def coefficient_vector(self):
        return [self.coefficient(m) for m in ternary_monomials(self.degree)]

    def __add__(self, other):
        if not isinstance(other, TernaryForm):
            return NotImplemented
        if self.degree != other.degree:
            raise DomainError("cannot add forms of different degrees")
        den = lcm(self.den, other.den)
        table = {}
        for form in (self, other):
            scale = den // form.den
            for key, c in form.num:
                table[key] = table.get(key, 0) + scale * c
        return TernaryForm._make(self.degree, table, den)

    def __neg__(self):
        return TernaryForm._make(self.degree, {k: -c for k, c in self.num}, self.den)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = Fraction(c)
        return TernaryForm._make(
            self.degree, {k: v * c.numerator for k, v in self.num}, self.den * c.denominator)

    def __mul__(self, other):
        if not isinstance(other, TernaryForm):
            return NotImplemented
        table = {}
        for (i1, j1, k1), a in self.num:
            for (i2, j2, k2), b in other.num:
                key = (i1 + i2, j1 + j2, k1 + k2)
                table[key] = table.get(key, 0) + a * b
        return TernaryForm._make(self.degree + other.degree, table, self.den * other.den)

    def partial(self, variable):
        if variable not in (0, 1, 2):
            raise DomainError("variable index must be 0, 1 or 2")
        if self.degree == 0:
            raise DomainError("cannot differentiate a constant form")
        table = {}
        for key, c in self.num:
            e = key[variable]
            if e == 0:
                continue
            new = list(key)
            new[variable] = e - 1
            table[tuple(new)] = c * e
        return TernaryForm._make(self.degree - 1, table, self.den)

    def __call__(self, point):
        num, n = self.num, self.degree
        if not num:
            return 0
        if any(isinstance(c, Polynomial) for c in point):
            # F(P / d) = F(P) / d^n for the common denominator d of the
            # coordinates, and F(P) is a sum of integer convolutions
            point = [_lift(c) for c in point]
            d = lcm(*(c.den for c in point))
            px, py, pz = powers = [[[1]] for _ in point]
            for c, row in zip(point, powers):
                v = [x * (d // c.den) for x in c.num]
                for _ in range(n):
                    row.append(_convolve(row[-1], v))
            acc = []
            for (i, j, k), c in num:
                term = _convolve(_convolve(px[i], py[j]), pz[k])
                acc += [0] * (len(term) - len(acc))
                for t, x in enumerate(term):
                    acc[t] += c * x
            return Polynomial._make(acc, self.den * d**n)
        if all(isinstance(c, (int, Fraction)) for c in point):
            d = lcm(*(c.denominator for c in point))
            px, py, pz = ([x**e for e in range(n + 1)]
                          for x in (c.numerator * (d // c.denominator) for c in point))
            return Fraction(sum(c * px[i] * py[j] * pz[k] for (i, j, k), c in num), self.den * d**n)
        # In the power tables each term multiplies its coefficient by the x
        # power first, and a Fraction times a float or complex number is
        # c / den, or complex(c / den), times it: so a float or complex x
        # takes those coefficients, bit-identically, and an int or Fraction
        # x the exact Fractions
        den, x = self.den, point[0]
        if isinstance(x, complex):
            coeffs = [(key, complex(c / den)) for key, c in num]
        elif isinstance(x, float):
            coeffs = [(key, c / den) for key, c in num]
        else:
            coeffs = self.coeffs
        if n == 1 and isinstance(x, (float, complex)):
            # a linear form is one dot product.  The power table's factors
            # x^0 = 1.0 or 1 + 0j change at most the sign of a zero part of
            # a finite term, and the sum, started at 0, loses that sign; it
            # starts at 0j when a coordinate is complex, since a complex
            # table makes every term complex
            _, y, z = point
            acc = 0j if isinstance(x, complex) or isinstance(y, complex) or isinstance(z, complex) else 0
            for (i, j, _), value in coeffs:
                acc = acc + value * (x if i else y if j else z)
            return acc
        # otherwise one power table per coordinate
        powers = [[c**0] for c in point]
        for c, row in zip(point, powers):
            for _ in range(n):
                row.append(row[-1] * c)
        px, py, pz = powers
        acc = 0
        for (i, j, k), value in coeffs:
            acc = acc + value * px[i] * py[j] * pz[k]
        return acc

    def __eq__(self, other):
        if not isinstance(other, TernaryForm):
            return NotImplemented
        return self.degree == other.degree and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.degree, self.num, self.den))

    def __repr__(self):
        return "TernaryForm(%d, %s)" % (self.degree, dict(self.coeffs))

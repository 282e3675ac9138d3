import random
import time
from fractions import Fraction as F
from itertools import islice
from math import isqrt

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from periodforms.errors import DomainError
from periodforms.polynomials import (
    Polynomial,
    TernaryForm,
    _primes,
    _primitive,
    _pseudo_divmod,
    ternary_monomials,
)

# the first primes the modular gcd tries
P0, P1, P2 = islice(_primes(), 3)


def monic(p):
    return p * F(1, p.coeffs[-1])


def rand_poly(rng, degree):
    coeffs = [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(degree)]
    coeffs.append(F(rng.choice([1, 2, -3])))
    return Polynomial(coeffs)


def test_trim_and_degree():
    assert Polynomial([0, 0, 0]).degree == -1
    assert Polynomial([5]).degree == 0
    assert Polynomial([1, 0, 2, 0]).degree == 2
    assert Polynomial().is_zero()


def test_divmod_round_trip():
    rng = random.Random(11)
    for _ in range(40):
        a = rand_poly(rng, rng.randint(0, 6))
        b = rand_poly(rng, rng.randint(0, 4))
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree


def test_gcd_of_built_product():
    x = Polynomial.x()
    shared = (x - 2) * (x + F(1, 3))
    a = shared * (x - 5)
    b = shared * (x + 7) * (x + 7)
    assert a.gcd(b) == monic(shared)


def test_from_roots_and_rational_roots_round_trip():
    p = Polynomial.from_roots([0, F(2, 3), -4], lead=6)
    assert p._simple_rational_roots() == [F(-4), F(0), F(2, 3)]


def test_rational_roots_reports_partial_list():
    # x^2 - 2 has no rational roots at all
    assert Polynomial([-2, 0, 1])._simple_rational_roots() == []
    # (x^2 - 2)(x - 1) only finds the rational one
    p = Polynomial([-2, 0, 1]) * Polynomial([-1, 1])
    assert p._simple_rational_roots() == [F(1)]


def sympy_poly(p):
    x = sympy.Symbol("x")
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
    return sympy.Poly(coeffs, x, domain="QQ")


@st.composite
def root_polynomials(draw):
    """Products of linear factors, with repeats and zero roots, times
    irreducible quadratics and cubics; coefficients up to 10^40."""
    big = st.integers(-(10**40), 10**40)
    entry = st.one_of(st.just(0), st.integers(-30, 30), big)
    p = Polynomial([draw(st.one_of(st.integers(1, 5), st.integers(1, 10**40)))])
    for _ in range(draw(st.integers(0, 4))):
        den = draw(st.one_of(st.integers(1, 12), st.integers(1, 10**40)))
        p = p * Polynomial([-draw(entry), den]) ** draw(st.integers(1, 3))
    for _ in range(draw(st.integers(0, 2))):
        factor = Polynomial(
            [draw(entry) for _ in range(draw(st.integers(2, 3)))]
            + [draw(st.integers(1, 10**40))]
        )
        assume(sympy_poly(factor).is_irreducible)
        p = p * factor
    return p


@settings(max_examples=100, deadline=None)
@given(root_polynomials())
def test_rational_roots_match_sympy(p):
    # the Hensel lift runs on squarefree input: divide out gcd(p, p')
    squarefree = p // p.gcd(p.derivative())
    expected = sorted(F(int(r.p), int(r.q)) for r in sympy_poly(p).ground_roots())
    assert squarefree._simple_rational_roots() == expected


@pytest.mark.parametrize(
    "p, roots",
    [
        (Polynomial([1, 3]) * Polynomial([-(10**40), 1]), [F(-1, 3), F(10**40)]),
        (Polynomial([10**40 + 7, 0, 1]), []),
    ],
)
def test_rational_roots_of_huge_coefficients_take_milliseconds(p, roots):
    # trial division would need about 10^20 steps here
    start = time.perf_counter()
    assert p._simple_rational_roots() == roots
    assert time.perf_counter() - start < 0.1


def test_squarefree():
    x = Polynomial.x()
    assert ((x - 1) * (x - 2)).is_squarefree()
    assert not ((x - 1) * (x - 1)).is_squarefree()
    assert not Polynomial().is_squarefree()


def test_derivative_product_rule():
    rng = random.Random(3)
    a, b = rand_poly(rng, 4), rand_poly(rng, 3)
    lhs = (a * b).derivative()
    assert lhs == a.derivative() * b + a * b.derivative()


def test_pow_matches_repeated_product():
    x = Polynomial.x()
    p = x + 1
    assert p**3 == p * p * p
    assert p**0 == Polynomial([1])
    with pytest.raises(DomainError):
        p ** (-1)


def test_call_accepts_rational_float_complex():
    p = Polynomial([1, 0, 1])  # x^2 + 1
    assert p(F(1, 2)) == F(5, 4)
    assert p(1j) == 0
    assert abs(p(2.0) - 5.0) < 1e-12


def test_call_at_an_int_returns_a_fraction():
    for p in (Polynomial([F(1, 2), 3]), Polynomial([7]), Polynomial()):
        assert type(p(3)) is F and type(p(F(3, 5))) is F
    assert Polynomial([F(1, 2), 3])(3) == F(19, 2)


def test_representation_is_canonical():
    a, b = Polynomial([F(2, 4), 1]), Polynomial([F(1, 2), 1])
    assert a == b and hash(a) == hash(b)
    assert (a.num, a.den) == ((1, 2), 2)
    assert Polynomial([F(1, 2), F(1, 3)]).num == (3, 2)
    assert Polynomial([F(1, 2), F(1, 3)]).den == 6
    # results of arithmetic come out reduced too
    assert (a * 2 - Polynomial([1, 2])).num == ()
    assert (a * 2 - Polynomial([1, 2])).den == 1
    assert monic(Polynomial([F(-3, 4), F(-3, 2)])) == Polynomial([F(1, 2), 1])
    assert Polynomial([F(-3, 4), F(-3, 2)]).coeffs == (F(-3, 4), F(-3, 2))


# The Fraction implementations that the integer kernels replaced, kept as
# oracles: coefficient lists from the constant term up, no trailing zeros.


def oracle_trim(values):
    out = [F(v) for v in values]
    while out and out[-1] == 0:
        out.pop()
    return out


def oracle_add(a, b):
    n = max(len(a), len(b))
    return oracle_trim(
        (a[k] if k < len(a) else 0) + (b[k] if k < len(b) else 0) for k in range(n)
    )


def oracle_mul(a, b):
    if not a or not b:
        return []
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return oracle_trim(out)


def oracle_divmod(a, b):
    rem = list(a)
    quo = [F(0)] * max(0, len(rem) - len(b) + 1)
    for k in range(len(rem) - len(b), -1, -1):
        c = rem[k + len(b) - 1] / b[-1]
        quo[k] = c
        if c:
            for j, y in enumerate(b):
                rem[k + j] -= c * y
    return oracle_trim(quo), oracle_trim(rem)


def oracle_gcd(a, b):
    while b:
        a, b = b, oracle_divmod(a, b)[1]
    return [c / a[-1] for c in a]


def oracle_eval(a, x):
    acc = a[-1] if a else F(0)
    for c in reversed(a[:-1]):
        acc = acc * x + c
    return acc


def oracle_derivative(a):
    return oracle_trim(k * c for k, c in enumerate(a))[1:]


@st.composite
def fraction_lists(draw, max_degree=5):
    """Coefficient lists, zero and constant ones included; numerators small
    or up to 40 digits, denominators up to 10^6, leading terms of any sign."""
    num = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-(10**40), 10**40))
    den = st.one_of(st.just(1), st.integers(1, 12), st.integers(1, 10**6))
    return draw(st.lists(st.builds(F, num, den), max_size=max_degree + 1))


@st.composite
def fraction_pairs(draw):
    """Two coefficient lists, sometimes multiplied by a shared factor, which
    may be a square."""
    a, b = draw(fraction_lists()), draw(fraction_lists())
    if draw(st.booleans()):
        s = draw(fraction_lists(max_degree=3))
        if draw(st.booleans()):
            s = oracle_mul(s, s)
        a, b = oracle_mul(a, s), oracle_mul(b, s)
    return oracle_trim(a), oracle_trim(b)


@settings(max_examples=200, deadline=None)
@given(fraction_pairs(), st.integers(-(10**6), 10**6), st.builds(F, st.integers(-99, 99), st.integers(1, 10**6)),
       st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False))
def test_integer_kernels_match_fraction_oracles(pair, n, q, z):
    a, b = pair
    pa, pb = Polynomial(a), Polynomial(b)
    assert list(pa.coeffs) == a and list(pb.coeffs) == b
    assert list((pa + pb).coeffs) == oracle_add(a, b)
    assert list((pa - pb).coeffs) == oracle_add(a, [-c for c in b])
    assert list((pa * pb).coeffs) == oracle_mul(a, b)
    assert list(pa.derivative().coeffs) == oracle_derivative(a)
    if b:
        quo, rem = divmod(pa, pb)
        assert (list(quo.coeffs), list(rem.coeffs)) == oracle_divmod(a, b)
    assert list(pa.gcd(pb).coeffs) == oracle_gcd(a, b)
    if a:
        assert pa.is_squarefree() == (len(oracle_gcd(a, oracle_derivative(a))) == 1)
    for x in (n, q):
        value = pa(x)
        assert type(value) is F and value == oracle_eval(a, x)
    # floats and complex numbers keep the Horner over the Fraction coefficients
    for x in (z, z.real):
        value, expected = pa(x), oracle_eval(a, x)
        assert type(value) is type(expected) and value == expected


@settings(max_examples=100, deadline=None)
@given(fraction_pairs())
def test_gcd_matches_sympy(pair):
    a, b = pair
    pa, pb = Polynomial(a), Polynomial(b)
    expected = sympy.gcd(sympy_poly(pa), sympy_poly(pb)).all_coeffs()
    assert list(pa.gcd(pb).coeffs) == oracle_trim(F(int(c.p), int(c.q)) for c in reversed(expected))


def test_gcd_at_degree_40_takes_under_two_seconds():
    # Euclid over Q took 76 s on the first of these
    rng = random.Random(40)

    def poly(degree):
        return Polynomial([F(rng.randint(-(10**10), 10**10), rng.randint(1, 1000)) for _ in range(degree + 1)])

    a, b, shared = poly(40), poly(39), poly(5)
    square = poly(30) * shared * shared
    cases = [
        (lambda: a.gcd(b).degree, 0),
        (lambda: (a * shared).gcd(b * shared) == monic(shared), True),
        (a.is_squarefree, True),
        (square.is_squarefree, False),
    ]
    for call, expected in cases:
        start = time.perf_counter()
        assert call() == expected
        assert time.perf_counter() - start < 2


def test_gcd_of_ten_digit_fractions_at_degree_40_takes_half_a_second():
    # the primitive PRS took 10.6 s on the shared factor: the cleared
    # coefficients start near 2,200 bits and its remainders reach 80,000
    rng = random.Random(41)

    def poly(degree):
        return Polynomial([F(rng.randint(-(10**10), 10**10), rng.randint(1, 10**10))
                           for _ in range(degree + 1)])

    a, b, shared = poly(40), poly(39), poly(5)
    cases = [
        (lambda: a.gcd(b).degree, 0),
        (lambda: (a * shared).gcd(b * shared) == monic(shared), True),
    ]
    for call, expected in cases:
        start = time.perf_counter()
        assert call() == expected
        assert time.perf_counter() - start < 0.5


def prs_gcd(p, q):
    """The primitive PRS (Knuth, TAOCP vol. 2, 4.6.1) that the modular gcd
    replaced: integer pseudo-remainders with the content removed, monic at
    the end."""
    a, b = _primitive(p.num), _primitive(q.num)
    while b:
        a, b = b, _primitive(_pseudo_divmod(a, b)[1])
    return Polynomial._make(a, a[-1] if a else 1)


@st.composite
def modular_gcd_pairs(draw):
    """(a, b) = (h u, h v) over Z, with leading coefficients of h, u and v
    that the first primes may divide, and sometimes v = u + P0 P1, so the
    first two primes see the common factor h u: unlucky primes."""
    coeff = st.one_of(st.integers(-9, 9), st.integers(-(10**30), 10**30))
    lead = st.one_of(st.integers(1, 9), st.sampled_from([P0, P1, P0 * P1, 3 * P0, -P1]))

    def poly(max_degree):
        body = draw(st.lists(coeff, max_size=max_degree))
        return Polynomial(body + [draw(lead) * draw(st.sampled_from([1, -1]))])

    h = poly(3) if draw(st.booleans()) else Polynomial([1])
    u = poly(5)
    v = u + P0 * P1 if draw(st.booleans()) and u.degree > 0 else poly(5)
    if draw(st.booleans()):
        h = h * h
    return h * u, h * v


@settings(max_examples=150, deadline=None)
@given(st.one_of(modular_gcd_pairs(), fraction_pairs()))
def test_gcd_matches_the_primitive_prs(pair):
    a, b = (p if isinstance(p, Polynomial) else Polynomial(p) for p in pair)
    expected = prs_gcd(a, b)
    assert a.gcd(b) == expected == b.gcd(a)
    if not a.is_zero():
        assert a.is_squarefree() == (prs_gcd(a, a.derivative()).degree == 0)


def test_the_first_modular_primes_are_prime():
    # the first is given without a primality test
    assert 2**30 > P0 > P1 > P2
    for p in (P0, P1, P2):
        assert all(p % d for d in range(2, isqrt(p) + 1))


def test_modular_gcd_survives_unlucky_primes():
    # modulo P0 and P1 the cofactors agree, so both primes see the common
    # factor (x + 2)(x + 1); a third prime is needed, and the first stable
    # image is (x + 2)(x + 1), which the division check must reject
    h, u = Polynomial([2, 1]), Polynomial([1, 1])
    a, b = h * u, h * (u + P0 * P1)
    assert a.gcd(b) == h
    # a common factor whose leading coefficient P0 vanishes modulo P0
    h = Polynomial([1, P0])
    assert (h * Polynomial([2, 1])).gcd(h * Polynomial([3, 1])) == monic(h)


class FractionTernaryForm:
    """The Fraction-coefficient TernaryForm that the integer one replaced,
    kept as the oracle of its arithmetic and values."""

    def __init__(self, degree, coeffs):
        self.degree = degree
        self.coeffs = tuple(sorted(((k, F(v)) for k, v in dict(coeffs).items() if v), reverse=True))

    def __add__(self, other):
        table = dict(self.coeffs)
        for key, value in other.coeffs:
            table[key] = table.get(key, F(0)) + value
        return FractionTernaryForm(self.degree, table)

    def __mul__(self, other):
        table = {}
        for (i1, j1, k1), a in self.coeffs:
            for (i2, j2, k2), b in other.coeffs:
                key = (i1 + i2, j1 + j2, k1 + k2)
                table[key] = table.get(key, F(0)) + a * b
        return FractionTernaryForm(self.degree + other.degree, table)

    def scale(self, c):
        return FractionTernaryForm(self.degree, {k: v * F(c) for k, v in self.coeffs})

    def partial(self, variable):
        table = {}
        for key, value in self.coeffs:
            e = key[variable]
            if e:
                new = list(key)
                new[variable] = e - 1
                table[tuple(new)] = value * e
        return FractionTernaryForm(self.degree - 1, table)

    def __call__(self, point):
        powers = [[c**0] for c in point]
        for c, row in zip(point, powers):
            for _ in range(self.degree):
                row.append(row[-1] * c)
        px, py, pz = powers
        acc = 0
        for (i, j, k), value in self.coeffs:
            acc = acc + value * px[i] * py[j] * pz[k]
        return acc


@st.composite
def ternary_tables(draw, degree):
    value = st.one_of(st.just(0), st.integers(-9, 9),
                      st.builds(F, st.integers(-(10**12), 10**12), st.integers(1, 10**6)))
    return {m: draw(value) for m in ternary_monomials(degree)}


@st.composite
def ternary_points(draw):
    """A point of each type a form is evaluated at: ints, Fractions mixed
    with ints, Polynomials mixed with ints, floats, complex numbers, and
    floats mixed with complex numbers; signed zeros are drawn often."""
    small = st.builds(F, st.integers(-30, 30), st.integers(1, 12))
    kind = draw(st.sampled_from(["int", "fraction", "polynomial", "float", "complex", "mixed"]))
    if kind == "int":
        return tuple(draw(st.integers(-50, 50)) for _ in range(3))
    if kind == "fraction":
        return tuple(draw(st.one_of(small, st.integers(-5, 5))) for _ in range(3))
    if kind == "polynomial":
        poly = st.builds(Polynomial, st.lists(small, max_size=3))
        return tuple(draw(st.one_of(poly, st.integers(-5, 5))) for _ in range(3))
    number = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-4, 4, allow_nan=False))
    if kind == "float":
        return tuple(draw(number) for _ in range(3))
    if kind == "complex":
        return tuple(complex(draw(number), draw(number)) for _ in range(3))
    return tuple(draw(st.one_of(number, st.builds(complex, number, number))) for _ in range(3))


def bits(value):
    """value, with a float or both parts of a complex number written by
    float.hex, so that a signed zero compares too."""
    if isinstance(value, complex):
        return value.real.hex(), value.imag.hex()
    if isinstance(value, float):
        return value.hex()
    return value


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 4).flatmap(lambda d: st.tuples(st.just(d), ternary_tables(d), ternary_tables(1))),
       ternary_points())
# -x at x = 0.0 is a term -0.0, and the oracle's sum, started at 0, is 0.0
@example((0, {(0, 0, 0): 1}, {(1, 0, 0): -1, (0, 1, 0): 0, (0, 0, 1): 0}), (0.0, -0.0, 2.5))
# the oracle's y table is complex, so x alone at this point is complex
@example((0, {(0, 0, 0): 1}, {(1, 0, 0): F(-1, 3), (0, 1, 0): 0, (0, 0, 1): 0}), (-0.0, 1.5j, 2.0))
def test_ternary_form_matches_the_fraction_oracle(case, point):
    degree, table, line = case
    form, oracle = TernaryForm(degree, table), FractionTernaryForm(degree, table)
    lin, lin_oracle = TernaryForm(1, line), FractionTernaryForm(1, line)
    pairs = [(form, oracle), (lin, lin_oracle), (form * lin, oracle * lin_oracle),
             (form.scale(F(-3, 7)), oracle.scale(F(-3, 7))), (form + form.scale(2), oracle + oracle.scale(2))]
    if degree:
        pairs += [(form.partial(v), oracle.partial(v)) for v in range(3)]
    for got, expected in pairs:
        assert got.coeffs == expected.coeffs
        value, reference = got(point), expected(point)
        assert type(value) is type(reference) and bits(value) == bits(reference)


@pytest.mark.parametrize("a, b, c", [
    (1, 0, -2), (0, 0, 0), (F(1, 6), F(-3, 4), 5), ("1/6", "-3/4", "5"), (0.5, -0.1, 3.0), (F(2, 3), "7", 0.25),
])
def test_linear_is_the_degree_one_form(a, b, c):
    form = TernaryForm.linear(a, b, c)
    general = TernaryForm(1, {(1, 0, 0): a, (0, 1, 0): b, (0, 0, 1): c})
    assert (form.degree, form.num, form.den) == (general.degree, general.num, general.den)
    assert form == general and hash(form) == hash(general)


def test_ternary_monomial_order():
    assert ternary_monomials(1) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert ternary_monomials(2) == [
        (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2),
    ]


def test_ternary_homogeneity_enforced():
    with pytest.raises(DomainError):
        TernaryForm(4, {(3, 0, 0): 1})
    with pytest.raises(DomainError):
        TernaryForm(2, {(1, -1, 2): 1})


def test_ternary_product_and_euler_identity():
    rng = random.Random(5)
    table = {}
    for m in ternary_monomials(4):
        table[m] = F(rng.randint(-4, 4))
    form = TernaryForm(4, table)
    x, y, z = (TernaryForm.linear(1, 0, 0), TernaryForm.linear(0, 1, 0),
               TernaryForm.linear(0, 0, 1))
    combo = x * form.partial(0) + y * form.partial(1) + z * form.partial(2)
    assert combo == form.scale(4)


def test_ternary_restriction_to_line_is_polynomial():
    form = TernaryForm(4, {(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1})
    t = Polynomial.x()
    restricted = form((t, 1 - t, Polynomial([1])))
    assert isinstance(restricted, Polynomial)
    assert restricted.degree == 4
    assert restricted(F(1, 2)) == form((F(1, 2), F(1, 2), 1))

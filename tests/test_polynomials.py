import random
import time
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from periodforms.errors import DomainError
from periodforms.polynomials import Polynomial, TernaryForm, ternary_monomials


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
    assert a.gcd(b) == shared.monic()


def test_from_roots_and_rational_roots_round_trip():
    p = Polynomial.from_roots([0, 0, F(2, 3), -4], lead=6)
    assert p.rational_roots() == [(F(-4), 1), (F(0), 2), (F(2, 3), 1)]


def test_rational_roots_reports_partial_list():
    # x^2 - 2 has no rational roots at all
    assert Polynomial([-2, 0, 1]).rational_roots() == []
    # (x^2 - 2)(x - 1) only finds the rational one
    p = Polynomial([-2, 0, 1]) * Polynomial([-1, 1])
    assert p.rational_roots() == [(F(1), 1)]


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
    expected = sorted(
        (F(int(r.p), int(r.q)), m) for r, m in sympy_poly(p).ground_roots().items()
    )
    assert p.rational_roots() == expected


@pytest.mark.parametrize(
    "p, roots",
    [
        (Polynomial([1, 3]) * Polynomial([-(10**40), 1]), [(F(-1, 3), 1), (F(10**40), 1)]),
        (Polynomial([10**40 + 7, 0, 1]), []),
    ],
)
def test_rational_roots_of_huge_coefficients_take_milliseconds(p, roots):
    # trial division would need about 10^20 steps here
    start = time.perf_counter()
    assert p.rational_roots() == roots
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

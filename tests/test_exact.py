import random
from fractions import Fraction

import pytest

from periodforms.errors import DomainError
from periodforms.exact import (
    GaussianRational,
    QuadraticNumber,
    format_rational,
    parse_rational,
    quadratic_sum,
)


def qi(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def test_parse_and_format_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-2") == Fraction(-2)
    assert parse_rational(" 5/10 ") == Fraction(1, 2)
    assert format_rational(Fraction(3, 4)) == "3/4"
    assert format_rational(Fraction(-6, 3)) == "-2"
    with pytest.raises(DomainError):
        parse_rational("1.5x")
    with pytest.raises(DomainError):
        parse_rational("1/0")


def quotient(a, b):
    """a / b from the library's product and conjugate."""
    return a * b.conjugate() * Fraction(1, (b * b.conjugate()).re)


def times_i(a):
    return GaussianRational(-a.im, a.re)


def test_gaussian_arithmetic():
    a = qi(1, 2)
    b = qi(Fraction(1, 2), -1)
    assert a + b == qi(Fraction(3, 2), 1)
    assert a - b == qi(Fraction(1, 2), 3)
    assert a * b == qi(Fraction(5, 2), 0)
    assert quotient(a, a) == qi(1)
    assert quotient(a, b) * b == a
    assert a.conjugate() == qi(1, -2)
    assert times_i(a) == a * qi(0, 1) == qi(-2, 1)
    assert qi(0).is_zero()
    assert not qi(0) and qi(0, 1)


def test_gaussian_mixed_scalars():
    a = qi(1, 2)
    assert 2 * a == qi(2, 4)
    assert a * Fraction(1, 2) == qi(Fraction(1, 2), 1)
    assert a + 1 == qi(2, 2)
    assert 1 - a == qi(0, -2)


def test_gaussian_keeps_a_fraction_part_with_the_same_value_and_hash():
    rng = random.Random(7)
    for _ in range(100):
        re, im = (Fraction(rng.randint(-50, 50), rng.randint(1, 30)) for _ in range(2))
        z = GaussianRational(re, im)
        assert z.re is re and z.im is im
        # built from fresh parts, as a copy of each Fraction would be
        fresh = GaussianRational(str(re), str(im))
        assert z == fresh and hash(z) == hash(fresh) == hash((re, im))
    mixed = GaussianRational(3, Fraction(1, 2))
    assert type(mixed.re) is Fraction and mixed == qi(3, Fraction(1, 2))


def test_gaussian_parse_roundtrip():
    a = GaussianRational.parse(["1/2", "-3"])
    assert a == qi(Fraction(1, 2), -3)
    assert a.to_pair() == ["1/2", "-3"]
    assert complex(a) == complex(0.5, -3.0)


def test_quadratic_number_arithmetic():
    r = QuadraticNumber(Fraction(1), Fraction(2), 5)  # 1 + 2*sqrt(5)
    s = r.scale(Fraction(-3, 2))
    assert (s.a, s.b, s.disc) == (Fraction(-3, 2), -3, 5)
    assert abs(float(r) - (1 + 2 * 5 ** 0.5)) < 1e-12
    # a zero radical part or discriminant normalises to a rational value
    for q in (QuadraticNumber(4, 0, 5), QuadraticNumber(4, 3, 0)):
        assert (q.a, q.b, q.disc) == (4, 0, 0) and repr(q) == "QuadraticNumber(4)"
    assert repr(r) == "QuadraticNumber(1 + 2*sqrt(5))"


def test_quadratic_sum_cancels():
    vals = [
        QuadraticNumber(Fraction(1, 3), Fraction(2), 5),
        QuadraticNumber(Fraction(2, 3), Fraction(-2), 5),
        QuadraticNumber(Fraction(1), Fraction(1), 13),
        QuadraticNumber(Fraction(0), Fraction(-1), 13),
    ]
    assert quadratic_sum(vals) == Fraction(2)


def test_quadratic_sum_nonrational_rejected():
    vals = [QuadraticNumber(Fraction(0), Fraction(1), 5)]
    with pytest.raises(DomainError):
        quadratic_sum(vals)

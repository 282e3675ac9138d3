import cmath
import json
import random
import subprocess
import sys
import time
from fractions import Fraction as F

import numpy
import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st

from periodforms import curve_algebra
from periodforms.curve_algebra import (
    COPRIME,
    LINKED,
    Differential,
    HyperellipticCurve,
    PlaneQuartic,
    QuadDifferential,
    TauSubspace,
    classify,
    dividend_dim,
    isoperiodic_deformation_dim,
    multiplication_rank,
    noether_image_dim,
    obscurant_dim,
    obscurant_kernel,
    overlap_degree,
    quartic_cross_ratio,
    residues_of_quotient,
    section_values,
    veronese_linked_pair,
)
from periodforms.errors import DomainError
from periodforms.exact import quadratic_sum
from periodforms.intlinalg import rational_rank
from periodforms.polynomials import Polynomial, TernaryForm, ternary_monomials
from test_cli import src_env

X = Polynomial.x()


# ---------------------------------------------------------------- oracles

def sympy_kernel_dim(curve, taus):
    """Multiplication-map kernel dimension recomputed through sympy's
    symbolic expansion and rank, independent of the Fraction matrices."""
    import sympy

    if isinstance(curve, HyperellipticCurve):
        x = sympy.Symbol("x")
        unknowns, total = [], sympy.Integer(0)
        for i, d in enumerate(taus):
            expr = sum(
                sympy.Rational(c.numerator, c.denominator) * x**k
                for k, c in enumerate(d.p.coeffs)
            )
            cs = sympy.symbols("c_%d_0:%d" % (i, curve.genus))
            unknowns.extend(cs)
            total += expr * sum(s * x**j for j, s in enumerate(cs))
        total = sympy.expand(total)
        eqs = [total.coeff(x, m) for m in range(2 * curve.genus - 1)]
    else:
        x, y, z = sympy.symbols("x y z")
        unknowns, total = [], sympy.Integer(0)
        for i, d in enumerate(taus):
            expr = sympy.Integer(0)
            for (a, b, c), v in d.p.coeffs:
                expr += sympy.Rational(v.numerator, v.denominator) * x**a * y**b * z**c
            cs = sympy.symbols("u_%d_0:3" % i)
            unknowns.extend(cs)
            total += expr * (cs[0] * x + cs[1] * y + cs[2] * z)
        total = sympy.expand(sympy.Poly(total, x, y, z).as_expr())
        eqs = []
        for (a, b, c) in ternary_monomials(2):
            eqs.append(total.coeff(x, a).coeff(y, b).coeff(z, c))
    matrix, _ = sympy.linear_eq_to_matrix(eqs, unknowns)
    return len(unknowns) - matrix.rank()


def pair_kernel_closed_form(curve, d1, d2):
    # Q[x] is a UFD: relations q1 p1 = -q2 p2 are multiples of the obvious
    # one built from p2/gcd and p1/gcd, truncated by the degree bound.
    shared = d1.p.gcd(d2.p)
    return curve.genus - max(d1.p.degree, d2.p.degree) + max(shared.degree, 0)


def product_rows(curve, forms):
    """The matrix of the multiplication map, independent of curve_algebra:
    one row per form times basis 1-form, over the target monomials.  On a
    hyperelliptic curve the product with x^k shifts the coefficients by k."""
    if isinstance(curve, HyperellipticCurve):
        g = curve.genus
        return [[F(0)] * k + [p.coefficient(m) for m in range(g)] + [F(0)] * (g - 1 - k)
                for p in forms for k in range(g)]
    lines = [TernaryForm.linear(*e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    return [[(p * b).coefficient(m) for m in ternary_monomials(2)] for p in forms for b in lines]


def hyperelliptic(roots, lead=1):
    return HyperellipticCurve(Polynomial.from_roots(roots, lead=lead))


def random_curve(rng, genus, odd=False):
    degree = 2 * genus + 1 if odd else 2 * genus + 2
    roots = rng.sample(range(40, 95), degree)
    return hyperelliptic(roots, lead=rng.choice([1, 2, -1]))


def random_differential(rng, curve, degree):
    coeffs = [F(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(degree)]
    coeffs.append(F(rng.choice([1, -1, 2])))
    return Differential(curve, Polynomial(coeffs))


FERMAT = PlaneQuartic({(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1})
# x^4 + y^4 - z^4 has a hyperflex at (0:1:1): the tangent y = z meets it
# in a quadruple point
FLEXED = PlaneQuartic({(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): -1})


def random_quartic(rng):
    table = {(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1}
    for m in ternary_monomials(4):
        if m in table:
            continue
        table[m] = F(rng.randint(-3, 3), rng.randint(1, 3))
    while True:
        try:
            return PlaneQuartic(table)
        except DomainError:
            table[(2, 1, 1)] += 1


def random_line(rng):
    while True:
        coeffs = [F(rng.randint(-5, 5)) for _ in range(3)]
        if any(coeffs):
            return tuple(coeffs)


# ------------------------------------------------------- model validation

def test_curve_validation():
    with pytest.raises(DomainError):
        HyperellipticCurve(Polynomial([1, 0, 0, 0, 1]))  # degree 4
    with pytest.raises(DomainError):
        hyperelliptic([0, 0, 1, 2, 3])  # double root
    assert hyperelliptic([0, 1, 2, 3, 4]).genus == 2
    assert hyperelliptic([0, 1, 2, 3, 4, 5]).genus == 2
    assert hyperelliptic([0, 1, 2, 3, 4, 5, 6]).genus == 3
    assert hyperelliptic([0, 1, 2, 3, 4]).points_at_infinity() == 1
    assert hyperelliptic([0, 1, 2, 3, 4, 5]).points_at_infinity() == 2


def test_quartic_validation():
    with pytest.raises(DomainError):
        PlaneQuartic({(4, 0, 0): 1})  # x^4: a quadruple line
    with pytest.raises(DomainError):
        PlaneQuartic({(2, 1, 1): 1})  # singular along x = 0
    with pytest.raises(DomainError):
        PlaneQuartic({(3, 1, 0): 1, (0, 3, 1): 1})  # singular at (0:0:1)
    singular_off_the_rational_points = [
        # (x^2 + y^2)^2 + x^2 z^2 + z^4, singular only at (1 : +-i : 0)
        {(4, 0, 0): 1, (2, 2, 0): 2, (0, 4, 0): 1, (2, 0, 2): 1, (0, 0, 4): 1},
        # (x^2 + y^2 + z^2)^2 + x^4, singular only at (0 : 1 : +-i)
        {(4, 0, 0): 2, (0, 4, 0): 1, (0, 0, 4): 1, (2, 2, 0): 2, (2, 0, 2): 2, (0, 2, 2): 2},
        # the double conic (x^2 + y^2 - z^2)^2
        {(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1, (2, 2, 0): 2, (2, 0, 2): -2, (0, 2, 2): -2},
        # (x^2 + y^2 + z^2)(x^2 + 2y^2 + 5z^2): the conics meet at four
        # non-real points
        {(4, 0, 0): 1, (2, 2, 0): 3, (2, 0, 2): 6, (0, 4, 0): 2, (0, 2, 2): 7, (0, 0, 4): 5},
    ]
    for table in singular_off_the_rational_points:
        with pytest.raises(DomainError, match="the quartic is singular"):
            PlaneQuartic(table)
    # mixed denominators: the rank test clears them with one lcm
    assert PlaneQuartic({(4, 0, 0): F(1, 3), (0, 4, 0): F(2, 5), (0, 0, 4): 7}).genus == 3
    assert FERMAT.genus == 3


def groebner_smooth(form):
    """The sympy Groebner smoothness test that PlaneQuartic used before the
    rank criterion, kept as an independent oracle."""
    variables = sympy.symbols("x y z")
    polys = []
    for v in range(3):
        expr = sympy.Integer(0)
        for (i, j, k), c in form.partial(v).coeffs:
            expr += (
                sympy.Rational(c.numerator, c.denominator)
                * variables[0] ** i
                * variables[1] ** j
                * variables[2] ** k
            )
        polys.append(expr)
    if any(p == 0 for p in polys):
        return False
    return sympy.groebner(polys, *variables, order="grevlex").is_zero_dimensional


def substitute(table, matrix):
    """The quartic F(M (x, y, z)) for an integer 3 x 3 matrix M."""
    rows = [TernaryForm.linear(*row) for row in matrix]
    out = TernaryForm(4, {})
    for exponents, c in table.items():
        term = TernaryForm(0, {(0, 0, 0): c})
        for row, e in zip(rows, exponents):
            for _ in range(e):
                term = term * row
        out = out + term
    return out


small_coefficient = st.integers(-3, 3).filter(bool)
sparse_tables = st.dictionaries(st.sampled_from(ternary_monomials(4)), small_coefficient,
                                min_size=1, max_size=6)
diagonal_tables = st.tuples(small_coefficient, small_coefficient, small_coefficient).map(
    lambda abc: dict(zip([(4, 0, 0), (0, 4, 0), (0, 0, 4)], abc)))
# no z^3 or z^4 term: singular at (0:0:1) before the change of coordinates
cone_point_tables = st.dictionaries(
    st.sampled_from([m for m in ternary_monomials(4) if m[2] < 3]), small_coefficient,
    min_size=1, max_size=6)
matrices = st.lists(st.lists(st.integers(-2, 2), min_size=3, max_size=3),
                    min_size=3, max_size=3)
quartic_forms = st.one_of(
    sparse_tables.map(lambda table: TernaryForm(4, table)),
    st.builds(substitute, diagonal_tables, matrices),
    st.builds(substitute, cone_point_tables, matrices),
).filter(lambda form: not form.is_zero())


@settings(max_examples=100, deadline=None)
@given(quartic_forms)
def test_quartic_verdicts_match_groebner(form):
    try:
        PlaneQuartic(form)
        accepted = True
    except DomainError as exc:
        assert str(exc) == "the quartic is singular"
        accepted = False
    assert accepted == groebner_smooth(form)


def test_differential_degree_bounds():
    curve = hyperelliptic([0, 1, 2, 3, 4, 5, 6, 7])
    Differential(curve, X**2)
    with pytest.raises(DomainError):
        Differential(curve, X**3)
    with pytest.raises(DomainError):
        Differential(FERMAT, TernaryForm(2, {(2, 0, 0): 1}))
    with pytest.raises(DomainError):
        QuadDifferential(curve, X**5)
    with pytest.raises(DomainError):
        QuadDifferential(curve, X, X)  # r degree 1 > g-3 = 0
    QuadDifferential(curve, X**4, Polynomial([3]))


def test_tau_subspace_validation():
    curve = hyperelliptic([0, 1, 2, 3, 4, 5, 6, 7])
    a, b = Differential(curve, X), Differential(curve, X**2)
    with pytest.raises(DomainError):
        TauSubspace([a])
    with pytest.raises(DomainError):
        TauSubspace([a, b, a + b, a - b])
    with pytest.raises(DomainError):
        TauSubspace([a, a.scale(F(2, 3))])
    with pytest.raises(DomainError):
        TauSubspace([a, Differential(FERMAT, (1, 0, 0))])
    with pytest.raises(DomainError):
        TauSubspace([a, Differential(curve, Polynomial())])
    assert TauSubspace([a, b]).dimension == 2


# --------------------------------------------------- dimensions of kernels

def test_dividend_dim_examples():
    genus3 = hyperelliptic([1, 2, 3, 4, 5, 6, 7, 8])
    assert dividend_dim(Differential(genus3, Polynomial([1]))) == 3
    assert dividend_dim(Differential(genus3, X**2)) == 3
    genus2 = hyperelliptic([1, 2, 3, 4, 5])
    assert dividend_dim(Differential(genus2, X - 7)) == 2
    assert dividend_dim(Differential(FERMAT, (1, 2, 3))) == 3
    with pytest.raises(DomainError):
        dividend_dim(Differential(genus3, Polynomial()))


def test_dividend_dim_is_genus_on_random_input():
    rng = random.Random(21)
    for _ in range(25):
        curve = random_curve(rng, rng.randint(2, 5), odd=rng.random() < 0.5)
        alpha = random_differential(rng, curve, rng.randint(0, curve.genus - 1))
        assert dividend_dim(alpha) == rational_rank(product_rows(curve, [alpha.p])) == curve.genus
    for _ in range(10):
        alpha = Differential(FERMAT, random_line(rng))
        assert dividend_dim(alpha) == rational_rank(product_rows(FERMAT, [alpha.p])) == 3


def test_obscurant_worked_examples():
    curve = hyperelliptic([3, 4, 5, 6, 7, 8, 9, 10])
    tau = TauSubspace([Differential(curve, X * (X - 1)),
                       Differential(curve, X * (X - 2))])
    assert obscurant_dim(tau) == 2
    tau2 = TauSubspace([Differential(curve, X * X - 1),
                        Differential(curve, X * X - 4)])
    assert obscurant_dim(tau2) == 1
    lines = TauSubspace([Differential(FERMAT, (1, 0, 0)),
                         Differential(FERMAT, (0, 1, 0))])
    assert obscurant_dim(lines) == 1


def test_obscurant_matches_sympy_oracle():
    rng = random.Random(33)
    for _ in range(20):
        curve = random_curve(rng, rng.randint(2, 5))
        while True:
            try:
                tau = TauSubspace([
                    random_differential(rng, curve, rng.randint(0, curve.genus - 1))
                    for _ in range(rng.choice([2, 2, 3]))
                ])
                break
            except DomainError:
                continue
        assert obscurant_dim(tau) == sympy_kernel_dim(curve, tau.differentials)
    for _ in range(10):
        while True:
            try:
                tau = TauSubspace([Differential(FERMAT, random_line(rng))
                                   for _ in range(rng.choice([2, 3]))])
                break
            except DomainError:
                continue
        assert obscurant_dim(tau) == sympy_kernel_dim(FERMAT, tau.differentials)


def test_pair_obscurant_matches_closed_form():
    rng = random.Random(17)
    for _ in range(40):
        curve = random_curve(rng, rng.randint(2, 6))
        while True:
            try:
                d1 = random_differential(rng, curve, rng.randint(0, curve.genus - 1))
                d2 = random_differential(rng, curve, rng.randint(0, curve.genus - 1))
                tau = TauSubspace([d1, d2])
                break
            except DomainError:
                continue
        assert obscurant_dim(tau) == pair_kernel_closed_form(curve, d1, d2)
        assert obscurant_dim(tau) >= 1


COEFFICIENTS = st.one_of(st.just(F(0)), st.fractions(-6, 6, max_denominator=4))
QUARTICS = (FERMAT, FLEXED, random_quartic(random.Random(6)))


@st.composite
def hyperelliptic_taus(draw):
    """Pairs and triples at genus 2-9 whose forms share a factor of degree
    s and all have degree <= top <= g - 1 (top < g - 1: a common zero at
    infinity); zero coefficients give more shared roots at x = 0."""
    genus = draw(st.integers(2, 9))
    size = draw(st.sampled_from([2, 3] if genus > 2 else [2]))
    # forms h q_i with deg q_i <= top - s span top - s + 1 >= size dimensions
    top = draw(st.integers(size - 1, genus - 1))
    s = draw(st.integers(0, top - size + 1))
    roots = draw(st.lists(st.integers(-30, 30), min_size=2 * genus + 1,
                          max_size=2 * genus + 2, unique=True))
    curve = HyperellipticCurve(Polynomial.from_roots(roots))
    h = Polynomial(draw(st.lists(COEFFICIENTS, min_size=s, max_size=s)) + [1])
    forms = [h * Polynomial(draw(st.lists(COEFFICIENTS, min_size=top - s + 1,
                                          max_size=top - s + 1)))
             for _ in range(size)]
    try:
        return TauSubspace([Differential(curve, p) for p in forms])
    except DomainError:
        assume(False)


@st.composite
def quartic_taus(draw):
    quartic = draw(st.sampled_from(QUARTICS))
    lines = draw(st.lists(st.tuples(COEFFICIENTS, COEFFICIENTS, COEFFICIENTS),
                          min_size=2, max_size=3))
    try:
        return TauSubspace([Differential(quartic, line) for line in lines])
    except DomainError:
        assume(False)


@settings(max_examples=150, deadline=None)
@given(st.one_of(hyperelliptic_taus(), quartic_taus()))
def test_multiplication_dimensions_match_the_product_matrix(tau):
    curve = tau.curve
    g = curve.genus
    rank = rational_rank(product_rows(curve, [d.p for d in tau.differentials]))
    assert multiplication_rank(tau) == rank
    assert obscurant_dim(tau) == len(obscurant_kernel(tau)) == tau.dimension * g - rank
    assert isoperiodic_deformation_dim(tau) == 3 * g - 3 - rank
    hyper = isinstance(curve, HyperellipticCurve)
    if tau.dimension == 2 and hyper:
        # a pair is coprime exactly when its forms share no zero
        assert (classify(tau) == COPRIME) == (overlap_degree(*tau.differentials) == 0)
    else:
        # hyperelliptic triples are linked; quartic pairs and triples coprime
        assert classify(tau) == (LINKED if hyper else COPRIME)


GENUS_41_CHILD = """
import json, sys
from periodforms.curve_algebra import (Differential, HyperellipticCurve, TauSubspace, classify,
    isoperiodic_deformation_dim, multiplication_rank, obscurant_dim)
from periodforms.polynomials import Polynomial
f, alpha, beta = (Polynomial(p) for p in json.loads(sys.argv[1]))
curve = HyperellipticCurve(f)
tau = TauSubspace([Differential(curve, alpha), Differential(curve, beta)])
calls = (classify, obscurant_dim, multiplication_rank, isoperiodic_deformation_dim)
print(json.dumps([call(tau) for call in calls]))
"""


def test_multiplication_dimensions_at_genus_41_finish():
    # the input of test_curve_overlap_at_genus_41_finishes; eliminating the
    # 82 x 81 product matrix took over 40 s for classify alone
    rng = random.Random(41)
    f = [str(rng.randint(-9, 9)) for _ in range(84)] + ["1"]

    def rational(n):
        return ["%d/%d" % (rng.randint(-999, 999), rng.randint(1, 999)) for _ in range(n)]

    polys = json.dumps([f, rational(41), rational(40)])
    done = subprocess.run([sys.executable, "-c", GENUS_41_CHILD, polys],
                          capture_output=True, text=True, env=src_env(), timeout=10)
    assert done.returncode == 0, done.stderr
    # coprime forms of degree g - 1: kernel 1, rank 2g - 1, (3g - 3) - rank
    assert json.loads(done.stdout) == [COPRIME, 1, 81, 39]


# ------------------------------------------------------------ classify

def test_genus_two_pairs_always_coprime():
    rng = random.Random(8)
    for _ in range(30):
        curve = random_curve(rng, 2, odd=rng.random() < 0.5)
        while True:
            try:
                tau = TauSubspace([random_differential(rng, curve, rng.randint(0, 1)),
                                   random_differential(rng, curve, rng.randint(0, 1))])
                break
            except DomainError:
                continue
        assert classify(tau) == COPRIME


def test_hyperelliptic_triples_always_linked():
    rng = random.Random(9)
    for genus in (3, 4, 5):
        curve = random_curve(rng, genus)
        basis = [Differential(curve, X**k) for k in range(3)]
        tau = TauSubspace(basis)
        assert classify(tau) == LINKED
        assert obscurant_dim(tau) >= genus + 1


def test_quartic_triples_coprime():
    lines = TauSubspace([Differential(FERMAT, (1, 0, 0)),
                         Differential(FERMAT, (0, 1, 0)),
                         Differential(FERMAT, (0, 0, 1))])
    assert classify(lines) == COPRIME
    assert obscurant_dim(lines) == 3


def test_classify_invariant_under_basis_change():
    rng = random.Random(10)
    curve = hyperelliptic([3, 4, 5, 6, 7, 8, 9, 10])
    for tau in (
        TauSubspace([Differential(curve, X * (X - 1)), Differential(curve, X * (X - 2))]),
        TauSubspace([Differential(curve, X * X - 1), Differential(curve, X * X - 4)]),
    ):
        verdict = classify(tau)
        kernel = obscurant_dim(tau)
        for _ in range(10):
            a, b, c, d = (F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4))
            if a * d - b * c == 0:
                continue
            d1, d2 = tau.differentials
            mixed = TauSubspace([d1.scale(a) + d2.scale(b), d1.scale(c) + d2.scale(d)])
            assert classify(mixed) == verdict
            assert obscurant_dim(mixed) == kernel


# ------------------------------------------------------------- overlap

def test_overlap_worked_examples():
    curve = hyperelliptic([3, 4, 5, 6, 7, 8, 9, 10])
    assert overlap_degree(Differential(curve, X * (X - 1)),
                          Differential(curve, X * (X - 2))) == 2
    assert overlap_degree(Differential(curve, Polynomial([1])),
                          Differential(curve, X)) == 2
    assert overlap_degree(Differential(curve, (X - 1) * (X - 2)),
                          Differential(curve, X * (X - 11))) == 0
    with pytest.raises(DomainError):
        overlap_degree(Differential(curve, Polynomial()), Differential(curve, X))


def test_overlap_by_construction():
    rng = random.Random(14)
    for _ in range(30):
        genus = rng.randint(3, 6)
        curve = random_curve(rng, genus, odd=rng.random() < 0.5)
        pool = list(range(-20, 30))
        rng.shuffle(pool)
        shared_deg = rng.randint(0, genus - 2)
        shared = Polynomial.from_roots(pool[:shared_deg])
        left_deg = rng.randint(0, genus - 1 - shared_deg)
        right_deg = rng.randint(0, genus - 1 - shared_deg)
        cut = shared_deg + left_deg
        left = Polynomial.from_roots(pool[shared_deg:cut])
        right = Polynomial.from_roots(pool[cut:cut + right_deg], lead=3)
        alpha = Differential(curve, shared * left)
        beta = Differential(curve, shared * right)
        expected = 2 * shared_deg + 2 * (genus - 1 - (shared_deg + max(left_deg, right_deg)))
        assert overlap_degree(alpha, beta) == expected


def test_linked_pairs_share_at_least_two_zeroes():
    rng = random.Random(15)
    seen_linked = 0
    for _ in range(60):
        curve = random_curve(rng, rng.randint(2, 5))
        while True:
            try:
                d1 = random_differential(rng, curve, rng.randint(0, curve.genus - 1))
                d2 = random_differential(rng, curve, rng.randint(0, curve.genus - 1))
                tau = TauSubspace([d1, d2])
                break
            except DomainError:
                continue
        if classify(tau) == LINKED:
            seen_linked += 1
            assert overlap_degree(d1, d2) >= 2
    assert seen_linked > 0


# ------------------------------------------------------------- veronese

def test_veronese_pair():
    curve = hyperelliptic([3, 4, 5, 6, 7, 8, 9, 10])
    tau = veronese_linked_pair(curve, 0, 1, 2)
    assert classify(tau) == LINKED
    assert obscurant_dim(tau) == 2
    assert overlap_degree(*tau.differentials) == 2
    tau2 = veronese_linked_pair(curve, F(1, 2), -3, F(7, 5))
    assert classify(tau2) == LINKED
    assert overlap_degree(*tau2.differentials) == 2


def test_veronese_rejects_bad_parameters():
    curve = hyperelliptic([3, 4, 5, 6, 7, 8, 9, 10])
    with pytest.raises(DomainError):
        veronese_linked_pair(curve, 0, 0, 2)
    with pytest.raises(DomainError):
        veronese_linked_pair(curve, 3, 1, 2)  # 3 is a branch point
    with pytest.raises(DomainError):
        veronese_linked_pair(hyperelliptic([1, 2, 3, 4, 5]), 0, 6, 7)  # genus 2


# ----------------------------------------------------- deformation counts

def test_isoperiodic_dimensions():
    rng = random.Random(16)
    for genus in range(2, 7):
        curve = random_curve(rng, genus)
        tau = TauSubspace([Differential(curve, Polynomial([1])),
                           Differential(curve, X**(genus - 1))])
        assert classify(tau) == COPRIME
        assert isoperiodic_deformation_dim(tau) == genus - 2
    lines = TauSubspace([Differential(FERMAT, (1, 0, 0)),
                         Differential(FERMAT, (0, 1, 0)),
                         Differential(FERMAT, (0, 0, 1))])
    assert isoperiodic_deformation_dim(lines) == 0
    genus4 = random_curve(rng, 4)
    triple = TauSubspace([Differential(genus4, X**k) for k in range(3)])
    assert isoperiodic_deformation_dim(triple) >= 2


def test_noether_image_dims():
    # the products of the basis 1-forms with each other span the image
    for genus, odd in ((2, True), (3, False), (4, True), (5, False), (6, True), (9, False)):
        curve = random_curve(random.Random(genus), genus, odd=odd)
        basis = [X**k for k in range(genus)]
        assert noether_image_dim(curve) == rational_rank(product_rows(curve, basis))
        assert noether_image_dim(curve) == 2 * genus - 1
        # invariant plus anti-invariant bookkeeping fills H^0(K^2)
        assert (2 * genus - 1) + (genus - 2) == 3 * genus - 3
    lines = [TernaryForm.linear(*e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    for quartic in (FERMAT, FLEXED, random_quartic(random.Random(5))):
        assert noether_image_dim(quartic) == rational_rank(product_rows(quartic, lines)) == 6


# -------------------------------------------------------------- sections

def test_section_values_worked_example():
    curve = hyperelliptic([3, 4, 5, 6, 7, 8, 9, 10])
    alpha = Differential(curve, X * (X - 2))
    beta = Differential(curve, Polynomial([1]))
    gamma = Differential(curve, X)
    assert section_values(gamma, beta, alpha) == [0, 0, 2, 2]


def test_section_values_trivial_cases():
    curve = hyperelliptic([3, 4, 5, 6, 7, 8, 9, 10])
    alpha = Differential(curve, X * (X - 2))
    beta = Differential(curve, Polynomial([1, 1]))
    assert section_values(beta, beta, alpha) == [1, 1, 1, 1]
    assert section_values(alpha, beta, alpha) == [0, 0, 0, 0]


def test_section_values_pairing_and_linearity():
    rng = random.Random(19)
    for _ in range(15):
        genus = rng.randint(2, 5)
        curve = random_curve(rng, genus)
        roots = rng.sample(range(-20, 30), genus - 1)
        alpha = Differential(curve, Polynomial.from_roots(roots, lead=2))
        beta = random_differential(rng, curve, genus - 1)
        gamma = random_differential(rng, curve, rng.randint(0, genus - 1))
        try:
            values = section_values(gamma, beta, alpha)
        except DomainError:
            continue  # beta hit a zero of alpha; rare and legitimate
        assert len(values) == 2 * genus - 2
        assert all(values[2 * i] == values[2 * i + 1] for i in range(genus - 1))
        c = F(rng.randint(1, 5), rng.randint(1, 3))
        shifted = section_values(gamma + beta.scale(c), beta, alpha)
        assert shifted == [v + c for v in values]


def test_section_values_errors():
    curve = hyperelliptic([3, 4, 5, 6, 7, 8, 9, 10])
    alpha = Differential(curve, X * (X - 2))
    gamma = Differential(curve, X)
    with pytest.raises(DomainError, match="beta vanishes at a zero of alpha"):
        section_values(gamma, Differential(curve, X - 2), alpha)
    with pytest.raises(DomainError, match="lies at infinity"):
        section_values(gamma, gamma, Differential(curve, X))
    with pytest.raises(DomainError, match="irrational"):
        section_values(gamma, gamma, Differential(curve, X * X - 2))
    with pytest.raises(DomainError, match="branch locus"):
        section_values(gamma, gamma, Differential(curve, X * (X - 3)))
    with pytest.raises(DomainError, match="not distinct"):
        section_values(gamma, gamma, Differential(curve, X * X))


def test_section_values_numeric_mode():
    curve = hyperelliptic([3, 4, 5, 6, 7, 8, 9, 10])
    alpha = Differential(curve, X * (X - 2))
    beta = Differential(curve, Polynomial([1]))
    gamma = Differential(curve, X)
    numeric = section_values(gamma, beta, alpha, numeric=True)
    assert max(abs(n - float(v)) for n, v in zip(numeric, [0, 0, 2, 2])) < 1e-9
    # irrational zero locus only works numerically
    irrational = Differential(curve, X * X - 2)
    values = section_values(gamma, beta, irrational, numeric=True)
    expected = [-(2**0.5), -(2**0.5), 2**0.5, 2**0.5]
    assert max(abs(n - v) for n, v in zip(values, expected)) < 1e-9


def test_section_values_numeric_near_a_shared_zero():
    # beta = alpha - 10^-12 shares no zero with alpha, so gamma/beta = x/(-10^-12)
    curve = hyperelliptic([3, 4, 5, 6, 7, 8, 9, 10])
    alpha = Differential(curve, X * X - 2)
    beta = Differential(curve, X * X - 2 - F(1, 10**12))
    values = section_values(Differential(curve, X), beta, alpha, numeric=True)
    expected = [2**0.5 * 1e12] * 2 + [-(2**0.5) * 1e12] * 2
    assert all(abs(v - e) < 1e-9 * abs(e) for v, e in zip(values, expected))


def test_section_values_numeric_refuses_a_float_zero_of_beta():
    curve = hyperelliptic([3, 4, 5, 6, 7, 8, 9, 10])
    alpha = Differential(curve, X * X - 2)
    # the float root of alpha as an exact rational: beta shares no zero
    # with alpha, but its float value there is 0.0
    root = curve_algebra._numeric_roots(alpha.p)[-1]
    beta = Differential(curve, X - F(root.real))
    with pytest.raises(DomainError, match="beta rounds to zero"):
        section_values(Differential(curve, X), beta, alpha, numeric=True)


# ---------------------------------------------------------- numeric roots

def condition(coeffs, root):
    """The relative condition number of a simple nonzero root of the
    polynomial with these coefficients, listed from the constant term up;
    infinite at a multiple root."""
    scale = sum(abs(c) * abs(root) ** k for k, c in enumerate(coeffs))
    slope = sum(k * c * root ** (k - 1) for k, c in enumerate(coeffs) if k)
    return scale / (abs(root) * abs(slope)) if slope else float("inf")


def numpy_roots_if_well_conditioned(p):
    """numpy.roots of p, or None when a root is too ill-conditioned for two
    backward-stable methods to agree on it to a relative 1e-9.

    numpy.roots is backward stable only in the norm of the coefficients,
    so a small root beside large coefficients can be off by more than its
    condition allows; one Newton step on each nonzero root makes the
    reference accurate coefficient by coefficient."""
    coeffs = [float(c) for c in p.coeffs]
    reference = [complex(z) for z in numpy.roots(coeffs[::-1])]
    if not all(condition(coeffs, z) < 1e4 for z in reference if z):
        return None
    polished = []
    for z in reference:
        if z:
            value = sum(c * z ** k for k, c in enumerate(coeffs))
            slope = sum(k * c * z ** (k - 1) for k, c in enumerate(coeffs) if k)
            z -= value / slope
        polished.append(z)
    return polished


def assert_roots_match(p, reference):
    """_numeric_roots(p) gives deg p roots in (real, imag) order which,
    paired nearest first, agree with the reference to a relative 1e-9."""
    ours = curve_algebra._numeric_roots(p)
    assert len(ours) == p.degree
    assert ours == sorted(ours, key=lambda z: (z.real, z.imag))
    for z in ours:
        k = min(range(len(reference)), key=lambda k: abs(reference[k] - z))
        assert abs(reference.pop(k) - z) <= 1e-9 * abs(z)
    return ours


rationals = st.builds(F, st.integers(-10**6, 10**6), st.integers(1, 10**3))


@settings(max_examples=300, deadline=None)
@given(st.lists(rationals, min_size=1, max_size=12), rationals.filter(bool),
       st.integers(0, 3))
# numpy.roots puts the root near -2^-19 off by a relative 1.3e-9 before
# the Newton step; ours matches sympy's 40-digit root
@example(low=[F(1), F(524288), F(-3032), F(-131059)], lead=F(1), zeros=0)
def test_numeric_roots_match_numpy(low, lead, zeros):
    # degree 1-12; zero low-order coefficients give roots of exactly 0.0
    p = Polynomial([0] * zeros + low[zeros:] + [lead])
    reference = numpy_roots_if_well_conditioned(p)
    assume(reference is not None)
    ours = assert_roots_match(p, reference)
    constant = next(k for k, c in enumerate(p.coeffs) if c)
    assert [z for z in ours if z == 0] == [0j] * constant


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-20, 20), min_size=1, max_size=8, unique=True),
       rationals.filter(bool), rationals.filter(bool))
def test_numeric_roots_of_real_rooted_products_are_real(roots, scale, lead):
    p = Polynomial.from_roots([r * scale for r in roots], lead=lead)
    assert all(z.imag == 0.0 for z in curve_algebra._numeric_roots(p))
    reference = numpy_roots_if_well_conditioned(p)
    assume(reference is not None)
    assert_roots_match(p, reference)


def test_numeric_roots_of_degree_forty_within_a_second():
    rng = random.Random(40)
    p = Polynomial([F(rng.randint(-10**6, 10**6), rng.randint(1, 10**3)) for _ in range(41)])
    start = time.perf_counter()
    curve_algebra._numeric_roots(p)
    assert time.perf_counter() - start < 1.0
    reference = numpy_roots_if_well_conditioned(p)
    assert reference is not None
    assert_roots_match(p, reference)


# -------------------------------------------------------------- residues

def test_residues_vanish_on_dividend_subspace():
    rng = random.Random(23)
    for _ in range(10):
        genus = rng.randint(2, 5)
        curve = random_curve(rng, genus)
        roots = rng.sample(range(-20, 30), genus - 1)
        alpha = Differential(curve, Polynomial.from_roots(roots, lead=3))
        beta = random_differential(rng, curve, rng.randint(0, genus - 1))
        residues = residues_of_quotient(alpha * beta, alpha)
        assert all(r.is_zero() for r in residues)


def test_residue_sum_vanishes_exactly():
    rng = random.Random(24)
    for _ in range(20):
        genus = rng.randint(2, 5)
        curve = random_curve(rng, genus, odd=rng.random() < 0.5)
        roots = rng.sample(range(-20, 30), genus - 1)
        alpha = Differential(curve, Polynomial.from_roots(roots, lead=2))
        q = Polynomial([F(rng.randint(-9, 9), rng.randint(1, 4))
                        for _ in range(2 * genus - 1)])
        r = Polynomial([F(rng.randint(-9, 9), rng.randint(1, 4))
                        for _ in range(max(0, genus - 2))])
        omega = QuadDifferential(curve, q, r)
        residues = residues_of_quotient(omega, alpha)
        assert len(residues) == 2 * genus - 2
        assert quadratic_sum(residues) == 0
        for i in range(genus - 1):
            pair = residues[2 * i] + residues[2 * i + 1]
            assert pair.is_rational()


def test_residues_match_complex_evaluation():
    curve = hyperelliptic([3, 4, 5, 6, 7, 8, 9, 10])
    alpha = Differential(curve, Polynomial.from_roots([0, 2]))
    omega = QuadDifferential(curve, Polynomial([1, 2, 3, 0, 4]), Polynomial([5]))
    residues = residues_of_quotient(omega, alpha)
    slope = alpha.p.derivative()
    index = 0
    for x, _ in alpha.p.rational_roots():
        y = cmath.sqrt(complex(curve.f(x)))
        for sign in (1, -1):
            direct = (complex(omega.q(x)) + sign * complex(omega.r(x)) * y) / (
                complex(slope(x)) * sign * y)
            got = residues[index]
            lifted = complex(got.a) + complex(got.b) * cmath.sqrt(complex(got.disc))
            assert abs(direct - lifted) < 1e-9
            index += 1


def test_weighted_residue_identity():
    rng = random.Random(25)
    for _ in range(10):
        genus = rng.randint(3, 5)
        curve = random_curve(rng, genus)
        roots = rng.sample(range(-20, 30), genus - 1)
        alpha = Differential(curve, Polynomial.from_roots(roots, lead=2))
        beta = random_differential(rng, curve, genus - 1)
        gamma = random_differential(rng, curve, rng.randint(0, genus - 1))
        delta = random_differential(rng, curve, rng.randint(0, genus - 1))
        try:
            weights = section_values(gamma, beta, alpha)
        except DomainError:
            continue
        residues = residues_of_quotient(beta * delta, alpha)
        total = quadratic_sum(
            res.scale(w) for res, w in zip(residues, weights)
        )
        assert total == 0
        # and the rewritten integrand gives zero directly
        direct = quadratic_sum(residues_of_quotient(gamma * delta, alpha))
        assert direct == 0


def test_residue_errors():
    curve = hyperelliptic([3, 4, 5, 6, 7, 8, 9, 10])
    omega = QuadDifferential(curve, Polynomial([1]))
    with pytest.raises(DomainError, match="higher-order zero unsupported in residue mode"):
        residues_of_quotient(omega, Differential(curve, X * X))
    with pytest.raises(DomainError, match="lies at infinity"):
        residues_of_quotient(omega, Differential(curve, X))
    other = hyperelliptic([1, 2, 3, 4, 5])
    with pytest.raises(DomainError, match="one curve"):
        residues_of_quotient(omega, Differential(other, X))


def test_residues_numeric_mode():
    curve = hyperelliptic([3, 4, 5, 6, 7, 8, 9, 10])
    alpha = Differential(curve, X * X - 2)  # irrational zeroes
    omega = QuadDifferential(curve, Polynomial([1, 1, 1, 1, 1]), Polynomial([2]))
    residues = residues_of_quotient(omega, alpha, numeric=True)
    assert len(residues) == 4
    assert abs(sum(residues)) < 1e-9


# ------------------------------------------------------------ cross-ratio

def test_fermat_cross_ratio_is_harmonic():
    forms_ratio, points_ratio, matches = quartic_cross_ratio(
        FERMAT, (0, 0, 1), (1, 0, 0), (0, 1, 0))
    assert matches
    harmonic = (2 + 0j, -1 + 0j, 0.5 + 0j)
    assert min(abs(points_ratio - h) for h in harmonic) < 1e-9
    assert min(abs(forms_ratio - h) for h in harmonic) < 1e-9


def test_cross_ratio_refuses_a_line_without_a_chart(monkeypatch):
    # explicit checks, not asserts: a wrong line basis puts every shift on
    # the curve, and a chart without its t term restricts to a constant.
    # A fresh quartic has no chart kept from an earlier call to skip them.
    quartic = PlaneQuartic(FERMAT.form)
    monkeypatch.setattr(curve_algebra, "_line_basis", lambda line: [(F(0),) * 3] * 2)
    with pytest.raises(DomainError, match="no admissible chart on the line"):
        quartic_cross_ratio(quartic, (0, 0, 1), (1, 0, 0), (0, 1, 0))


def test_cross_ratio_refuses_a_restriction_of_lower_degree(monkeypatch):
    quartic = PlaneQuartic(FERMAT.form)
    monkeypatch.setattr(curve_algebra, "Polynomial", lambda coeffs: Polynomial(coeffs[:1]))
    with pytest.raises(DomainError, match="restriction must stay a quartic"):
        quartic_cross_ratio(quartic, (0, 0, 1), (1, 0, 0), (0, 1, 0))


def test_cross_ratio_invariant_under_proof_moves():
    rng = random.Random(27)
    for _ in range(8):
        quartic = random_quartic(rng)
        alpha, beta, gamma = (random_line(rng) for _ in range(3))
        try:
            base, _, matches = quartic_cross_ratio(quartic, alpha, beta, gamma)
        except DomainError:
            continue
        assert matches
        c = F(rng.randint(1, 3), rng.randint(1, 2))
        al = TernaryForm.linear(*alpha)
        be = TernaryForm.linear(*beta)
        ga = TernaryForm.linear(*gamma)
        moves = [
            (be + al.scale(c), ga + al.scale(c)),
            (be.scale(c), ga.scale(c)),
            (be, ga + be.scale(c)),
            (ga, be),
        ]
        for new_beta, new_gamma in moves:
            moved, _, still = quartic_cross_ratio(quartic, al, new_beta, new_gamma)
            assert still
            assert abs(moved - base) < 1e-9


def test_cross_ratio_random_instances_match():
    rng = random.Random(28)
    checked = 0
    while checked < 30:
        quartic = random_quartic(rng)
        try:
            _, _, matches = quartic_cross_ratio(
                quartic, random_line(rng), random_line(rng), random_line(rng))
        except DomainError:
            continue
        assert matches
        checked += 1


def test_cross_ratio_errors():
    with pytest.raises(DomainError, match="degenerate quadruple"):
        quartic_cross_ratio(FERMAT, (0, 0, 1), (1, 0, 0), (1, 0, 0))
    with pytest.raises(DomainError, match="beta vanishes at a zero of alpha"):
        quartic_cross_ratio(FERMAT, (0, 0, 1), (0, 0, 1), (0, 1, 0))
    with pytest.raises(DomainError, match="non-simple zeroes"):
        quartic_cross_ratio(FLEXED, (0, 1, -1), (1, 0, 0), (0, 1, 0))
    with pytest.raises(DomainError, match="zero differential"):
        quartic_cross_ratio(FERMAT, (0, 0, 0), (1, 0, 0), (0, 1, 0))


def test_fermat_bitangent_has_non_simple_zeroes():
    # x + y + z meets the Fermat quartic in R = 2(t^2 + t + 1)^2: two
    # double zeroes, whose float roots come out about 1e-8 apart
    with pytest.raises(DomainError, match="non-simple zeroes"):
        quartic_cross_ratio(FERMAT, (1, 1, 1), (1, 0, 0), (0, 1, 0))


def _binary_quartic_plus_z4(eps):
    """x(x - eps*y)(x^2 + y^2) + z^4, smooth for eps != 0; the line z = 0
    meets it in four distinct points, two of them eps apart."""
    return PlaneQuartic({(4, 0, 0): 1, (3, 1, 0): -eps, (2, 2, 0): 1,
                         (1, 3, 0): -eps, (0, 0, 4): 1})


def test_close_zeroes_are_still_simple():
    quartic = _binary_quartic_plus_z4(F(1, 10**30))
    # x vanishes at (0:1:0), one of the two close points
    with pytest.raises(DomainError, match="beta vanishes at a zero of alpha"):
        quartic_cross_ratio(quartic, (0, 0, 1), (1, 0, 0), (0, 1, 0))
    forms_ratio, points_ratio, matches = quartic_cross_ratio(
        quartic, (0, 0, 1), (1, 1, 0), (1, 0, 0))
    assert matches


def test_cross_ratio_beyond_float_resolution_is_refused():
    # 10^-400 rounds to 0.0, so the numeric roots repeat although R is
    # squarefree
    quartic = _binary_quartic_plus_z4(F(1, 10**400))
    with pytest.raises(DomainError, match="not representable in floating point"):
        quartic_cross_ratio(quartic, (0, 0, 1), (0, 1, 0), (1, 0, 0))


# ------------------------------------------------------------------ memos
# A quartic keeps the chart of its last alpha line and a hyperelliptic
# curve the zero locus of its last alpha; a fresh copy of the curve is the
# reference, since it has kept nothing.

def cold_cross_ratio(quartic, alpha, beta, gamma):
    return quartic_cross_ratio(PlaneQuartic(quartic.form), alpha, beta, gamma)


def test_warm_chart_keeps_every_refusal():
    quartic = PlaneQuartic(FLEXED.form)
    first = quartic_cross_ratio(quartic, (0, 0, 1), (1, 0, 0), (0, 1, 0))
    for _ in range(2):
        with pytest.raises(DomainError, match="non-simple zeroes"):
            quartic_cross_ratio(quartic, (0, 1, -1), (1, 0, 0), (0, 1, 0))
    assert quartic_cross_ratio(quartic, (0, 0, 1), (1, 0, 0), (0, 1, 0)) == first
    for _ in range(2):
        with pytest.raises(DomainError, match="beta vanishes at a zero of alpha"):
            quartic_cross_ratio(quartic, (0, 0, 1), (0, 0, 1), (0, 1, 0))
        with pytest.raises(DomainError, match="degenerate quadruple"):
            quartic_cross_ratio(quartic, (0, 0, 1), (1, 0, 0), (2, 0, 0))
        # a zero beta is refused before the chart is read, warm or cold
        with pytest.raises(DomainError, match="zero differential"):
            quartic_cross_ratio(quartic, (0, 0, 1), (0, 0, 0), (0, 1, 0))
    assert quartic_cross_ratio(quartic, (0, 0, 1), (1, 0, 0), (0, 1, 0)) == first


def test_no_failure_is_kept():
    quartic = PlaneQuartic(FLEXED.form)
    with pytest.raises(DomainError, match="non-simple zeroes"):
        quartic_cross_ratio(quartic, (0, 1, -1), (1, 0, 0), (0, 1, 0))
    assert quartic._memo is None
    # the chart passed its checks, so a refused beta leaves it without roots
    with pytest.raises(DomainError, match="beta vanishes at a zero of alpha"):
        quartic_cross_ratio(quartic, (0, 0, 1), (0, 0, 1), (0, 1, 0))
    assert quartic._memo[-1] is None
    assert quartic_cross_ratio(quartic, (0, 0, 1), (1, 0, 0), (0, 1, 0)) == cold_cross_ratio(
        quartic, (0, 0, 1), (1, 0, 0), (0, 1, 0))
    curve = hyperelliptic([3, 4, 5, 6, 7, 8, 9, 10])
    gamma = Differential(curve, X)
    for alpha in (X * X, X * (X - 3), X * X - 2):
        with pytest.raises(DomainError):
            section_values(gamma, gamma, Differential(curve, alpha))
        assert curve._memo is None


def test_charts_do_not_leak_between_lines_or_quartics():
    rng = random.Random(31)
    quartics = [random_quartic(rng) for _ in range(2)]
    a, b, beta, gamma = (random_line(rng) for _ in range(4))
    seen = set()
    for alpha in (a, b, a):
        for quartic in quartics:
            expected = cold_cross_ratio(quartic, alpha, beta, gamma)
            assert quartic_cross_ratio(quartic, alpha, beta, gamma) == expected
            seen.add(expected)
            # one entry, for the last line asked about
            assert quartic._memo[0] == TernaryForm.linear(*alpha)
    # four different charts, so a chart read off the wrong line or quartic shows
    assert len(seen) == 4


def test_zero_loci_are_kept_per_mode():
    curve = hyperelliptic([3, 4, 5, 6, 7, 8, 9, 10])
    alpha = Differential(curve, X * (X - 2))
    beta = Differential(curve, Polynomial([1]))
    gamma = Differential(curve, X)
    omega = QuadDifferential(curve, Polynomial([1, 2, 3, 0, 4]), Polynomial([5]))
    exact = section_values(gamma, beta, alpha)
    assert exact == [0, 0, 2, 2] and all(isinstance(v, F) for v in exact)
    numeric = section_values(gamma, beta, alpha, numeric=True)
    assert all(isinstance(v, complex) for v in numeric)
    assert max(abs(n - float(v)) for n, v in zip(numeric, exact)) < 1e-9
    parts = lambda values: [(v.a, v.b, v.disc) for v in values]
    cold = hyperelliptic([3, 4, 5, 6, 7, 8, 9, 10])
    assert parts(residues_of_quotient(omega, alpha)) == parts(
        residues_of_quotient(QuadDifferential(cold, omega.q, omega.r), Differential(cold, alpha.p)))
    assert section_values(gamma, beta, alpha) == exact
    assert all(isinstance(v, complex) for v in residues_of_quotient(omega, alpha, numeric=True))
    other = Differential(curve, (X - 1) * (X - 2))
    assert section_values(gamma, beta, other) == [1, 1, 2, 2]
    assert section_values(gamma, beta, alpha) == exact


def test_repeated_zero_keeps_each_message_in_either_order():
    curve = hyperelliptic([3, 4, 5, 6, 7, 8, 9, 10])
    omega = QuadDifferential(curve, Polynomial([1]))
    gamma = Differential(curve, X)
    one = Differential(curve, Polynomial([1]))
    good = Differential(curve, X * (X - 2))
    repeated = Differential(curve, X * X)

    def residues():
        with pytest.raises(DomainError, match="higher-order zero unsupported in residue mode"):
            residues_of_quotient(omega, repeated)

    def sections():
        with pytest.raises(DomainError, match="zeroes of alpha are not distinct"):
            section_values(gamma, gamma, repeated)

    for order in ((residues, sections), (sections, residues)):
        section_values(gamma, one, good)
        for check in order + order:
            check()


def test_memos_change_no_equality_hash_repr_or_immutability():
    quartic = PlaneQuartic(FERMAT.form)
    quartic_cross_ratio(quartic, (0, 0, 1), (1, 0, 0), (0, 1, 0))
    curve = hyperelliptic([3, 4, 5, 6, 7, 8, 9, 10])
    section_values(Differential(curve, X), Differential(curve, Polynomial([1])), Differential(curve, X * (X - 2)))
    for warm, cold, text in ((quartic, PlaneQuartic(FERMAT.form), "PlaneQuartic(%r)" % (FERMAT.form,)),
                             (curve, hyperelliptic([3, 4, 5, 6, 7, 8, 9, 10]),
                              "HyperellipticCurve(%r)" % (curve.f,))):
        assert warm._memo is not None and cold._memo is None
        assert warm == cold and hash(warm) == hash(cold)
        assert repr(warm) == repr(cold) == text
        for name in ("_memo", "genus", "other"):
            with pytest.raises(AttributeError, match="is immutable"):
                setattr(warm, name, None)


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def sympy_cross_ratio_verdict(quartic, alpha, beta, gamma):
    """The first degeneracy quartic_cross_ratio should report, or None.

    The alpha line is charted as p + t*q with p, q cross products of alpha
    with coordinate axes and q off the curve; then the discriminant of the
    restriction R, its resultant with beta, and the determinant of the
    Moebius map gamma/beta decide the three cases.
    """
    x, y, z, t = sympy.symbols("x y z t")
    form = sum(sympy.Rational(c.numerator, c.denominator) * x**i * y**j * z**k
               for (i, j, k), c in quartic.form.coeffs)
    spans = [_cross(alpha, axis) for axis in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    p = next(s for s in spans if any(s))
    q0 = next(s for s in spans if any(_cross(p, s)))
    on_curve = lambda point: form.subs(dict(zip((x, y, z), point)))
    q = next(qk for qk in ([a + k * b for a, b in zip(q0, p)] for k in range(6))
             if on_curve(qk) != 0)
    chart = {v: p[n] + t * q[n] for n, v in enumerate((x, y, z))}
    restricted = sympy.Poly(form.subs(chart), t)
    b = sympy.Poly(sum(c * v for c, v in zip(beta, (x, y, z))).subs(chart), t)
    g = sympy.Poly(sum(c * v for c, v in zip(gamma, (x, y, z))).subs(chart), t)
    if sympy.discriminant(restricted) == 0:
        return "non-simple zeroes"
    if b.is_zero or sympy.resultant(restricted, b) == 0:
        return "beta vanishes at a zero of alpha"
    if g.coeff_monomial(t) * b.coeff_monomial(1) == g.coeff_monomial(1) * b.coeff_monomial(t):
        return "degenerate quadruple"
    return None


small_lines = st.tuples(*[st.integers(-3, 3)] * 3).filter(any)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([FERMAT, FLEXED]), small_lines, small_lines, small_lines)
def test_cross_ratio_verdicts_match_sympy(quartic, alpha, beta, gamma):
    expected = sympy_cross_ratio_verdict(quartic, alpha, beta, gamma)
    try:
        forms_ratio, points_ratio, matches = quartic_cross_ratio(quartic, alpha, beta, gamma)
    except DomainError as exc:
        assert str(exc) == expected
        return
    assert expected is None and matches
    assert abs(forms_ratio - points_ratio) <= 1e-9 * (1 + abs(points_ratio))

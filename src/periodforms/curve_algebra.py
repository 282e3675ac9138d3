"""Multiplication maps of holomorphic differentials on explicit curves.

Two curve models are supported.  On a hyperelliptic curve y^2 = f(x) of
genus g the 1-forms are p(x) dx/y with deg p <= g-1, and the quadratic
differentials split under (x, y) -> (x, -y) into an invariant part
q(x) dx^2/y^2 with deg q <= 2g-2 and an anti-invariant part
r(x) y dx^2/y^2 with deg r <= g-3.  On a smooth plane quartic the 1-forms
are the linear forms of the plane and the quadratic differentials are the
conics.  Every dimension, rank and verdict of the multiplication map is a
closed form in the degree of one gcd; only its kernel, the printed witness,
is found by exact rational elimination.  Verdicts on degenerate input
(repeated zeroes, beta vanishing at a zero of alpha, a constant quadruple)
are exact too.  Floating point only produces reported values, from roots
found in pure Python by _numeric_roots: the quartic cross-ratios, and the
section values and residues on explicit request for curves with irrational
zero loci.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import exp, inf, log, pi
from sys import float_info

from .errors import DomainError
from .exact import QuadraticNumber
from .intlinalg import integer_rank, rational_kernel, rational_rank
from .polynomials import Polynomial, TernaryForm, ternary_monomials

COPRIME = "coprime"
LINKED = "linked"


class HyperellipticCurve:
    """The curve y^2 = f(x) with f squarefree of degree 2g+1 or 2g+2.

    The curve keeps the validated zero locus of the last alpha it was asked
    about, in exact or numeric mode, so that residues_of_quotient and
    section_values on one alpha find its zeroes once.  Only a locus that
    passed every check is kept; the memo takes no part in equality, hashing
    or repr.
    """

    __slots__ = ("f", "genus", "_memo")

    def __init__(self, f):
        if not isinstance(f, Polynomial):
            f = Polynomial(f)
        if f.degree < 5:
            raise DomainError("the defining polynomial must have degree at least five")
        if not f.is_squarefree():
            raise DomainError("the defining polynomial must be squarefree")
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "genus", (f.degree - 1) // 2)
        # ((alpha polynomial, numeric), x-values), see _affine_zero_values
        object.__setattr__(self, "_memo", None)

    def __setattr__(self, name, value):
        raise AttributeError("HyperellipticCurve is immutable")

    def points_at_infinity(self):
        return 2 if self.f.degree % 2 == 0 else 1

    def __eq__(self, other):
        if not isinstance(other, HyperellipticCurve):
            return NotImplemented
        return self.f == other.f

    def __hash__(self):
        return hash(("hyperelliptic", self.f))

    def __repr__(self):
        return "HyperellipticCurve(%r)" % (self.f,)


class PlaneQuartic:
    """A smooth quartic in the projective plane; genus three by adjunction.

    Smoothness is decided exactly by Macaulay's criterion: the partials
    have no common projective zero iff their multiples by the degree-4
    monomials span all 36 septics, one integer rank (Macaulay 1916; Cox,
    Little and O'Shea, "Using Algebraic Geometry", ch. 3).

    The quartic keeps the chart of the last alpha line quartic_cross_ratio
    was asked about, with the restriction of the form to it and, once
    found, the restriction's numeric roots, so that every basis move of
    (beta, gamma) on one alpha reuses them.  Only a chart that passed its
    degree and squarefree checks is kept, and no failure is; the memo takes
    no part in equality, hashing or repr.
    """

    __slots__ = ("form", "genus", "_memo")

    def __init__(self, form):
        if not isinstance(form, TernaryForm):
            form = TernaryForm(4, form)
        if form.degree != 4:
            raise DomainError("the defining form must have degree four")
        if form.is_zero():
            raise DomainError("the defining form must be nonzero")
        if not _partials_meet_only_at_origin(form):
            raise DomainError("the quartic is singular")
        object.__setattr__(self, "form", form)
        object.__setattr__(self, "genus", 3)
        # (alpha line, v, base, restriction, roots or None), see _alpha_chart
        object.__setattr__(self, "_memo", None)

    def __setattr__(self, name, value):
        raise AttributeError("PlaneQuartic is immutable")

    def __eq__(self, other):
        if not isinstance(other, PlaneQuartic):
            return NotImplemented
        return self.form == other.form

    def __hash__(self):
        return hash(("quartic", self.form))

    def __repr__(self):
        return "PlaneQuartic(%r)" % (self.form,)


def _partials_meet_only_at_origin(form):
    # Macaulay's criterion (Macaulay 1916; Cox, Little and O'Shea, "Using
    # Algebraic Geometry", ch. 3): the three partials are cubics, and they
    # have no common projective zero iff (a, b, c) -> a F_x + b F_y + c F_z
    # maps (S_4)^3 onto S_7, because a complete intersection of three
    # cubics has Hilbert series (1 + t + t^2)^3, zero past degree 6, while a
    # common zero leaves every degree of the quotient nonzero.  So the 45
    # rows (partial times degree-4 monomial) over the 36 monomials of S_7
    # must have rank 36; a zero partial leaves at most 30 nonzero rows.
    # By Euler's identity the common zeros are the singular points, and the
    # rank over Q is the rank over C, so each partial enters by its integer
    # numerators: a positive factor per block of rows changes no rank.
    # integer_rank proves a smooth quartic's rank by a 36 x 36 minor that is
    # nonzero modulo a prime, and a singular one's by its kernel, lifted and
    # checked exactly over Z.
    column = {m: n for n, m in enumerate(ternary_monomials(7))}
    rows = []
    for v in range(3):
        partial = form.partial(v).num
        for i, j, k in ternary_monomials(4):
            row = [0] * len(column)
            for (a, b, d), c in partial:
                row[column[(a + i, b + j, d + k)]] = c
            rows.append(row)
    return integer_rank(rows) == len(column)


class Differential:
    """A holomorphic 1-form: p(x) dx/y on a hyperelliptic curve, a linear
    form on a quartic.  The zero differential is allowed as a value but is
    rejected by every operation that divides by it."""

    __slots__ = ("curve", "p")

    def __init__(self, curve, p):
        if isinstance(curve, HyperellipticCurve):
            if not isinstance(p, Polynomial):
                p = Polynomial(p)
            if p.degree > curve.genus - 1:
                raise DomainError("differential degree exceeds g-1")
        elif isinstance(curve, PlaneQuartic):
            if not isinstance(p, TernaryForm):
                a, b, c = p
                p = TernaryForm.linear(a, b, c)
            if p.degree != 1:
                raise DomainError("a differential on a quartic is a linear form")
        else:
            raise DomainError("unsupported curve model %r" % (curve,))
        object.__setattr__(self, "curve", curve)
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, value):
        raise AttributeError("Differential is immutable")

    def is_zero(self):
        return self.p.is_zero()

    def coefficient_vector(self):
        if isinstance(self.curve, HyperellipticCurve):
            return [self.p.coefficient(k) for k in range(self.curve.genus)]
        return self.p.coefficient_vector()

    def __add__(self, other):
        if not isinstance(other, Differential) or other.curve != self.curve:
            return NotImplemented
        return Differential(self.curve, self.p + other.p)

    def __sub__(self, other):
        if not isinstance(other, Differential) or other.curve != self.curve:
            return NotImplemented
        return Differential(self.curve, self.p + (-other.p))

    def scale(self, c):
        c = Fraction(c)
        if isinstance(self.p, Polynomial):
            return Differential(self.curve, self.p * c)
        return Differential(self.curve, self.p.scale(c))

    def __mul__(self, other):
        """Product of two 1-forms, an invariant quadratic differential."""
        if not isinstance(other, Differential) or other.curve != self.curve:
            return NotImplemented
        if not isinstance(self.curve, HyperellipticCurve):
            raise DomainError("products are only modeled on hyperelliptic curves")
        return QuadDifferential(self.curve, self.p * other.p)

    def __repr__(self):
        return "Differential(%r, %r)" % (self.curve, self.p)


class QuadDifferential:
    """(q(x) + r(x) y) dx^2/y^2 on a hyperelliptic curve."""

    __slots__ = ("curve", "q", "r")

    def __init__(self, curve, q, r=()):
        if not isinstance(curve, HyperellipticCurve):
            raise DomainError("quadratic differentials are modeled on hyperelliptic curves")
        if not isinstance(q, Polynomial):
            q = Polynomial(q)
        if not isinstance(r, Polynomial):
            r = Polynomial(r)
        g = curve.genus
        if q.degree > 2 * g - 2:
            raise DomainError("invariant part degree exceeds 2g-2")
        if r.degree > g - 3:
            raise DomainError("anti-invariant part degree exceeds g-3")
        object.__setattr__(self, "curve", curve)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "r", r)

    def __setattr__(self, name, value):
        raise AttributeError("QuadDifferential is immutable")

    def is_zero(self):
        return self.q.is_zero() and self.r.is_zero()

    def __repr__(self):
        return "QuadDifferential(%r, %r, %r)" % (self.curve, self.q, self.r)


class TauSubspace:
    """A two- or three-dimensional space of 1-forms on one curve, given by
    a spanning tuple of independent differentials."""

    __slots__ = ("differentials",)

    def __init__(self, differentials):
        differentials = tuple(differentials)
        if len(differentials) not in (2, 3):
            raise DomainError("a subspace is spanned by two or three differentials")
        curve = differentials[0].curve
        if any(d.curve != curve for d in differentials):
            raise DomainError("differentials must lie on one curve")
        rows = [d.coefficient_vector() for d in differentials]
        if rational_rank(rows) != len(rows):
            raise DomainError("differentials are linearly dependent")
        object.__setattr__(self, "differentials", differentials)

    def __setattr__(self, name, value):
        raise AttributeError("TauSubspace is immutable")

    @property
    def curve(self):
        return self.differentials[0].curve

    @property
    def dimension(self):
        return len(self.differentials)

    def __repr__(self):
        return "TauSubspace(%r)" % (list(self.differentials),)


def _multiplication_rows(tau):
    """Images of the product basis (tau_i times 1-form monomials) under the
    multiplication map, one row per domain basis vector, over the monomials
    x^0 .. x^(2g-2) of the invariant products or the six conics."""
    curve = tau.curve
    if isinstance(curve, HyperellipticCurve):
        x = Polynomial.x()
        basis, target = [x**k for k in range(curve.genus)], range(2 * curve.genus - 1)
    else:
        basis = [TernaryForm.linear(*row) for row in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
        target = ternary_monomials(2)
    products = [d.p * b for d in tau.differentials for b in basis]
    return [[prod.coefficient(m) for m in target] for prod in products]


def obscurant_kernel(tau: TauSubspace):
    """Basis of the multiplication-map kernel in coordinates over the
    product basis; the witness behind obscurant_dim."""
    rows = _multiplication_rows(tau)
    columns = [list(col) for col in zip(*rows)]
    return rational_kernel(columns, width=len(rows))


def _excess(ps, n):
    """Degree of the gcd of nonzero binary forms p_i of degree n given as
    polynomials in x: the affine gcd plus the common zero at infinity."""
    shared = ps[0]
    for p in ps[1:]:
        shared = shared.gcd(p)
    return shared.degree + n - max(p.degree for p in ps)


def obscurant_dim(tau: TauSubspace) -> int:
    """Dimension of the kernel of tau (x) H^0(K) -> H^0(K^2).

    A 1-form p dx/y is a binary form of degree n = g - 1; let e be the
    degree of the gcd h of tau's forms.  A pair h q_i has the kernel
    {(c q_2, -c q_1) : deg c <= e}.  The syzygies of a triple over h are
    free of rank two in degrees summing to n - e (Hilbert-Burch; the mu-basis
    of Cox, Sederberg and Chen, CAGD 15, 1998), so 2(n+1) - (n-e) = g+1+e.
    On a quartic two lines share no zero and three span H^0(K), mapped by
    Sym^2 onto the conics."""
    curve = tau.curve
    if isinstance(curve, HyperellipticCurve):
        e = _excess([d.p for d in tau.differentials], curve.genus - 1)
        return e + 1 if tau.dimension == 2 else curve.genus + 1 + e
    return 1 if tau.dimension == 2 else 3


def multiplication_rank(tau: TauSubspace) -> int:
    """Rank of tau (x) H^0(K) -> H^0(K^2), whose domain has dimension
    dim tau times g."""
    return tau.dimension * tau.curve.genus - obscurant_dim(tau)


def dividend_dim(alpha: Differential) -> int:
    """Dimension of the space of quadratic differentials divisible by alpha.

    Multiplication by a fixed nonzero 1-form is injective: the genus."""
    if alpha.is_zero():
        raise DomainError("zero differential")
    return alpha.curve.genus


def classify(tau: TauSubspace) -> str:
    """Split pairs and triples of 1-forms into COPRIME and LINKED.

    Coprime means the kernel of the multiplication map is the alternating
    tensors alone, of dimension 1 for a pair and 3 for a triple; for a
    triple, that is the map onto the 3g - 3 quadratic differentials.  So a
    hyperelliptic triple is never coprime for g >= 3, its rank being at most
    2g - 1, while pairs and triples of lines on a quartic always are.
    """
    alternating = 1 if tau.dimension == 2 else 3
    return COPRIME if obscurant_dim(tau) == alternating else LINKED


def overlap_degree(alpha: Differential, beta: Differential) -> int:
    """Degree of the common-zero divisor of two 1-forms, infinity included.

    Over an affine x-value both orders double at a branch point but the
    fiber is a single point, while off the branch locus the fiber has two
    points with the plain orders, so each shared root contributes twice its
    multiplicity in the gcd either way.  At infinity the order of p dx/y
    per point is g-1-deg p (two points for even deg f, and the doubled
    order at the single point for odd deg f gives the same total).
    """
    if alpha.is_zero() or beta.is_zero():
        raise DomainError("zero differential")
    if not isinstance(alpha.curve, HyperellipticCurve):
        raise DomainError("overlap is defined on hyperelliptic curves")
    if alpha.curve != beta.curve:
        raise DomainError("differentials must lie on one curve")
    return 2 * _excess([alpha.p, beta.p], alpha.curve.genus - 1)


def veronese_linked_pair(curve: HyperellipticCurve, a, b, d) -> TauSubspace:
    """The pair (x-a)(x-b) dx/y, (x-a)(x-d) dx/y on a genus-three curve.

    The two forms divide both products of the pair and the product with
    the complementary chord, so the pair is linked with overlap two.
    """
    if not isinstance(curve, HyperellipticCurve) or curve.genus != 3:
        raise DomainError("the construction needs a genus-three hyperelliptic curve")
    a, b, d = Fraction(a), Fraction(b), Fraction(d)
    if len({a, b, d}) != 3:
        raise DomainError("parameters must be distinct")
    for t in (a, b, d):
        if curve.f(t) == 0:
            raise DomainError("parameter lies on the branch locus")
    first = Differential(curve, Polynomial.from_roots([a, b]))
    second = Differential(curve, Polynomial.from_roots([a, d]))
    return TauSubspace([first, second])


def isoperiodic_deformation_dim(tau: TauSubspace) -> int:
    """Dimension of the space of first-order deformations of the curve
    preserving every period of the forms in tau: the full deformation
    space less the rank of the multiplication map."""
    return (3 * tau.curve.genus - 3) - multiplication_rank(tau)


def noether_image_dim(curve) -> int:
    """Rank of Sym^2 H^0(K) -> H^0(K^2): 2g-1 on hyperelliptic curves, where
    the x^i x^j are the monomials of degree <= 2g-2, and 3g-3 = 6 on smooth
    quartics, where the products of lines span the conics."""
    return 2 * curve.genus - 1 if isinstance(curve, HyperellipticCurve) else 6


def _numeric_roots(p):
    """The deg p complex roots of p, sorted by real then imaginary part: the
    Aberth-Ehrlich iteration from Newton-polygon radii, each root ending on a
    Newton step (Bini, Numer. Algorithms 13, 1996).  A nonzero coefficient of
    monic p outside the float range is refused, so no root is lost.  Each root
    is averaged with the nearest root conjugate; its own leaves imag 0.0."""
    try:
        a = [c / p.num[-1] for c in p.num]
    except OverflowError:
        a = None
    if a is None or any(x == 0.0 for x, c in zip(a, p.num) if c):
        raise DomainError("the polynomial is not representable in floating point")
    zeros = next(k for k, c in enumerate(a) if c)  # roots of exactly 0.0
    a = a[zeros:]
    n, top = len(a) - 1, a[::-1]

    def newton(w):
        # p(w)/p'(w) and if p(w) is down to rounding; |w| > 1 reverses p lest powers overflow
        inside = abs(w) <= 1
        x = w if inside else 1 / w
        v, d, s = 0j, 0j, 0.0
        for c in top if inside else a:
            d, v, s = d * x + v, v * x + c, s * abs(x) + abs(c)
        step = (v / d if inside else w * v / (n * v - d * x)) if v else 0j
        return step, abs(v) <= 4 * n * float_info.epsilon * s
    # one circle per edge of the Newton polygon, the upper hull of (k, log|a_k|)
    logs = [log(abs(c)) if c else -inf for c in a]
    z, i = [], 0
    while i < n:
        k = max(range(i + 1, n + 1), key=lambda j: ((logs[j] - logs[i]) / (j - i), j))
        r = exp((logs[i] - logs[k]) / (k - i))
        z += [cmath.rect(r, 2 * pi * (m / (k - i) + i / n) + 0.7) for m in range(k - i)]
        i = k
    active = set(range(n))
    try:
        for _ in range(100):
            for i in sorted(active):
                step, settled = newton(z[i])
                if settled:
                    active.discard(i)  # after one last, plain Newton step
                else:
                    step /= 1 - step * sum(1 / (z[i] - u) for k, u in enumerate(z) if k != i)
                z[i] -= step
            if not active:
                break
    except (OverflowError, ZeroDivisionError):
        active = True
    if active or not all(map(cmath.isfinite, z)):
        raise DomainError("the numeric roots did not converge")
    z = [(w + min(z, key=lambda u: abs(w - u.conjugate())).conjugate()) / 2 for w in z]
    return sorted([0j] * zeros + z, key=lambda w: (w.real, w.imag))


def _float_values(evaluate, xs):
    """evaluate(x) for each numeric root x, flattened into complex numbers.
    A coefficient or value outside the float range is refused, not left to
    end in an OverflowError or a non-finite value."""
    try:
        values = [complex(v) for x in xs for v in evaluate(x)]
    except OverflowError:
        values = None
    if values is None or not all(map(cmath.isfinite, values)):
        raise DomainError("the polynomial is not representable in floating point")
    return values


def _affine_zero_values(alpha, numeric, simple_error):
    """The x-values under the 2g-2 zeroes of alpha, each carrying two
    points of the curve; validates the zero locus as a side effect.  A
    locus that passed every check is kept on the curve, keyed by alpha and
    the mode, and returned as is when both come again."""
    curve = alpha.curve
    if not isinstance(curve, HyperellipticCurve):
        raise DomainError("the operation is defined on hyperelliptic curves")
    if alpha.is_zero():
        raise DomainError("zero differential")
    p = alpha.p
    key = (p, bool(numeric))
    memo = curve._memo
    if memo is not None and memo[0] == key:
        return memo[1]
    g = curve.genus
    if p.degree < g - 1:
        raise DomainError("a zero of alpha lies at infinity")
    if not p.is_squarefree():
        raise DomainError(simple_error)
    if p.gcd(curve.f).degree > 0:
        raise DomainError("alpha vanishes on the branch locus")
    if numeric:
        xs = tuple(_numeric_roots(p))
    else:
        # p is squarefree, so its roots are simple
        xs = tuple(p._simple_rational_roots())
        if len(xs) != p.degree:
            raise DomainError("irrational zero of alpha in exact mode")
    object.__setattr__(curve, "_memo", (key, xs))
    return xs


def section_values(gamma: Differential, beta: Differential, alpha: Differential,
                   numeric=False):
    """Values of gamma/beta at the zeroes of alpha, in conjugate pairs.

    The ratio of two 1-forms on a hyperelliptic curve is a rational
    function of x alone, so the two zeroes over each x-value receive equal
    values and the output is constant on conjugate pairs by construction.
    Whether beta vanishes at a zero of alpha is decided exactly in both
    modes: the two polynomials share a root.  Both modes evaluate gamma and
    beta reduced mod alpha, which agree with them at every zero of alpha.
    """
    if gamma.curve != beta.curve or beta.curve != alpha.curve:
        raise DomainError("differentials must lie on one curve")
    if beta.is_zero():
        raise DomainError("zero differential")
    xs = _affine_zero_values(alpha, numeric, "zeroes of alpha are not distinct")
    if alpha.p.gcd(beta.p).degree > 0:
        raise DomainError("beta vanishes at a zero of alpha")
    # at a float root, beta's terms could cancel against alpha's
    top, bottom = gamma.p % alpha.p, beta.p % alpha.p

    def value(x):
        below = bottom(x)
        if below == 0:
            # only a float can round to zero here; the exact value is not
            raise DomainError("beta rounds to zero at a zero of alpha")
        v = top(x) / below
        return v, v

    if numeric:
        return _float_values(value, xs)
    return [v for x in xs for v in value(x)]


def residues_of_quotient(omega: QuadDifferential, alpha: Differential, numeric=False):
    """Residues of omega/alpha at the zeroes of alpha, in conjugate pairs.

    At a simple zero over x with y^2 = f(x) the residue is
    (q(x) + r(x) y) / (p'(x) y); rationalizing gives
    r(x)/p'(x) + q(x)/(f(x) p'(x)) sqrt(f(x)), an exact quadratic number.
    """
    if not isinstance(omega, QuadDifferential) or omega.curve != alpha.curve:
        raise DomainError("the differentials must lie on one curve")
    xs = _affine_zero_values(alpha, numeric,
                             "higher-order zero unsupported in residue mode")
    slope = alpha.p.derivative()
    if numeric:
        def residues(x):
            y = complex(omega.curve.f(x)) ** 0.5
            return [(omega.q(x) + sign * omega.r(x) * y) / (slope(x) * sign * y) for sign in (1, -1)]

        return _float_values(residues, xs)
    out = []
    for x in xs:
        disc = omega.curve.f(x)
        rational = omega.r(x) / slope(x)
        radical = omega.q(x) / (disc * slope(x))
        out.append(QuadraticNumber(rational, radical, disc))
        out.append(QuadraticNumber(rational, -radical, disc))
    return out


def _line_basis(line):
    """Two independent rational points spanning the projective line
    {ax + by + cz = 0}."""
    coeffs = [line.coefficient(m) for m in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    pivot = next(i for i in range(3) if coeffs[i] != 0)
    points = []
    for i in range(3):
        if i == pivot:
            continue
        point = [Fraction(0)] * 3
        point[i] = Fraction(1)
        point[pivot] = -coeffs[i] / coeffs[pivot]
        points.append(tuple(point))
    return points


def _as_line(curve, value):
    if isinstance(value, Differential):
        if value.curve != curve:
            raise DomainError("differentials must lie on one curve")
        line = value.p
    elif isinstance(value, TernaryForm):
        line = value
    else:
        a, b, c = value
        line = TernaryForm.linear(a, b, c)
    if line.degree != 1:
        raise DomainError("a differential on a quartic is a linear form")
    if line.is_zero():
        raise DomainError("zero differential")
    return line


def _alpha_chart(quartic, alpha):
    """(v, base, R, roots) for the alpha line: the chart P(t) = v + t*base
    with base off the curve, the restriction R(t) = F(P(t)), proved a
    squarefree quartic, and R's numeric roots, or None until they are
    found.  The last chart is kept on the quartic; one is kept only after
    its checks pass."""
    memo = quartic._memo
    if memo is not None and memo[0] == alpha:
        return memo[1:]
    u, v = _line_basis(alpha)
    base = None
    for k in range(6):
        candidate = tuple(u[i] + k * v[i] for i in range(3))
        if quartic.form(candidate) != 0:
            base = candidate
            break
    # at most four points of the line lie on the quartic, so some shift works
    if base is None:
        raise DomainError("no admissible chart on the line")
    coords = tuple(Polynomial((v[i], base[i])) for i in range(3))
    restricted = quartic.form(coords)
    # the leading coefficient is F(base) != 0
    if restricted.degree != 4:
        raise DomainError("restriction must stay a quartic")
    if not restricted.is_squarefree():
        raise DomainError("non-simple zeroes")
    object.__setattr__(quartic, "_memo", (alpha, v, base, restricted, None))
    return v, base, restricted, None


def _cross_ratio(a, b, c, d):
    return ((a - c) * (b - d)) / ((b - c) * (a - d))


def quartic_cross_ratio(quartic: PlaneQuartic, alpha_line, beta_line, gamma_line):
    """Cross-ratio reciprocity on a smooth plane quartic.

    Returns the cross-ratio of gamma/beta at the four points where the
    alpha line meets the quartic, the cross-ratio of those points in the
    chart coordinate t, in the same order, and whether the two agree.

    On the chart P(t) = v + t*base of the alpha line, with base off the
    curve, the points are the roots of R(t) = F(P(t)), and beta = b0 + b1*t,
    gamma = g0 + g1*t with b0 = beta(v), b1 = beta(base), g0 = gamma(v),
    g1 = gamma(base).  The degenerate cases are decided exactly, in order:

    - "non-simple zeroes": R is not squarefree (alpha is tangent);
    - "beta vanishes at a zero of alpha": b0 = b1 = 0, or b1 != 0 and
      R(-b0/b1) = 0 (b1 = 0 != b0 makes beta a nonzero constant);
    - "degenerate quadruple": g1*b0 = g0*b1, so gamma/beta is constant.

    Otherwise gamma/beta = (g1*t + g0)/(b1*t + b0) is a Moebius map with
    nonzero determinant, defined at the four distinct roots, and Moebius
    maps preserve cross-ratios in the same order.  So the two cross-ratios
    are equal and ``matches`` is always True; floats only give the values.

    The quartic keeps the chart, R and R's roots for the last alpha line,
    so further calls on that line with other beta and gamma repeat only
    the beta and gamma checks and the values.  A failure is never kept.
    """
    alpha = _as_line(quartic, alpha_line)
    beta = _as_line(quartic, beta_line)
    gamma = _as_line(quartic, gamma_line)
    v, base, restricted, roots = _alpha_chart(quartic, alpha)
    b0, b1 = beta(v), beta(base)
    if (b0 == 0 and b1 == 0) or (b1 != 0 and restricted(-b0 / b1) == 0):
        raise DomainError("beta vanishes at a zero of alpha")
    g0, g1 = gamma(v), gamma(base)
    if g1 * b0 == g0 * b1:
        raise DomainError("degenerate quadruple")

    if roots is None:
        roots = tuple(_numeric_roots(restricted))
        object.__setattr__(quartic, "_memo", (alpha, v, base, restricted, roots))
    points = [tuple(complex(base[i]) * t + complex(v[i]) for i in range(3)) for t in roots]
    try:
        forms_ratio = _cross_ratio(*[gamma(z) / beta(z) for z in points])
        points_ratio = _cross_ratio(*roots)
    except ZeroDivisionError:
        # only rounding can make a denominator vanish once the checks pass
        raise DomainError("the cross-ratio is not representable in floating point") from None
    return forms_ratio, points_ratio, True

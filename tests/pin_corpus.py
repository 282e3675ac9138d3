"""Seeded corpus of every library output that goes through rational_kernel
or rational_solve, of every multiplication-map dimension and verdict, of
the saturations, lattice invariants and line verdicts behind the periods
path, of the polynomial gcd and squarefree test, of the quartic
smoothness and cross-ratio verdicts, of the exact residues and section
values, of the cover invariants and origami genera, of the Sp(2g, Z) maps
between complete rank-2 and rank-4 sublattices and of the floats of the
curve queries (cross-ratios, numeric residues and section values, line
values at float and complex points), pinned by digest.

Each family is a fixed, seeded list of calls.  A call is rendered as one
line, "<call> -> <output>", with Fractions written p/q, floats by
float.hex in the curve_floats family, and errors written as their type and
message.  pin_corpus.json stores, per family, the
sha256 of all its lines and a 12-hex digest of each line, so a changed
output is located at its first differing call.

    PYTHONPATH=src python tests/pin_corpus.py            # print the digests
    PYTHONPATH=src python tests/pin_corpus.py --check    # exit 1 on a change
    PYTHONPATH=src python tests/pin_corpus.py --write    # re-pin every family

Re-pin only for an intended output change, and say in CHANGES.md which
output changed and why.  Only the standard library and periodforms are
imported here.
"""

import hashlib
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from periodforms.covers import (
    BranchedTorusCover,
    Origami,
    Permutation,
    commutator,
    construct_cover,
    cover_class_invariants,
    genus_of_origami,
    period_lattice_of_cover,
)
from periodforms.curve_algebra import (
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
)
from periodforms.errors import DomainError
from periodforms.exact import GaussianRational, QuadraticNumber
from periodforms.intlinalg import clear_denominators, rational_kernel, rational_solve, saturate_rows
from periodforms.polynomials import Polynomial, TernaryForm, ternary_monomials
from periodforms.realizability import (
    CohomologyClass,
    is_realizable_elliptic_pair,
    is_realizable_line,
)
from periodforms.symplectic_lattice import (
    Sublattice,
    alternating_normal_form,
    determinant,
    extend_to_symplectic_basis,
    is_complete,
    map_rank2_sublattice,
    map_rank4_sublattice,
    omega,
    saturate,
)

PIN_FILE = Path(__file__).with_name("pin_corpus.json")


def render(value):
    """Canonical text of an output: Fractions as p/q, lists and dicts in
    order, GaussianRationals as (re, im), QuadraticNumbers as
    (a, b, disc) and Polynomials as their coefficient lists."""
    if isinstance(value, Fraction):
        return str(value.numerator) if value.denominator == 1 else "%d/%d" % (
            value.numerator, value.denominator)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, GaussianRational):
        return "(%s, %s)" % (render(value.re), render(value.im))
    if isinstance(value, QuadraticNumber):
        return "(%s, %s, %s)" % (render(value.a), render(value.b), render(value.disc))
    if isinstance(value, Polynomial):
        return "P" + render(value.coeffs)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(render(x) for x in value) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join("%s: %s" % (k, render(value[k])) for k in sorted(value)) + "}"
    return str(value)


def outcome(fn, *args, show=render):
    try:
        return show(fn(*args))
    except DomainError as exc:
        return "DomainError: %s" % exc


def rng_fraction(rng, num, den):
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def random_sp_cols(rng, genus, steps=5):
    """Columns of a product of transvections x -> x + omega(x, u) u."""
    n = 2 * genus
    cols = [[int(i == k) for i in range(n)] for k in range(n)]
    for _ in range(steps):
        u = [rng.randint(-1, 1) for _ in range(n)]
        if not any(u):
            u[rng.randrange(n)] = 1
        cols = [[c + omega(col, u) * x for c, x in zip(col, u)] for col in cols]
    return cols


def apply_cols(cols, v):
    return [sum(v[j] * cols[j][i] for j in range(len(cols))) for i in range(len(cols))]


def block_pair(rng, genus, d, scale=1):
    """Scrambled isotropic positive pair whose saturated span has block
    pairing (1, d); both classes multiplied by the Gaussian rational scale."""
    n = 2 * genus
    u = [[0] * n for _ in range(4)]
    u[0][0] = u[1][1] = u[2][2] = 1
    u[3][3] = d
    if d > 1:
        u[3][4] = 1
    cols = random_sp_cols(rng, genus)
    u = [apply_cols(cols, v) for v in u]
    a = CohomologyClass(genus, [GaussianRational(x, y) * scale for x, y in zip(u[0], u[1])])
    b = CohomologyClass(genus, [GaussianRational(x, y) * scale for x, y in zip(u[2], u[3])])
    return a, b


# ---------------------------------------------------------------------------
# families


def rational_elim_calls(rng):
    """rational_kernel and rational_solve on small rational systems: zero
    rows and columns, dependent rows, mixed int/Fraction entries, empty
    input with a width, consistent and inconsistent right-hand sides."""
    yield "rational_kernel([], 3)", outcome(rational_kernel, [], 3)
    yield "rational_kernel([], 0)", outcome(rational_kernel, [], 0)
    for _ in range(60):
        m, n = rng.randint(1, 5), rng.randint(1, 6)
        rows = [[rng.choice([0, 0, rng.randint(-4, 4), rng_fraction(rng, 9, 6)])
                 for _ in range(n)] for _ in range(m)]
        if m > 1 and rng.random() < 0.4:
            i, j = rng.sample(range(m), 2)
            c = rng_fraction(rng, 3, 3)
            rows[i] = [c * x for x in rows[j]]
        if rng.random() < 0.2:
            c = rng.randrange(n)
            for row in rows:
                row[c] = 0
        yield "rational_kernel(%s)" % render(rows), outcome(rational_kernel, rows, n)
        x0 = [rng_fraction(rng, 5, 4) for _ in range(n)]
        rhs = [sum(a * x for a, x in zip(row, x0)) for row in rows]
        if rng.random() < 0.3:
            rhs[rng.randrange(m)] += 1
        yield "rational_solve(%s, %s)" % (render(rows), render(rhs)), outcome(
            rational_solve, rows, rhs)


def _hyperelliptic_curve(rng, genus):
    roots = rng.sample(range(-30, 31), 2 * genus + rng.choice([1, 2]))
    return HyperellipticCurve(Polynomial.from_roots(roots, lead=rng.choice([1, 2, -3])))


def _form(rng, degree):
    coeffs = [rng_fraction(rng, 6, 4) for _ in range(degree)]
    return Polynomial(coeffs + [rng.choice([1, -1, Fraction(1, 2), 3])])


def _hyperelliptic_tau(rng, curve, size, top, shared):
    """size independent forms of degree <= top on curve, sharing a common
    factor of positive degree when shared."""
    genus = curve.genus
    while True:
        if shared:
            # a common factor h of positive degree; its multiples of degree
            # <= g - 1 span g - deg h dimensions
            h = _form(rng, rng.randint(1, genus - size))
            forms = [h * _form(rng, rng.randint(0, genus - 1 - h.degree))
                     for _ in range(size)]
        else:
            forms = [_form(rng, rng.randint(0, top)) for _ in range(size)]
        try:
            return forms, TauSubspace([Differential(curve, p) for p in forms])
        except DomainError:
            continue


def hyperelliptic_obscurant_calls(rng):
    """Pairs and triples at genus 2-8; forms of degree below g - 1 and
    forms sharing a common factor."""
    for genus in range(2, 9):
        curve = _hyperelliptic_curve(rng, genus)
        for trial in range(6):
            size = 2 if genus == 2 or trial % 2 == 0 else 3
            shared = trial % 3 == 2 and genus > size
            forms, tau = _hyperelliptic_tau(rng, curve, size, genus - 1, shared)
            call = "obscurant_kernel(g=%d, %s)" % (genus, render([list(p.coeffs) for p in forms]))
            yield call, outcome(obscurant_kernel, tau)


def _smooth_quartic(rng):
    """a L1^4 + b L2^4 + c L3^4 for independent lines L: a Fermat quartic
    under a linear change of coordinates, so smooth."""
    while True:
        lines = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
        (a, b, c), (d, e, f), (g, h, i) = lines
        if a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g):
            break
    form = None
    for line in lines:
        lin = TernaryForm.linear(*line)
        term = (lin * lin * lin * lin).scale(rng.choice([1, 2, -1, Fraction(1, 3)]))
        form = term if form is None else form + term
    return PlaneQuartic(form)


def _quartic_tau(rng, quartic, size):
    while True:
        lines = [tuple(rng.choice([0, rng.randint(-5, 5), rng_fraction(rng, 7, 5)])
                       for _ in range(3)) for _ in range(size)]
        try:
            return lines, TauSubspace([Differential(quartic, line) for line in lines])
        except DomainError:
            continue


def quartic_obscurant_calls(rng):
    for _ in range(4):
        quartic = _smooth_quartic(rng)
        for size in (2, 2, 3, 3):
            lines, tau = _quartic_tau(rng, quartic, size)
            call = "obscurant_kernel(%s, %s)" % (render(quartic.form.coeffs), render(lines))
            yield call, outcome(obscurant_kernel, tau)


def _multiplication(tau):
    out = {
        "classify": classify(tau),
        "obscurant_dim": obscurant_dim(tau),
        "multiplication_rank": multiplication_rank(tau),
        "isoperiodic_deformation_dim": isoperiodic_deformation_dim(tau),
        "dividend_dim": [dividend_dim(d) for d in tau.differentials],
    }
    if tau.dimension == 2 and isinstance(tau.curve, HyperellipticCurve):
        out["overlap_degree"] = overlap_degree(*tau.differentials)
    return out


def multiplication_calls(rng):
    """Every dimension, rank and verdict of the multiplication map, with
    the overlap of each hyperelliptic pair: pairs and triples at genus 2-9,
    forms sharing a common factor, forms all of degree below g - 1 (a
    common zero at infinity), and pairs and triples of lines on quartics."""
    for genus in range(2, 10):
        curve = _hyperelliptic_curve(rng, genus)
        yield "noether_image_dim(g=%d)" % genus, outcome(noether_image_dim, curve)
        for trial in range(8):
            size = 2 if genus == 2 or trial % 2 == 0 else 3
            shared = trial in (1, 2) and genus > size
            # forms of degree <= g - 2 span g - 1 dimensions
            top = genus - 2 if trial in (3, 4) and genus > size else genus - 1
            forms, tau = _hyperelliptic_tau(rng, curve, size, top, shared)
            call = "multiplication(g=%d, %s)" % (genus, render([list(p.coeffs) for p in forms]))
            yield call, outcome(_multiplication, tau)
    for _ in range(3):
        quartic = _smooth_quartic(rng)
        yield "noether_image_dim(%s)" % render(quartic.form.coeffs), outcome(
            noether_image_dim, quartic)
        for size in (2, 2, 3, 3):
            lines, tau = _quartic_tau(rng, quartic, size)
            call = "multiplication(%s, %s)" % (render(quartic.form.coeffs), render(lines))
            yield call, outcome(_multiplication, tau)


def _pair_witness(a, b):
    return is_realizable_elliptic_pair(a, b, assume_simple=False).witness


def pair_witness_calls(rng):
    scales = [1, 1, Fraction(1, 2), GaussianRational(Fraction(2, 3), 1), GaussianRational(0, 3)]
    for genus in range(2, 6):
        for _ in range(6):
            d = 1 if genus == 2 else rng.randint(1, 6)
            scale = rng.choice(scales)
            a, b = block_pair(rng, genus, d, scale)
            call = "pair(%s, %s)" % (render(a.periods), render(b.periods))
            yield call, outcome(_pair_witness, a, b)


def _saturation_rows(rng, n):
    """Rows of width n of one kind: dependent, with zero rows, of full rank,
    scaled by a common index, or mixed by a matrix of index above 1."""
    kind = rng.choice(["dependent", "zero", "full", "scaled", "index"])
    m = rng.randint(1, n if kind == "full" else min(n + 1, 5))
    rows = [[rng.choice([0, rng.randint(-5, 5), rng.randint(-40, 40)]) for _ in range(n)]
            for _ in range(m)]
    if kind == "dependent" and m > 1:
        i, j = rng.sample(range(m), 2)
        rows[i] = [rng.randint(-3, 3) * x + rng.randint(-3, 3) * y for x, y in zip(rows[i], rows[j])]
        rows.append([2 * x - y for x, y in zip(rows[0], rows[-1])])
    elif kind == "zero":
        rows.insert(rng.randint(0, m), [0] * n)
    elif kind == "scaled":
        k = rng.choice([2, 3, 6, 12, 35])
        rows = [[k * x for x in row] for row in rows]
    elif kind == "index":
        # lower triangular with diagonal 1, ..., 1, k: the rows' lattice
        # has index k in the span of the old rows
        k = rng.choice([2, 4, 15])
        mix = [[rng.randint(-2, 2) if j < i else int(i == j) for j in range(m)] for i in range(m)]
        mix[-1][-1] = k
        rows = [[sum(c * row[t] for c, row in zip(coeffs, rows)) for t in range(n)] for coeffs in mix]
    return kind, rows


def _invariants(lattice):
    out = {"complete": is_complete(lattice)}
    if lattice.rank % 2 == 0:
        out["det"] = outcome(determinant, lattice)
        out["divisors"] = outcome(lambda: alternating_normal_form(lattice).divisors)
    return out


def _saturated(lattice):
    sat = saturate(lattice)
    return {"vectors": sat.vectors, "of_input": _invariants(lattice), "of_saturation": _invariants(sat)}


def _line(c):
    v = is_realizable_line(c)
    return {"det": v.det, "covolume": v.covolume, "area": v.area, "realizable": v.realizable,
            "reason": v.reason}


def _class_span(classes):
    rows = []
    for c in classes:
        rows += [c.re_vector(), c.im_vector()]
    return Sublattice(clear_denominators(rows)[0])


def lattice_calls(rng):
    """saturate_rows on dependent, zero, full-rank and index-scaled rows of
    width 1-12 and on no rows with a width; saturate, is_complete,
    determinant and the normal-form divisors on line and pair spans and on
    sublattices of rank 1-6; line verdicts; Sp(2g, Z) extensions of
    primitive vectors."""
    for width in (1, 2, 5):
        yield "saturate_rows([], %d)" % width, outcome(saturate_rows, [], width)
    yield "saturate_rows([])", outcome(saturate_rows, [])
    for _ in range(80):
        n = rng.randint(1, 12)
        kind, rows = _saturation_rows(rng, n)
        yield "saturate_rows(%s, %s)" % (kind, render(rows)), outcome(saturate_rows, rows, n)
    for _ in range(20):
        genus = rng.randint(2, 4)
        n = 2 * genus
        rank = rng.randint(1, min(6, n))
        while True:
            k = rng.choice([1, 2, 3])
            vectors = [[k * rng.randint(-4, 4) for _ in range(n)] for _ in range(rank)]
            try:
                lattice = Sublattice(vectors, genus=genus)
                break
            except DomainError:
                continue
        yield "saturate(%s)" % render(vectors), outcome(_saturated, lattice)
    for genus in range(2, 6):
        for _ in range(4):
            periods = [GaussianRational(rng_fraction(rng, 9, 4), rng_fraction(rng, 9, 4))
                       for _ in range(2 * genus)]
            c = CohomologyClass(genus, periods)
            yield "line_span(%s)" % render(c.periods), outcome(lambda: _saturated(_class_span([c])))
            yield "is_realizable_line(%s)" % render(c.periods), outcome(_line, c)
            yield "is_realizable_line(conj %s)" % render(c.periods), outcome(_line, c.conjugate())
    for genus in range(2, 6):
        for _ in range(3):
            d = 1 if genus == 2 else rng.randint(1, 6)
            a, b = block_pair(rng, genus, d, rng.choice([1, Fraction(1, 2), GaussianRational(1, 2)]))
            call = "pair_span(%s, %s)" % (render(a.periods), render(b.periods))
            yield call, outcome(lambda: _saturated(_class_span([a, b])))
    for genus in range(1, 4):
        for _ in range(5):
            v = [rng.randint(-9, 9) for _ in range(2 * genus)]
            yield "extend_to_symplectic_basis(%s)" % render(v), outcome(
                lambda: extend_to_symplectic_basis(v).entries)


def _big_fraction(rng, digits):
    """A nonzero rational with numerator and denominator of up to digits
    digits."""
    while True:
        value = Fraction(rng.randint(-(10**digits), 10**digits), rng.randint(1, 10**digits))
        if value:
            return value


def _big_poly(rng, degree, digits):
    return Polynomial([_big_fraction(rng, digits) for _ in range(degree + 1)])


def _coeffs(p):
    return render(p.coeffs)


def polynomial_calls(rng):
    """gcd and is_squarefree on polynomials with 10- to 20-digit rational
    coefficients: the zero and constant cases, coprime pairs, pairs sharing
    a factor of degree 1-3, and products of rational roots of multiplicity
    1-3 with a leading coefficient and an optional irrational factor."""
    zero, const, x = Polynomial(), Polynomial([Fraction(-7, 3)]), Polynomial.x()
    for a, b in ((zero, zero), (zero, const), (const, zero), (zero, x * 3 - 2),
                 (x * 3 - 2, zero), (const, x - 1), (x * x - 2, x * 2 - 4)):
        yield "gcd(%s, %s)" % (_coeffs(a), _coeffs(b)), outcome(a.gcd, b)
    for p in (zero, const, x):
        yield "is_squarefree(%s)" % _coeffs(p), outcome(p.is_squarefree)
    for _ in range(16):
        digits = rng.choice([10, 20])
        h = _big_poly(rng, rng.randint(1, 3), digits)
        u, v = (_big_poly(rng, rng.randint(0, 5), digits) for _ in range(2))
        for a, b in ((u, v), (h * u, h * v), (h * h * u, h * v)):
            yield "gcd(%s, %s)" % (_coeffs(a), _coeffs(b)), outcome(a.gcd, b)
    for _ in range(20):
        digits = rng.choice([10, 20])
        roots = [Fraction(rng.randint(-(10**6), 10**6), rng.randint(1, 10**4))
                 for _ in range(rng.randint(1, 4))]
        roots = [r for r in roots for _ in range(rng.choice([1, 1, 2, 3]))]
        p = Polynomial.from_roots(roots, lead=_big_fraction(rng, digits))
        if rng.random() < 0.5:
            # no rational root: x^2 - k for a non-square k
            p = p * Polynomial([-rng.choice([2, 3, 5, 6, 7]), 0, 1])
        yield "is_squarefree(%s)" % _coeffs(p), outcome(p.is_squarefree)
        yield "gcd(%s, derivative)" % _coeffs(p), outcome(p.gcd, p.derivative())


def _random_quartic(rng, size=3):
    return TernaryForm(4, {m: rng.randint(-size, size) for m in ternary_monomials(4)})


def _through(rng, form, point):
    """form minus a multiple of z^4 (point[2] = 1), so it passes through point."""
    return form - TernaryForm(4, {(0, 0, 4): form(point)})


def _singular_at(rng, point):
    """A quartic with a singular point at (p0 : p1 : 1): a form with no z^4,
    x z^3 or y z^3 term, moved by x -> x - p0 z, y -> y - p1 z."""
    x, y, z = (TernaryForm.linear(1, 0, 0), TernaryForm.linear(0, 1, 0),
               TernaryForm.linear(0, 0, 1))
    u, v = x - z.scale(point[0]), y - z.scale(point[1])
    form = None
    for i, j, k in ternary_monomials(4):
        if k >= 3:
            continue
        term = None
        for factor, e in ((u, i), (v, j), (z, k)):
            for _ in range(e):
                term = factor if term is None else term * factor
        term = term.scale(rng.randint(-3, 3))
        form = term if form is None else form + term
    return form


def _cross(p, q):
    return (p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2], p[0] * q[1] - p[1] * q[0])


def quartic_calls(rng):
    """Quartic accept/reject: smooth, singular at a chosen point, a squared
    conic, the zero form and a cubic; values of each form and its partials
    at int, Fraction and Polynomial points; and the cross-ratio verdicts
    on lines through a rational point of a smooth quartic: transversal,
    tangent, beta through the point and a degenerate quadruple."""
    yield "PlaneQuartic(0)", outcome(lambda: PlaneQuartic(TernaryForm(4, {})) and "smooth")
    yield "PlaneQuartic(cubic)", outcome(
        lambda: PlaneQuartic(TernaryForm(3, {(3, 0, 0): 1, (0, 3, 0): 1})) and "smooth")
    t = Polynomial.x()
    for trial in range(12):
        point = (rng_fraction(rng, 5, 3), rng_fraction(rng, 5, 3), Fraction(1))
        if trial % 4 == 0:
            form = _singular_at(rng, point)
        elif trial % 4 == 1:
            conic = TernaryForm(2, {m: rng.randint(-2, 2) for m in ternary_monomials(2)})
            form = conic * conic
        else:
            form = _through(rng, _random_quartic(rng), point)
        yield "PlaneQuartic(%s)" % render(form.coeffs), outcome(lambda: PlaneQuartic(form) and "smooth")
        probes = [(1, 0, 0), (rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(-5, 5)),
                  point, (rng_fraction(rng, 9, 7), 2, rng_fraction(rng, 9, 7))]
        for q in probes:
            values = [form(q)] + [form.partial(v)(q) for v in range(3)]
            yield "values(%s, %s)" % (render(form.coeffs), render(q)), render(values)
        line = tuple(Polynomial([a, b]) for a, b in zip(point, probes[3]))
        yield "restrict(%s, %s)" % (render(form.coeffs), render(probes[3])), outcome(form, line)
        yield "restrict(%s, (t, 1 - t, 1/2))" % render(form.coeffs), outcome(
            form, (t, 1 - t, Polynomial([Fraction(1, 2)])))
    for _ in range(8):
        point = (rng_fraction(rng, 5, 3), rng_fraction(rng, 5, 3), Fraction(1))
        while True:
            form = _through(rng, _random_quartic(rng), point)
            try:
                quartic = PlaneQuartic(form)
                break
            except DomainError:
                continue
        gradient = tuple(form.partial(v)(point) for v in range(3))
        direction = (rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3))
        through = _cross(point, direction)
        other = tuple(rng.randint(-4, 4) for _ in range(3))
        cases = [
            ("transversal", through, other, tuple(rng.randint(-4, 4) for _ in range(3))),
            ("tangent", gradient, other, (1, 0, 0)),
            ("beta through the point", through, _cross(point, (1, 2, 3)), other),
            ("degenerate", through, other, tuple(3 * c for c in other)),
        ]
        for label, alpha, beta, gamma in cases:
            call = "cross_ratio(%s, %s, %s, %s, %s)" % (
                render(form.coeffs), label, render(alpha), render(beta), render(gamma))
            yield call, outcome(lambda: quartic_cross_ratio(quartic, alpha, beta, gamma)[2])


def zero_locus_calls(rng):
    """Exact residues of omega/alpha and section values gamma/beta at the
    zeros of alpha on curves of genus 2-5, and their rejects: a repeated
    zero, a zero on the branch locus, an irrational zero, a zero at
    infinity, beta vanishing at a zero of alpha."""
    for genus in range(2, 6):
        f_roots = rng.sample(range(-20, 21), 2 * genus + rng.choice([1, 2]))
        curve = HyperellipticCurve(Polynomial.from_roots(f_roots, lead=rng.choice([1, -2, 3])))
        for trial in range(5):
            roots = []
            while len(roots) < genus - 1:
                r = rng_fraction(rng, 30, 7)
                if r not in roots and r not in f_roots:
                    roots.append(r)
            kind = ("simple", "simple", "repeated", "branch", "irrational")[trial]
            if kind == "repeated" and genus > 2:
                roots[-1] = roots[0]
            elif kind == "branch":
                roots[-1] = Fraction(f_roots[0])
            alpha = Polynomial.from_roots(roots, lead=rng_fraction(rng, 9, 4) or 1)
            if kind == "irrational" and genus > 2:
                alpha = Polynomial.from_roots(roots[:-2], lead=2) * Polynomial([-3, 0, 1])
            q = Polynomial([rng_fraction(rng, 9, 4) for _ in range(2 * genus - 1)])
            r = Polynomial([rng_fraction(rng, 9, 4) for _ in range(max(0, genus - 2))])
            beta = _form(rng, rng.randint(0, genus - 1))
            gamma = _form(rng, rng.randint(0, genus - 1))
            if trial == 1 and genus > 2:
                beta = Polynomial.from_roots([roots[0]], lead=3)
            a = Differential(curve, alpha)
            call = "residues(f=%s, alpha=%s, q=%s, r=%s)" % (
                _coeffs(curve.f), _coeffs(alpha), _coeffs(q), _coeffs(r))
            yield call, outcome(residues_of_quotient, QuadDifferential(curve, q, r), a)
            call = "sections(f=%s, alpha=%s, beta=%s, gamma=%s)" % (
                _coeffs(curve.f), _coeffs(alpha), _coeffs(beta), _coeffs(gamma))
            yield call, outcome(section_values, Differential(curve, gamma), Differential(curve, beta), a)
        low = Differential(curve, Polynomial([1]))
        if genus > 2:
            yield "residues(f=%s, alpha=1)" % _coeffs(curve.f), outcome(
                residues_of_quotient, QuadDifferential(curve, [1]), low)


def _hex(value):
    """render, except that floats and both parts of complex numbers are
    written by float.hex, so that every bit of them is pinned."""
    if isinstance(value, complex):
        return "(%s, %s)" % (value.real.hex(), value.imag.hex())
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_hex(x) for x in value) + "]"
    return render(value)


def _random_line(rng):
    while True:
        line = tuple(rng.randint(-3, 3) for _ in range(3))
        if any(line):
            return line


def _float_coordinate(rng, kind):
    if kind == "int":
        return rng.randint(-3, 3)
    if kind == "Fraction":
        return rng_fraction(rng, 9, 7)
    real = rng.choice([rng.uniform(-3, 3), rng.uniform(-3, 3), 0.0, -0.0])
    if kind == "float":
        return real
    return complex(real, rng.choice([rng.uniform(-3, 3), 0.0, -0.0]))


def curve_float_calls(rng):
    """The floats of the curve queries, by float.hex: both cross-ratios on
    smooth quartics for an alpha line, then the four basis moves of (beta,
    gamma), then a second alpha, then the first again; numeric residues and
    section values after the exact ones on the same curve and alpha, and on
    an irrational zero locus; the values of lines at points whose first
    coordinate is a float or complex number, the others mixed in."""
    for _ in range(6):
        quartic = _smooth_quartic(rng)
        first, second, beta, gamma = (_random_line(rng) for _ in range(4))
        c = Fraction(rng.randint(1, 3), rng.randint(1, 2))
        pairs = [
            (beta, gamma),
            (tuple(b + c * a for a, b in zip(first, beta)), tuple(g + c * a for a, g in zip(first, gamma))),
            (tuple(c * b for b in beta), tuple(c * g for g in gamma)),
            (beta, tuple(g + c * b for b, g in zip(beta, gamma))),
            (gamma, beta),
        ]
        queries = [(first, b, g) for b, g in pairs] + [(second, beta, gamma), (first, beta, gamma)]
        for alpha, b, g in queries:
            call = "cross_ratio(%s, %s, %s, %s)" % (
                render(quartic.form.coeffs), render(alpha), render(b), render(g))
            yield call, outcome(quartic_cross_ratio, quartic, alpha, b, g, show=_hex)
    for genus in range(2, 6):
        f_roots = rng.sample(range(-20, 21), 2 * genus + rng.choice([1, 2]))
        curve = HyperellipticCurve(Polynomial.from_roots(f_roots, lead=rng.choice([1, -2, 3])))
        roots = rng.sample([x for x in range(-25, 26) if Fraction(x, 3) not in f_roots], genus - 1)
        rational = Polynomial.from_roots([Fraction(r, 3) for r in roots], lead=rng_fraction(rng, 9, 4) or 1)
        irrational = Polynomial.from_roots(roots[2:], lead=2) * Polynomial([-3, 0, 1])
        omega = QuadDifferential(curve, Polynomial([rng_fraction(rng, 9, 4) for _ in range(2 * genus - 1)]),
                                 Polynomial([rng_fraction(rng, 9, 4) for _ in range(max(0, genus - 2))]))
        beta = Differential(curve, _form(rng, rng.randint(0, genus - 1)))
        gamma = Differential(curve, _form(rng, rng.randint(0, genus - 1)))
        for alpha, modes in ((rational, (False, True)), (irrational, (True,))):
            if alpha.degree != genus - 1:
                continue
            a = Differential(curve, alpha)
            head = "f=%s, alpha=%s" % (_coeffs(curve.f), _coeffs(alpha))
            for numeric in modes:
                show = _hex if numeric else render
                yield "residues(%s, q=%s, r=%s, numeric=%s)" % (
                    head, _coeffs(omega.q), _coeffs(omega.r), numeric), outcome(
                    residues_of_quotient, omega, a, numeric, show=show)
                yield "sections(%s, beta=%s, gamma=%s, numeric=%s)" % (
                    head, _coeffs(beta.p), _coeffs(gamma.p), numeric), outcome(
                    section_values, gamma, beta, a, numeric, show=show)
    kinds = [("float",) * 3, ("complex",) * 3, ("float", "complex", "int"),
             ("int", "float", "complex"), ("Fraction", "float", "float"), ("complex", "Fraction", "float")]
    for _ in range(12):
        degree = rng.choice([1, 2, 4])
        form = TernaryForm(degree, {m: rng.choice([rng.randint(-5, 5), rng_fraction(rng, 30, 17)])
                                    for m in ternary_monomials(degree)})
        for kind in kinds:
            point = tuple(_float_coordinate(rng, k) for k in kind)
            # every point is drawn, so the lines kept are those of the
            # draws they always were; only a line at a float or complex
            # first coordinate has a floating-point value
            if degree == 1 and kind[0] in ("float", "complex"):
                yield "value(%s, %s)" % (render(form.coeffs), _hex(point)), outcome(form, point, show=_hex)


def _cover_analyze(a, b, branch):
    """What `cover analyze` prints: genus, degree, covolume, det and the
    period lattice of the cover with monodromy (a, b, branch)."""
    cover = BranchedTorusCover(Permutation(a), Permutation(b), [Permutation(c) for c in branch])
    genus, degree, covol, det = cover_class_invariants(cover)
    return {"genus": genus, "degree": degree, "covolume": covol, "det": det,
            "period_lattice": list(period_lattice_of_cover(cover).basis)}


def _random_perm(rng, d):
    images = list(range(d))
    rng.shuffle(images)
    return images


def cover_calls(rng):
    """cover analyze on the deterministic covers of construct_cover, on
    commuting cyclic monodromy (unbranched, period lattices of index up to
    d), on random a, b closed by random branch permutations, some lifted
    to k sheets over each, and on a violated relation and a disconnected
    cover; genus_of_origami on random gluings, disconnected ones included."""
    for g, d in ((2, 2), (3, 2), (2, 5), (4, 3), (5, 7)):
        cover = construct_cover(g, d)
        data = (cover.a.images, cover.b.images, [c.images for c in cover.branch])
        yield "cover_analyze(construct_cover(%d, %d))" % (g, d), outcome(_cover_analyze, *data)
    for _ in range(12):
        d = rng.randint(1, 12)
        i, j = rng.randrange(d), rng.randrange(d)
        a, b = [(x + i) % d for x in range(d)], [(x + j) % d for x in range(d)]
        yield "cover_analyze(%s, %s, [])" % (render(a), render(b)), outcome(_cover_analyze, a, b, [])
    for trial in range(32):
        d = rng.randint(2, 9 if trial < 24 else 4)
        a, b = _random_perm(rng, d), _random_perm(rng, d)
        branch = [_random_perm(rng, d) for _ in range(rng.randint(0, 2))]
        word = commutator(Permutation(a), Permutation(b))
        for c in branch:
            word = word.compose(Permutation(c))
        branch.append(list(word.inverse().images))
        if trial >= 24:
            # sheets (x, j) for j mod k: a also steps j, so the cover factors
            # through a degree-k torus cover and the covolume can exceed 1
            k = rng.randint(2, 3)
            a = [a[x] + d * ((j + 1) % k) for j in range(k) for x in range(d)]
            b = [b[x] + d * j for j in range(k) for x in range(d)]
            branch = [[c[x] + d * j for j in range(k) for x in range(d)] for c in branch]
        yield "cover_analyze(%s, %s, %s)" % (render(a), render(b), render(branch)), outcome(
            _cover_analyze, a, b, branch)
    for a, b, branch in (([1, 0, 2], [0, 2, 1], []), ([1, 0, 3, 2], [0, 1, 2, 3], [])):
        yield "cover_analyze(%s, %s, [])" % (render(a), render(b)), outcome(_cover_analyze, a, b, branch)
    for _ in range(40):
        d = rng.randint(1, 10)
        h, v = _random_perm(rng, d), _random_perm(rng, d)
        if rng.random() < 0.2:
            # a gluing that keeps the first square to itself
            h[h.index(0)], h[0] = h[0], 0
            v[v.index(0)], v[0] = v[0], 0
        yield "genus_of_origami(%s, %s)" % (render(h), render(v)), outcome(
            lambda: genus_of_origami(Origami(Permutation(h), Permutation(v))))


def _pairs(genus, pairs):
    """Generators e_i, d f_i + m e_(i+1) of the pairs (d, m), i = 0, 1, ...:
    with gcd(m, d) = 1 (m = 0 at d = 1) a complete sublattice whose
    divisors are the d."""
    n = 2 * genus
    rows = []
    for i, (d, m) in enumerate(pairs):
        x, y = [0] * n, [0] * n
        x[2 * i], y[2 * i + 1] = 1, d
        if m:
            y[2 * i + 2] = m
        rows += [x, y]
    return rows


def _scrambled(rng, genus, rows, steps=3):
    """rows moved by a random Sp(2g, Z) matrix, then recombined by unimodular
    row operations, so that the adapted basis is not given away."""
    cols = random_sp_cols(rng, genus, steps)
    rows = [apply_cols(cols, v) for v in rows]
    for _ in range(len(rows)):
        i, j = rng.sample(range(len(rows)), 2)
        c = rng.randint(-2, 2)
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    return rows


def _map(fn, u, u2):
    return fn(Sublattice(u), Sublattice(u2)).entries


def _map_call(fn, u, u2):
    return "%s(%s, %s)" % (fn.__name__, render(u), render(u2)), outcome(_map, fn, u, u2)


def map_calls(rng):
    """map_rank2_sublattice on complete rank-2 sublattices of every genus
    1-8 and determinant 1-20, map_rank4_sublattice on rank-4 ones of genus
    2-8 and second divisor 1-20, both scrambled by Sp(2g, Z) and unimodular
    recombination; unscrambled inputs whose residue m is 0 or has m mod d
    outside {0, 1}; wrong rank, different genera, unequal determinants,
    incomplete and degenerate input, and first divisor 2."""
    for genus in range(1, 9):
        for d in range(1, 21 if genus > 1 else 2):
            rows = _pairs(genus, [(d, int(d > 1))])
            yield _map_call(map_rank2_sublattice, _scrambled(rng, genus, rows), _scrambled(rng, genus, rows))
    for genus in range(2, 9):
        for d in range(1, 21 if genus > 2 else 2):
            rows = _pairs(genus, [(1, 0), (d, int(d > 1))])
            yield _map_call(map_rank4_sublattice, _scrambled(rng, genus, rows), _scrambled(rng, genus, rows))
    for genus in (1, 2, 5):
        rows = _pairs(genus, [(1, 0)])
        yield _map_call(map_rank2_sublattice, rows, _scrambled(rng, genus, rows))
    for d, m in ((3, 2), (5, 3), (7, 12), (8, 5), (20, 9), (4, -1), (9, 5)):
        for genus in (2, 4):
            rows = _pairs(genus, [(d, m)])
            yield _map_call(map_rank2_sublattice, rows, _scrambled(rng, genus, rows))
            yield _map_call(map_rank2_sublattice, _scrambled(rng, genus, rows), rows)
            rows = _pairs(genus + 1, [(1, 0), (d, m)])
            yield _map_call(map_rank4_sublattice, rows, _scrambled(rng, genus + 1, rows))
    rank2 = _pairs(3, [(2, 1)])
    rank4 = _pairs(3, [(1, 0), (2, 1)])
    e0, f0, e1, f1, e2 = ([int(i == k) for i in range(6)] for k in range(5))
    bad = [
        (map_rank2_sublattice, rank4, rank4),
        (map_rank2_sublattice, rank2, rank4),
        (map_rank4_sublattice, rank2, rank2),
        (map_rank4_sublattice, rank2, rank4),
        (map_rank2_sublattice, rank2, _pairs(2, [(2, 1)])),
        (map_rank2_sublattice, rank2, _pairs(3, [(3, 1)])),
        (map_rank4_sublattice, rank4, _pairs(3, [(1, 0), (1, 0)])),
        (map_rank2_sublattice, [e0, [2 * x for x in f0]], rank2),
        (map_rank2_sublattice, rank2, [[2 * x for x in e0], f0]),
        (map_rank4_sublattice, [e0, f0, e1, [4 * x for x in f1]], _pairs(3, [(1, 0), (4, 1)])),
        (map_rank4_sublattice, [[2 * x for x in e0], f0, [2 * x for x in e1], f1], [e0, f0, e1, f1]),
        (map_rank4_sublattice, [[2 * x for x in e0], f0, [2 * x for x in e1], f1],
         [[2 * x for x in e0], f0, [2 * x for x in e1], f1]),
        (map_rank2_sublattice, [e0, e1], rank2),
        (map_rank2_sublattice, rank2, [e0, e1]),
        (map_rank4_sublattice, [e0, f0, e1, e2], rank4),
        (map_rank4_sublattice, rank4, [e0, e1, f1, e2]),
        (map_rank2_sublattice, [e0, [x + y for x, y in zip(e0, e1)]], rank2),
    ]
    # complete, with divisors (2, 2): not in the orbit of divisors (1, 4)
    e = [[int(i == k) for i in range(8)] for k in range(8)]
    even = [e[0], [2 * x + y for x, y in zip(e[1], e[4])], e[2], [2 * x + y for x, y in zip(e[3], e[6])]]
    bad += [(map_rank4_sublattice, even, even), (map_rank4_sublattice, even, _pairs(4, [(1, 0), (4, 1)]))]
    for fn, u, u2 in bad:
        yield _map_call(fn, u, u2)


FAMILIES = {
    "rational_elim": (11, rational_elim_calls),
    "obscurant_hyperelliptic": (12, hyperelliptic_obscurant_calls),
    "obscurant_quartic": (13, quartic_obscurant_calls),
    "pair_witness": (14, pair_witness_calls),
    "multiplication": (17, multiplication_calls),
    "lattice": (18, lattice_calls),
    "polynomials": (19, polynomial_calls),
    "quartic": (20, quartic_calls),
    "zero_locus": (21, zero_locus_calls),
    "covers": (22, cover_calls),
    "maps": (23, map_calls),
    "curve_floats": (24, curve_float_calls),
}


def family_lines(name):
    seed, calls = FAMILIES[name]
    return ["%s -> %s" % (call, out) for call, out in calls(random.Random(seed))]


def line_digest(line):
    return hashlib.sha256(line.encode()).hexdigest()[:12]


def pin(lines):
    return {
        "digest": hashlib.sha256("\n".join(lines).encode()).hexdigest(),
        "calls": [line_digest(line) for line in lines],
    }


def load_pins():
    return json.loads(PIN_FILE.read_text())


def first_difference(name, pins):
    """None when the family matches its pin, else a message naming the
    family and its first differing call."""
    lines = family_lines(name)
    stored = pins.get(name)
    if stored is None:
        return "%s: no pin stored" % name
    if pin(lines)["digest"] == stored["digest"]:
        return None
    for i, line in enumerate(lines):
        if i >= len(stored["calls"]) or line_digest(line) != stored["calls"][i]:
            return "%s: call %d differs: %s" % (name, i, line)
    return "%s: %d calls, %d pinned" % (name, len(lines), len(stored["calls"]))


def main(argv):
    if argv == ["--write"]:
        pins = {name: pin(family_lines(name)) for name in FAMILIES}
        PIN_FILE.write_text(json.dumps(pins, indent=1) + "\n")
        return 0
    if argv == ["--check"]:
        pins = load_pins()
        failures = [msg for msg in (first_difference(n, pins) for n in FAMILIES) if msg]
        for msg in failures:
            print(msg)
        return 1 if failures else 0
    if argv:
        print(__doc__)
        return 2
    for name in FAMILIES:
        lines = family_lines(name)
        print("%-24s %4d calls  %s" % (name, len(lines), pin(lines)["digest"]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

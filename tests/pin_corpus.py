"""Seeded corpus of every library output that goes through rational_kernel
or rational_solve, of every multiplication-map dimension and verdict, and
of the saturations, lattice invariants and line verdicts behind the
periods path, pinned by digest.

Each family is a fixed, seeded list of calls.  A call is rendered as one
line, "<call> -> <output>", with Fractions written p/q and errors written
as their type and message.  pin_corpus.json stores, per family, the
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

from periodforms.curve_algebra import (
    Differential,
    HyperellipticCurve,
    PlaneQuartic,
    TauSubspace,
    classify,
    dividend_dim,
    isoperiodic_deformation_dim,
    multiplication_rank,
    noether_image_dim,
    obscurant_dim,
    obscurant_kernel,
    overlap_degree,
)
from periodforms.errors import DomainError
from periodforms.exact import GaussianRational
from periodforms.intlinalg import clear_denominators, rational_kernel, rational_solve, saturate_rows
from periodforms.polynomials import Polynomial, TernaryForm
from periodforms.realizability import (
    CohomologyClass,
    area,
    is_realizable_elliptic_pair,
    is_realizable_line,
    torus_data,
)
from periodforms.symplectic_lattice import (
    Sublattice,
    alternating_normal_form,
    determinant,
    extend_to_symplectic_basis,
    is_complete,
    omega,
    saturate,
)

PIN_FILE = Path(__file__).with_name("pin_corpus.json")


def render(value):
    """Canonical text of an output: Fractions as p/q, lists and dicts in
    order, GaussianRationals as (re, im)."""
    if isinstance(value, Fraction):
        return str(value.numerator) if value.denominator == 1 else "%d/%d" % (
            value.numerator, value.denominator)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, GaussianRational):
        return "(%s, %s)" % (render(value.re), render(value.im))
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(render(x) for x in value) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join("%s: %s" % (k, render(value[k])) for k in sorted(value)) + "}"
    return str(value)


def outcome(fn, *args):
    try:
        return render(fn(*args))
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


def _torus(taus):
    lattice, matrix = torus_data(taus)
    return {"lattice": lattice.vectors, "matrix": matrix}


def torus_data_calls(rng):
    for genus in range(2, 5):
        for _ in range(5):
            periods = [GaussianRational(rng_fraction(rng, 6, 3), rng_fraction(rng, 6, 3))
                       for _ in range(2 * genus)]
            c = CohomologyClass(genus, periods)
            if area(c) < 0:
                c = c.conjugate()
            yield "torus_data(%s)" % render(c.periods), outcome(_torus, [c])
    for genus in range(2, 5):
        for _ in range(4):
            d = 1 if genus == 2 else rng.randint(1, 5)
            a, b = block_pair(rng, genus, d, rng.choice([1, Fraction(1, 3), GaussianRational(1, 1)]))
            yield "torus_data(%s, %s)" % (render(a.periods), render(b.periods)), outcome(
                _torus, [a, b])


def contains_calls(rng):
    """Members, half-integer points of the rational span and points off the
    span, against lattices of rank 1-4 in genus 2-4."""
    for _ in range(30):
        genus = rng.randint(2, 4)
        n = 2 * genus
        rank = rng.randint(1, min(4, n))
        while True:
            vectors = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rank)]
            try:
                lattice = Sublattice(vectors, genus=genus)
                break
            except DomainError:
                continue
        probes = []
        for _ in range(6):
            coeffs = [Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2, 3])) for _ in range(rank)]
            v = [sum(c * row[i] for c, row in zip(coeffs, vectors)) for i in range(n)]
            if all(x.denominator == 1 for x in v):
                probes.append([int(x) for x in v])
            else:
                probes.append([x for x in v])
        probes.append([rng.randint(-4, 4) for _ in range(n)])
        results = "".join("1" if lattice.contains(v) else "0" for v in probes)
        yield "contains(%s, %s)" % (render(vectors), render(probes)), results


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


FAMILIES = {
    "rational_elim": (11, rational_elim_calls),
    "obscurant_hyperelliptic": (12, hyperelliptic_obscurant_calls),
    "obscurant_quartic": (13, quartic_obscurant_calls),
    "pair_witness": (14, pair_witness_calls),
    "torus_data": (15, torus_data_calls),
    "contains": (16, contains_calls),
    "multiplication": (17, multiplication_calls),
    "lattice": (18, lattice_calls),
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

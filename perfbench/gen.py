"""Seeded input generators.

Every generator takes a random.Random and returns plain data (ints,
Fractions, lists, dicts) together with whatever the benchmark needs to
check the library's answer: the expected value is known by construction
wherever the construction allows it.  Nothing here imports periodforms.
"""

from fractions import Fraction
from math import gcd

import ref


def rng_fraction(rng, num, den):
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def random_sp(genus, rng, steps=6, size=1):
    """Columns of a random product of transvections x -> x + omega(x, u) u."""
    n = 2 * genus
    cols = [[1 if i == k else 0 for i in range(n)] for k in range(n)]
    for _ in range(steps):
        u = [rng.randint(-size, size) for _ in range(n)]
        if not any(u):
            u[rng.randrange(n)] = 1
        cols = [[c + ref.omega(col, u) * x for c, x in zip(col, u)] for col in cols]
    return cols


def apply_cols(cols, v):
    n = len(cols)
    return [sum(v[j] * cols[j][i] for j in range(n)) for i in range(n)]


# --- periods ---------------------------------------------------------------


def line_class(rng, genus):
    """Random Gaussian-rational periods with positive area.

    Returns (periods, area, covolume): periods as (re, im) Fraction pairs,
    area = omega(Re, Im) and the covolume of the period group, both
    computed here without the library.
    """
    while True:
        periods = [(rng_fraction(rng, 10, 4), rng_fraction(rng, 10, 4)) for _ in range(2 * genus)]
        re = [p[0] for p in periods]
        im = [p[1] for p in periods]
        area = ref.omega(re, im)
        if area == 0:
            continue
        if area < 0:
            periods = [(x, -y) for x, y in periods]
            area = -area
        return periods, area, period_covolume(periods)


def period_covolume(periods):
    """Covolume of the group generated by the periods: gcd of 2x2 minors."""
    den = 1
    for x, y in periods:
        den = den * x.denominator // gcd(den, x.denominator)
        den = den * y.denominator // gcd(den, y.denominator)
    pts = [(int(x * den), int(y * den)) for x, y in periods]
    g = 0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            g = gcd(g, abs(pts[i][0] * pts[j][1] - pts[j][0] * pts[i][1]))
    return Fraction(g, den * den)


def block_pair(rng, genus, d):
    """Scrambled isotropic positive pair whose pair determinant is 2d."""
    n = 2 * genus
    u = [[0] * n for _ in range(4)]
    u[0][0] = u[1][1] = u[2][2] = 1
    u[3][3] = d
    if d > 1:
        u[3][4] = 1
    cols = random_sp(genus, rng)
    u = [apply_cols(cols, v) for v in u]
    a = list(zip(u[0], u[1]))
    b = list(zip(u[2], u[3]))
    return a, b


def complete_rank2(rng, genus, d):
    """Scrambled span{e0, d*f0 + u}, complete, with determinant d."""
    n = 2 * genus
    e0 = [1] + [0] * (n - 1)
    y = [0] * n
    y[0] = rng.randint(-3, 3)
    y[1] = d
    while True:
        z = [rng.randint(-3, 3) for _ in range(n - 2)]
        m = ref.vec_gcd(z)
        if d == 1 or (m != 0 and gcd(m, d) == 1):
            break
    y[2:] = z
    cols = random_sp(genus, rng)
    a, b = apply_cols(cols, e0), apply_cols(cols, y)
    c = rng.randint(-2, 2)
    return [a, [x + c * t for x, t in zip(b, a)]]


def complete_rank4(rng, genus, d):
    n = 2 * genus
    basis = [[0] * n for _ in range(4)]
    basis[0][0] = basis[1][1] = basis[2][2] = 1
    basis[3][3] = d
    if d > 1:
        basis[3][4] = rng.choice([1, -1])
    cols = random_sp(genus, rng)
    return [apply_cols(cols, v) for v in basis]


def dense_sublattice(rng, rank, genus):
    """Random dense generators whose restricted form is nondegenerate.

    Returns (vectors, gram determinant); the lattice determinant squared
    equals the gram determinant.
    """
    n = 2 * genus
    while True:
        vectors = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rank)]
        g = ref.det(ref.gram(vectors))
        if g != 0:
            return vectors, int(g)


# --- curves ----------------------------------------------------------------


def _invertible_3x3(rng, size):
    while True:
        m = [[rng.randint(-size, size) for _ in range(3)] for _ in range(3)]
        if ref.det(m) != 0:
            return m


def smooth_quartic(rng):
    """a x^4 + b y^4 + c z^4 (abc != 0) under an invertible linear change:
    smooth by construction, with a dense coefficient table."""
    diag = {
        (4, 0, 0): rng.choice([1, 2, 3, -1, -2]),
        (0, 4, 0): rng.choice([1, 2, 3, -1, -2]),
        (0, 0, 4): rng.choice([1, 2, 3, -1, -2]),
    }
    return ref.ternary_substitute(diag, _invertible_3x3(rng, 1))


def singular_quartic(rng):
    """A table with no monomials of z-degree 3 or 4 is singular at (0:0:1);
    an invertible linear change moves that point elsewhere."""
    table = {}
    for i in range(5):
        for j in range(5 - i):
            k = 4 - i - j
            if k >= 3:
                continue
            table[(i, j, k)] = rng_fraction(rng, 3, 3)
    table[(4, 0, 0)] = Fraction(1)
    return ref.ternary_substitute(table, _invertible_3x3(rng, 1))


def random_line(rng):
    while True:
        coeffs = [rng.randint(-5, 5) for _ in range(3)]
        if any(coeffs):
            return coeffs


def independent_lines(rng, count):
    while True:
        lines = [random_line(rng) for _ in range(count)]
        if ref.rank(lines) == count:
            return lines


def hyperelliptic_f(rng, genus):
    degree = 2 * genus + rng.choice([1, 2])
    roots = rng.sample(range(40, 95), degree)
    return ref.poly_from_roots(roots, lead=rng.choice([1, 2, -1])), set(roots)


def differential(rng, degree):
    coeffs = [rng_fraction(rng, 8, 4) for _ in range(degree)]
    coeffs.append(Fraction(rng.choice([1, -1, 2])))
    return coeffs


def differential_pair(rng, genus):
    while True:
        p1 = differential(rng, rng.randint(0, genus - 1))
        p2 = differential(rng, rng.randint(0, genus - 1))
        rows = [p + [Fraction(0)] * (genus - len(p)) for p in (p1, p2)]
        if ref.rank(rows) == 2:
            return p1, p2


def alpha_with_height(rng, genus, height, avoid):
    """alpha of degree g-1 with distinct integer roots: one of height
    between height/2 and height, the others small, avoiding the roots of
    f.  The trial-division root finder's cost grows with the height."""
    k = genus - 1
    while True:
        roots = [rng.randint(height // 2, height)] + [rng.randint(1, 9) for _ in range(k - 1)]
        roots = [r * rng.choice([1, -1]) for r in roots]
        if len(set(roots)) == k and not set(roots) & avoid:
            lead = rng.choice([1, 2, 3])
            return ref.poly_from_roots(roots, lead=lead), sorted(Fraction(r) for r in roots)


def ternary_eval(table, point):
    return sum(c * point[0] ** i * point[1] ** j * point[2] ** k for (i, j, k), c in table.items())


def cross_ratio_lines(rng, table):
    """alpha, beta, gamma independent, with alpha meeting the quartic in
    four distinct points and beta, gamma not vanishing at any of them, so
    every quadruple the cross-ratio ops form is defined."""
    while True:
        alpha, beta, gamma = independent_lines(rng, 3)
        p, q = cross(alpha, beta), cross(alpha, gamma)
        if ternary_eval(table, p) == 0 or ternary_eval(table, q) == 0:
            continue
        # the quartic on the chart p + s*q of alpha; q itself is off the curve
        coords = [[Fraction(p[i]), Fraction(q[i])] for i in range(3)]
        restricted = []
        for (i, j, k), c in table.items():
            term = [Fraction(c)]
            for var, e in ((0, i), (1, j), (2, k)):
                for _ in range(e):
                    term = ref.poly_mul(term, coords[var])
            restricted = ref.poly_add(restricted, term)
        if ref.deg(ref.poly_gcd(restricted, ref.poly_derivative(restricted))) == 0:
            return alpha, beta, gamma


def cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])

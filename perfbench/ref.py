"""Reference arithmetic for the benchmark's generators and checks.

Written against plain ints, Fractions and lists so that neither input
generation nor output checking goes through the library being measured.
Polynomials are ascending coefficient lists with no trailing zeros.
"""

from fractions import Fraction
from math import gcd


def omega(u, v):
    """Standard symplectic pairing on the basis e0, f0, e1, f1, ..."""
    return sum(u[k] * v[k + 1] - u[k + 1] * v[k] for k in range(0, len(u), 2))


def gram(vectors):
    return [[omega(u, v) for v in vectors] for u in vectors]


def mat_mul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def standard_gram(genus):
    n = 2 * genus
    j = [[0] * n for _ in range(n)]
    for i in range(genus):
        j[2 * i][2 * i + 1] = 1
        j[2 * i + 1][2 * i] = -1
    return j


def det(rows):
    """Exact determinant by fraction-free-enough Gaussian elimination."""
    a = [[Fraction(x) for x in r] for r in rows]
    n = len(a)
    out = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            out = -out
        out *= a[c][c]
        for i in range(c + 1, n):
            if a[i][c] != 0:
                f = a[i][c] / a[c][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return out


def rank(rows):
    a = [[Fraction(x) for x in r] for r in rows]
    r = 0
    for c in range(len(a[0]) if a else 0):
        piv = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, len(a)):
            if a[i][c] != 0:
                f = a[i][c] / a[r][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


def in_integer_span(v, basis):
    """Whether v is an integer combination of the independent rows of basis."""
    k = len(basis)
    cols = [[Fraction(basis[i][r]) for i in range(k)] + [Fraction(v[r])] for r in range(len(v))]
    # eliminate on the coordinate rows; the last column is the right-hand side
    pivots = []
    row = 0
    for c in range(k):
        piv = next((i for i in range(row, len(cols)) if cols[i][c] != 0), None)
        if piv is None:
            return False
        cols[row], cols[piv] = cols[piv], cols[row]
        p = cols[row][c]
        cols[row] = [x / p for x in cols[row]]
        for i in range(len(cols)):
            if i != row and cols[i][c] != 0:
                f = cols[i][c]
                cols[i] = [x - f * y for x, y in zip(cols[i], cols[row])]
        pivots.append(row)
        row += 1
    if any(cols[i][k] != 0 for i in range(row, len(cols))):
        return False
    return all(cols[i][k].denominator == 1 for i in range(row))


def same_lattice(a, b):
    return len(a) == len(b) and all(in_integer_span(v, b) for v in a) and all(
        in_integer_span(v, a) for v in b
    )


# --- polynomials -----------------------------------------------------------


def trim(p):
    p = [Fraction(c) for c in p]
    while p and p[-1] == 0:
        p.pop()
    return p


def deg(p):
    return len(trim(p)) - 1


def poly_mul(p, q):
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return trim(out)


def poly_add(p, q):
    n = max(len(p), len(q))
    return trim([(p[k] if k < len(p) else 0) + (q[k] if k < len(q) else 0) for k in range(n)])


def poly_eval(p, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_from_roots(roots, lead=1):
    p = [Fraction(lead)]
    for r in roots:
        p = poly_mul(p, [-Fraction(r), Fraction(1)])
    return p


def poly_derivative(p):
    return trim([k * c for k, c in enumerate(p)][1:])


def poly_divmod(p, q):
    rem = list(trim(p))
    q = trim(q)
    quo = [Fraction(0)] * max(0, len(rem) - len(q) + 1)
    for k in range(len(rem) - len(q), -1, -1):
        c = rem[k + len(q) - 1] / q[-1]
        quo[k] = c
        for j, b in enumerate(q):
            rem[k + j] -= c * b
    return trim(quo), trim(rem)


def poly_gcd(p, q):
    a, b = trim(p), trim(q)
    while b:
        a, b = b, poly_divmod(a, b)[1]
    return [c / a[-1] for c in a] if a else a


def anharmonic_orbit(z):
    """The six values a cross-ratio takes under relabeling."""
    out = [z, 1 - z]
    for base in (z, 1 - z):
        if base != 0:
            out.append(1 / base)
    if z != 0:
        out.append((z - 1) / z)
    if z != 1:
        out.append(z / (z - 1))
    return out


def ratio_problem(forms, points, matches, tolerance=1e-9):
    """None when the forms' cross-ratio lies in the orbit of the points'."""
    best = min(abs(forms - v) for v in anharmonic_orbit(points))
    return None if matches is True and best < tolerance else "cross-ratios differ by %g" % best


# --- ternary forms ---------------------------------------------------------


def ternary_mul(p, q):
    out = {}
    for (i1, j1, k1), a in p.items():
        for (i2, j2, k2), b in q.items():
            key = (i1 + i2, j1 + j2, k1 + k2)
            out[key] = out.get(key, 0) + a * b
    return {k: v for k, v in out.items() if v != 0}


def ternary_substitute(form, m):
    """form(M x) for a 3x3 matrix M, as a new coefficient table."""
    lin = [{(1, 0, 0): m[r][0], (0, 1, 0): m[r][1], (0, 0, 1): m[r][2]} for r in range(3)]
    lin = [{k: v for k, v in l.items() if v != 0} for l in lin]
    out = {}
    for (i, j, k), c in form.items():
        term = {(0, 0, 0): Fraction(c)}
        for var, e in ((0, i), (1, j), (2, k)):
            for _ in range(e):
                term = ternary_mul(term, lin[var])
        for key, v in term.items():
            out[key] = out.get(key, 0) + v
    return {k: v for k, v in out.items() if v != 0}


def vec_gcd(v):
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    return g

"""Exact linear algebra over Z and Q on plain lists of lists.

Lattices are handled as lists of generator vectors (rows).  All integer
routines use arbitrary-precision ints; the rank of an integer matrix comes
from fraction-free elimination, and rational rank, kernel and solve share
one Gauss-Jordan elimination over Fraction or GaussianRational entries.
No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul

from .errors import DomainError
from .exact import GaussianRational


# ---------------------------------------------------------------------------
# generic matrix helpers


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(mat):
    return [list(col) for col in zip(*mat)] if mat else []


def mat_mul(a, b):
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def mat_vec(a, v):
    return [sum(row[j] * v[j] for j in range(len(v))) for row in a]


def vec_add(u, v):
    return [a + b for a, b in zip(u, v)]


def vec_sub(u, v):
    return [a - b for a, b in zip(u, v)]


def vec_scale(c, v):
    return [c * a for a in v]


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def vec_gcd(v):
    g = 0
    for a in v:
        g = gcd(g, abs(a))
    return g


def is_zero_vec(v):
    return all(a == 0 for a in v)


def mat_eq(a, b):
    return len(a) == len(b) and all(list(r) == list(s) for r, s in zip(a, b))


# ---------------------------------------------------------------------------
# Hermite normal form (row style: rows generate the lattice)


def row_hnf(rows):
    """Canonical Hermite form of the row lattice.

    Pivots are positive, each strictly right of the previous one, and the
    entries above a pivot are reduced into [0, pivot).  Zero rows are
    dropped, so equal lattices give identical outputs.
    """
    return [r for r in row_hnf_transform(rows)[0] if not is_zero_vec(r)]


def row_hnf_transform(rows):
    """Returns (H, U) with U unimodular, U*rows = H in Hermite form.

    H keeps the full row count of the input (zero rows at the bottom are
    preserved) so callers can read kernels off U; row_hnf strips them.
    """
    a = [list(r) for r in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    u = identity(m)
    r = 0
    for c in range(n):
        # gather rows at or below r with a nonzero entry in column c
        live = [i for i in range(r, m) if a[i][c] != 0]
        if not live:
            continue
        while True:
            live = [i for i in range(r, m) if a[i][c] != 0]
            if len(live) <= 1:
                break
            i0 = min(live, key=lambda i: abs(a[i][c]))
            for i in live:
                if i == i0:
                    continue
                q = a[i][c] // a[i0][c]
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[i0])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[i0])]
        live = [i for i in range(r, m) if a[i][c] != 0]
        if not live:
            continue
        i0 = live[0]
        a[r], a[i0] = a[i0], a[r]
        u[r], u[i0] = u[i0], u[r]
        if a[r][c] < 0:
            a[r] = [-x for x in a[r]]
            u[r] = [-x for x in u[r]]
        p = a[r][c]
        for i in range(r):
            q = a[i][c] // p
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                u[i] = [x - q * y for x, y in zip(u[i], u[r])]
        r += 1
    # move the zero rows (and their transform rows) to the bottom, in order
    nz = [i for i in range(m) if not is_zero_vec(a[i])]
    z = [i for i in range(m) if is_zero_vec(a[i])]
    a = [a[i] for i in nz + z]
    u = [u[i] for i in nz + z]
    return a, u


def integer_kernel(rows, width=None):
    """Basis of the saturated lattice {x in Z^n : A x = 0}, A given by rows.

    Returned as canonical Hermite-form rows.  An empty row list means the
    zero map, whose kernel is all of Z^width.
    """
    if not rows:
        if width is None:
            raise DomainError("kernel of an empty matrix needs an explicit width")
        return identity(width)
    n = len(rows[0])
    b = transpose(rows)  # n x m
    h, u = row_hnf_transform(b)
    ker = [u[i] for i in range(n) if is_zero_vec(h[i])]
    return row_hnf(ker)


def saturate_rows(rows, width=None):
    """Saturation of the row lattice: (Q-span of rows) intersect Z^n."""
    if not rows and width is None:
        raise DomainError("saturation of an empty generator list needs a width")
    n = width if width is not None else len(rows[0])
    comp = integer_kernel(rows, n) if rows else identity(n)
    if not comp:
        return identity(n)
    return integer_kernel(comp, n)


# ---------------------------------------------------------------------------
# elimination


def integer_rank(rows):
    """Rank of an integer matrix by Bareiss fraction-free elimination.

    After k pivots every live entry is a (k+1)-minor of the input, so the
    division by the previous pivot is exact and entry sizes stay
    polynomial; only ints and exact // are used.
    """
    a = list(rows)
    m = len(a)
    n = len(a[0]) if m else 0
    rank, prev = 0, 1
    for c in range(n):
        if rank == m:
            break
        piv = next((i for i in range(rank, m) if a[i][c]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        top = a[rank]
        p = top[c]
        for i in range(rank + 1, m):
            f = a[i][c]
            a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], top)]
        prev = p
        rank += 1
    return rank


def _gauss_jordan(rows):
    """Reduced row echelon form over an exact field: (rows, pivot columns).

    Ints and Fractions become Fraction, GaussianRational entries are kept;
    a zero is anything falsy.  Each column's pivot is its first nonzero
    entry at or below the current row.
    """
    a = [[x if isinstance(x, GaussianRational) else Fraction(x) for x in r] for r in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    pivots = []
    for c in range(n):
        rank = len(pivots)
        if rank == m:
            break
        piv = next((i for i in range(rank, m) if a[i][c]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        pv = a[rank][c]
        a[rank] = [x / pv for x in a[rank]]
        for i in range(m):
            if i != rank and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        pivots.append(c)
    return a, pivots


def rational_rank(rows):
    return len(_gauss_jordan(rows)[1])


def rational_kernel(rows, width=None):
    """Basis of the rational null space {x : A x = 0} as Fraction vectors."""
    if not rows:
        if width is None:
            raise DomainError("kernel of an empty matrix needs an explicit width")
        return [
            [Fraction(1) if i == j else Fraction(0) for j in range(width)]
            for i in range(width)
        ]
    a, pivots = _gauss_jordan(rows)
    n = len(a[0])
    basis = []
    for fc in range(n):
        if fc in pivots:
            continue
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -a[r][fc]
        basis.append(v)
    return basis


def rational_solve(rows, rhs):
    """Solve A x = rhs exactly; raises DomainError if inconsistent.

    The right-hand side rides along as an extra column, so a pivot there
    means no solution.  When the system is underdetermined, returns the
    solution with free variables set to zero.
    """
    if len(rhs) != len(rows):
        raise DomainError("right-hand side length does not match the rows")
    n = len(rows[0]) if rows else 0
    a, pivots = _gauss_jordan([list(r) + [b] for r, b in zip(rows, rhs)])
    if pivots and pivots[-1] == n:
        raise DomainError("inconsistent linear system")
    x = [Fraction(0)] * n
    for r, pc in enumerate(pivots):
        x[pc] = a[r][n]
    return x


# ---------------------------------------------------------------------------
# Bezout combinations


def bezout_vector(coeffs):
    """Returns (g, x) with sum(x_i * c_i) = g = gcd(coeffs) >= 0."""
    g = 0
    x = [0] * len(coeffs)
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        if g == 0:
            g = abs(c)
            x = [0] * len(coeffs)
            x[i] = 1 if c > 0 else -1
            continue
        gg, s, t = _xgcd(g, c)
        x = [s * xi for xi in x]
        x[i] += t
        g = gg
    return g, x


def _xgcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t

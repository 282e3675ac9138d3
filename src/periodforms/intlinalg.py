"""Exact linear algebra over Z and Q on plain lists of lists.

Lattices are handled as lists of generator vectors (rows).  All integer
routines use arbitrary-precision ints: Hermite forms come from one core,
the saturation is one exact triangular solve between two Hermite forms,
and the integer determinant and the rational kernel and solve come from
one forward fraction-free (Bareiss) elimination, which rescales a row only
when it is next used; the kernel is read off its echelon rows by exact
back substitution, and Fractions appear only in the kernel and solve
results.  The rank over Z or Q is one elimination modulo the prime
2^31 - 1 on rows packed into single ints, certified by a minor that is
nonzero mod p or by a kernel checked exactly over Z, with Bareiss only
when neither holds.  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm
from operator import mul
from struct import Struct

from .errors import DomainError


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
    return [sum(map(mul, row, v)) for row in a]


def clear_denominators(rows):
    """(int_rows, den): den > 0 is the lcm of the entries' denominators and
    int_rows = den * rows, for rows of ints and Fractions."""
    den = lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in rows], den


# ---------------------------------------------------------------------------
# Hermite normal form (row style: rows generate the lattice)


def row_hnf(rows):
    """Canonical Hermite form of the row lattice.

    Pivots are positive, each strictly right of the previous one, and the
    entries above a pivot are reduced into [0, pivot).  Zero rows are
    dropped, so equal lattices give identical outputs.
    """
    a = [list(r) for r in rows]
    n = len(a[0]) if a else 0
    return [r for r in _hermite(a, n) if any(r)]


def _hermite(a, n):
    """Hermite form of the rows of a in their first n columns, in place.

    Columns past n ride along with every row operation, so identity
    columns appended to a record the unimodular transform.  Rows whose
    first n entries vanish are returned last, in their order.
    """
    m = len(a)
    r = 0
    for c in range(n):
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
        if not live:
            continue
        i0 = live[0]
        a[r], a[i0] = a[i0], a[r]
        if a[r][c] < 0:
            a[r] = [-x for x in a[r]]
        p = a[r][c]
        for i in range(r):
            q = a[i][c] // p
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[r])]
        r += 1
    return a


def saturate_rows(rows, width=None):
    """Saturation of the row lattice, (Q-span of rows) intersect Z^n, as
    canonical Hermite-form rows.

    Let A be the rows, of rank r, and C = row_hnf(A^T), r rows in Hermite
    form with pivot columns p_0 < ... < p_(r-1).  The rows of C span the
    column lattice of A, so A = B * S with B = C^T and S an integer r x n
    matrix whose columns span Z^r: S is primitive, its rows span the
    saturation.  Rows p_0, ... of B form a lower triangular matrix with the
    positive pivots of C on its diagonal, so S comes from those rows of A
    by one exact forward substitution, and the answer is row_hnf(S).
    """
    if not rows and width is None:
        raise DomainError("saturation of an empty generator list needs a width")
    c = row_hnf(transpose(rows))
    s = []
    for i, ci in enumerate(c):
        p = next(k for k, x in enumerate(ci) if x)
        row = rows[p]
        for j in range(i):
            f = c[j][p]
            if f:
                row = [x - f * y for x, y in zip(row, s[j])]
        d = ci[p]
        if d != 1:
            # an explicit check, so it still runs under python -O
            if any(x % d for x in row):
                raise DomainError("saturation: inexact triangular solve")
            row = [x // d for x in row]
        s.append(row)
    return row_hnf(s)


# ---------------------------------------------------------------------------
# elimination


# The Mersenne prime of integer_rank, and the bound on the numerators and
# denominators that its kernel lifts reconstruct: 2 _LIFT^2 < _P, so a
# lift is unique when it exists.
_P = (1 << 31) - 1
_LIFT = isqrt(_P // 2)


def integer_rank(rows):
    """Rank of an m x n integer matrix, certified in each direction.

    One forward elimination modulo the Mersenne prime p = 2^31 - 1 on
    packed rows (see _echelon_mod_p) finds r pivots.  A row takes at most
    one row operation per pivot, at most min(m, n), so slots
    w = 8 ceil((63 + bit_length(min(m, n))) / 8) bits wide never overflow.

    - Lower bound: the pivot rows and columns give an r x r minor that is
      nonzero mod p, so it is nonzero over Z and the rank is at least r.
      When r = min(m, n) that is the answer; the elimination stops there.
    - Upper bound: otherwise the n - r kernel vectors mod p, each 1 at its
      free column and 0 at the other free columns, are lifted by rational
      reconstruction, their denominators cleared, and M k = 0 is checked
      exactly in integers (see _kernel_certifies).  They are independent
      by their free columns, so the rank is at most r.

    When a lift or a check fails, the rank is the exact Bareiss rank of the
    rows.  Every check is an explicit if, so it still runs under python -O.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    if not (m and n):
        return 0
    width = (70 + min(m, n).bit_length()) // 8
    codec = Struct("<" + "Q%dx" % (width - 8) * n)
    pivots, echelon = _echelon_mod_p(rows, codec, 8 * width)
    if len(pivots) == min(m, n) or _kernel_certifies(rows, pivots, echelon, codec):
        return len(pivots)
    return len(_bareiss(rows)[1])


def _echelon_mod_p(a, codec, w):
    """Forward elimination of the integer rows a modulo _P on packed rows:
    (pivot columns, echelon rows).

    Each row is one int of n slots, w bits each, holding nonnegative
    representatives of its entries mod p, so a row operation is one
    multiply-add of two ints, row + f * top with f < p, and reading a slot
    is a mask and a % p.  Once column c is eliminated every live row is
    shifted right by w, so slot 0 always holds the current column, and
    each echelon row is kept with slot 0 at its pivot column.

    A pivot row is folded slot by slot before use: 2^31 = 1 mod p, so a
    slot lo + 2^31 hi becomes lo + hi, and two folds bring a slot below 2^w
    under 2^32 while w <= 93.  One operation then adds below
    2^31 * 2^32 = 2^63 to a slot, and a row takes at most one per pivot,
    at most K = min(m, n), so its slots stay below
    p + K 2^63 < 2^(63 + bit_length(K)) <= 2^w: no slot overflows into the
    next.  The w of integer_rank is at most 88 for K < 2^25, that is for
    any matrix that fits in memory.
    """
    n = len(a[0])
    mask = (1 << w) - 1
    unit = ((1 << w * n) - 1) // mask
    low, high = _P * unit, ((1 << w - 31) - 1) * unit
    live = [int.from_bytes(codec.pack(*[x % _P for x in row]), "little") for row in a]
    pivots, echelon = [], []
    for c in range(n):
        res = [(row & mask) % _P for row in live]
        for k, x in enumerate(res):
            if x:
                break
        else:
            live = [row >> w for row in live]
            continue
        del res[k]
        top = live.pop(k)
        top = (top & low) + (top >> 31 & high)
        top = (top & low) + (top >> 31 & high)
        neg = _P - pow(x, -1, _P)
        pivots.append(c)
        echelon.append(top)
        if len(pivots) == n or not live:
            break
        live = [(row + x * neg % _P * top if x else row) >> w for row, x in zip(live, res)]
    return pivots, echelon


def _kernel_certifies(a, pivots, echelon, codec):
    """Whether the kernel of the rows a mod p lifts to integer vectors k
    with a k = 0, one for each column that is not in pivots.

    The echelon rows of _echelon_mod_p are unpacked once; their slots are
    below 2^32, so each is read whole.  The vector that is 1 at the free
    column fc and 0 at the other free columns has, by back substitution,
        x[p_i] = -(row_i[fc] + sum over j > i of row_i[p_j] x[p_j]) / row_i[p_i]
    mod p at the pivot columns p_i.  Each entry is lifted by rational
    reconstruction (see _lift), the denominators are cleared, and a k = 0
    is checked in integers.
    """
    n, r = len(a[0]), len(pivots)
    rows = [codec.unpack(row.to_bytes(codec.size, "little")) for row in echelon]
    inverse = [pow(row[0], -1, _P) for row in rows]
    coef = [[row[pj - pc] for pj in pivots[i + 1:]] for i, (row, pc) in enumerate(zip(rows, pivots))]
    for fc in (c for c in range(n) if c not in pivots):
        x = [0] * r
        for i in range(r - 1, -1, -1):
            pc = pivots[i]
            head = rows[i][fc - pc] if fc > pc else 0
            x[i] = -(head + sum(map(mul, coef[i], x[i + 1:]))) * inverse[i] % _P
        lifts = [_lift(v) for v in x]
        if None in lifts:
            return False
        den = lcm(*(d for _, d in lifts))
        k = [0] * n
        k[fc] = den
        for pc, (num, d) in zip(pivots, lifts):
            k[pc] = num * (den // d)
        if any(sum(map(mul, row, k)) for row in a):
            return False
    return True


def _lift(x):
    """(num, den) with |num|, den <= _LIFT and num = x den mod p, or None
    if no such fraction exists: rational reconstruction by the half
    extended Euclidean algorithm (Wang, Guy and Davenport, 1982).  Each
    step keeps r = t x mod p, and the first remainder r <= _LIFT is the
    only candidate."""
    r0, r1, t0, t1 = _P, x, 0, 1
    while r1 > _LIFT:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if abs(t1) > _LIFT:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def rational_rank(rows):
    """Rank of a rational matrix: one positive factor changes no rank."""
    return integer_rank(clear_denominators(rows)[0])


def integer_det(rows):
    """Determinant of a square integer matrix by Bareiss elimination."""
    if any(len(r) != len(rows) for r in rows):
        raise DomainError("determinant of a non-square matrix")
    _, pivots, last = _bareiss(rows)
    return last if len(pivots) == len(rows) else 0


def _bareiss(rows):
    """Forward fraction-free elimination (Bareiss, Math. Comp. 22, 1968;
    Cohen, GTM 138, 2.2): returns (rows, pivot columns, last pivot).

    After k pivots every live entry is a (k+1)-minor of the input, so the
    division by the previous pivot is exact and entry sizes stay
    polynomial; only ints and exact // are used.  Each row swap negates the
    row moved down, so the last pivot of a nonsingular square matrix is its
    determinant, sign included.  Below the pivot row every column up to
    the pivot's is zero, so only the columns right of it are updated.

    Rescaling is lazy.  The eager step at pivot p turns a row with 0 in the
    pivot column into p x / prev; here that row is left as it is, stamped
    with the pivot s it is current with.  The per-step factors telescope,
    so its eager value is x prev / s, an integer, and catching up is the
    one exact division x prev // s.  The eager update (p x - f y) / prev of
    the caught-up row is (p x - f y) / s on the stamped row, exact because
    the eager result is an integer, so a row with f != 0 catches up within
    its update.  The pivot row catches up before its pivot is read and is
    final once chosen, and the rows below the last pivot row end zero, so
    the result is the eager one.
    """
    a = list(rows)
    m = len(a)
    n = len(a[0]) if m else 0
    stamp = [1] * m
    pivots, prev = [], 1
    for c in range(n):
        rank = len(pivots)
        if rank == m:
            break
        piv = next((i for i in range(rank, m) if a[i][c]), None)
        if piv is None:
            continue
        top, s = a[piv], stamp[piv]
        if s != prev:
            top = [x * prev // s for x in top]
        if piv != rank:
            a[piv], stamp[piv] = [-x for x in a[rank]], stamp[rank]
        a[rank] = top
        p = top[c]
        zeros, tail = [0] * (c + 1), top[c + 1:]
        for i in range(rank + 1, m):
            row = a[i]
            f = row[c]
            if f:
                s = stamp[i]
                a[i] = zeros + [(p * x - f * y) // s for x, y in zip(row[c + 1:], tail)]
                stamp[i] = p
        prev = p
        pivots.append(c)
    return a, pivots, prev


def rational_kernel(rows, width=None):
    """Basis of the rational null space {x : A x = 0} as Fraction vectors,
    one per free column (see _kernel_vector); no rows means the zero map on
    width coordinates."""
    if not rows:
        if width is None:
            raise DomainError("kernel of an empty matrix needs an explicit width")
        rows = [[0] * width]
    a, pivots, d = _bareiss(clear_denominators(rows)[0])
    tri = [[a[i][pc] for pc in pivots] for i in range(len(pivots))]
    return [_kernel_vector(a, tri, pivots, d, fc) for fc in range(len(rows[0])) if fc not in pivots]


def _kernel_vector(a, tri, pivots, d, fc):
    """The unique kernel vector x that is 1 at the free column fc and 0 at
    the other free columns, from the echelon rows a, pivot columns pivots
    and last pivot d of _bareiss, with tri[i] the entries of a[i] at the
    pivot columns.

    x is read off the rows a_i (pivot columns p_0 < ... < p_(r-1)) from the
    bottom up.  d is, up to sign, the minor of the cleared rows taken as
    pivot rows on the pivot columns, so y = d x is integral (Cramer), and
    y[p_i] = -(d a_i[fc] + sum over j > i of a_i[p_j] y[p_j]) / a_i[p_i]
    divides exactly, its quotient being the integer y[p_i].  The division
    is checked explicitly, so the check still runs under python -O.
    """
    x = [Fraction(0)] * len(a[0])
    x[fc] = Fraction(1)
    y = [0] * len(pivots)
    for i in range(len(pivots) - 1, -1, -1):
        q, rem = divmod(-d * a[i][fc] - sum(map(mul, tri[i], y)), tri[i][i])
        if rem:
            raise DomainError("rational kernel: inexact back substitution")
        y[i] = q
        x[pivots[i]] = Fraction(q, d)
    return x


def rational_solve(rows, rhs):
    """Solve A x = rhs exactly; raises DomainError if inconsistent.

    The kernel vector of [A | -rhs] for its last column n is 1 there and 0
    at the free variables of A: the solution with those set to zero.  When
    column n is a pivot, every kernel vector is 0 there: no solution.
    """
    if len(rhs) != len(rows):
        raise DomainError("right-hand side length does not match the rows")
    n = len(rows[0]) if rows else 0
    aug = [list(r) + [-b] for r, b in zip(rows, rhs)] or [[0]]
    a, pivots, d = _bareiss(clear_denominators(aug)[0])
    if n in pivots:
        raise DomainError("inconsistent linear system")
    tri = [[a[i][pc] for pc in pivots] for i in range(len(pivots))]
    return _kernel_vector(a, tri, pivots, d, n)[:n]

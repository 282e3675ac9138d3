"""Integral symplectic lattices: saturation, determinants and normal forms
of the restricted form, and constructive transitivity of Sp(2g, Z) on
complete sublattices.

Ambient is Z^(2g) with basis ordered e0, f0, e1, f1, ... and the standard
form pairing e_i with f_i.  Sublattices are given by integer generator
vectors; the Hermite form of the generators is the canonical representative.
"""

from __future__ import annotations

from math import gcd, isqrt
from operator import mul

from .errors import DomainError
from .intlinalg import (
    _hermite,
    identity,
    integer_det,
    is_zero_vec,
    mat_eq,
    mat_mul,
    mat_vec,
    integer_rank,
    row_hnf,
    saturate_rows,
    transpose,
    vec_gcd,
)


def omega(u, v):
    """Standard symplectic pairing, generic over the coefficient ring."""
    total = 0
    for k in range(0, len(u), 2):
        total = total + u[k] * v[k + 1] - u[k + 1] * v[k]
    return total


def is_indivisible(v) -> bool:
    """True when v is primitive: the gcd of its coordinates is 1."""
    return vec_gcd([int(x) for x in v]) == 1


class Sublattice:
    """A finite-rank sublattice of Z^(2g) with the standard form, given by
    generator vectors; genus defaults to half the vector length.

    The generators must be independent.  Rows in echelon form, with no zero
    row and leading columns strictly increasing, are independent by their
    shape, so only other inputs pay for the certified integer_rank.
    """

    def __init__(self, vectors, genus=None):
        vectors = [tuple(int(x) for x in v) for v in vectors]
        if not vectors:
            raise DomainError("sublattice needs at least one generator")
        n = len(vectors[0])
        if any(len(v) != n for v in vectors):
            raise DomainError("generators have mixed lengths")
        if n % 2 != 0 or n < 2:
            raise DomainError("ambient dimension must be even and positive")
        if genus is None:
            genus = n // 2
        elif genus < 1:
            raise DomainError("genus must be at least 1")
        if 2 * genus != n:
            raise DomainError("generators do not match the ambient dimension")
        if not _is_echelon(vectors) and integer_rank(vectors) != len(vectors):
            raise DomainError("generators are linearly dependent")
        self.genus = genus
        self.vectors = vectors

    @property
    def rank(self) -> int:
        return len(self.vectors)

    def hnf(self):
        """Canonical Hermite-form generators of this lattice."""
        return row_hnf(list(map(list, self.vectors)))

    def same_lattice(self, other: "Sublattice") -> bool:
        return self.genus == other.genus and mat_eq(self.hnf(), other.hnf())

    def gram_matrix(self):
        vs = self.vectors
        return mat_mul(vs, _j_times(transpose(vs)))

    def __repr__(self):
        return "Sublattice(genus=%d, rank=%d)" % (self.genus, self.rank)


def _is_echelon(rows) -> bool:
    """True when no row is zero and the leading columns strictly increase."""
    lead = -1
    for row in rows:
        k = next((k for k, x in enumerate(row) if x), None)
        if k is None or k <= lead:
            return False
        lead = k
    return True


def saturate(lattice: Sublattice) -> Sublattice:
    """Smallest sublattice containing the input with torsion-free quotient."""
    sat = saturate_rows(list(map(list, lattice.vectors)), 2 * lattice.genus)
    return Sublattice(sat, genus=lattice.genus)


def is_complete(lattice: Sublattice) -> bool:
    """True when the lattice is saturated, equal to its saturation.

    That holds exactly when the maximal minors of the generators have gcd 1,
    that is, when their columns span Z^rank, so one Hermite form of the
    transpose decides it.  The Sp(2g, Z) maps do not call it on inputs
    they can reduce: the refusals of _reduce_pair decide completeness
    there, and a map asks this test only after a reduction has refused,
    to name the cause.
    """
    return mat_eq(row_hnf(transpose(lattice.vectors)), identity(lattice.rank))


def determinant(lattice: Sublattice) -> int:
    """Product of the divisors of the restricted form, which is |Pfaffian| of
    its Gram matrix; rank must be even and the restriction nondegenerate.

    The square root of the Gram determinant, which one Bareiss elimination
    gives in polynomial time.
    """
    if lattice.rank % 2 != 0:
        raise DomainError("not symplectic sublattice: odd rank")
    square = integer_det(lattice.gram_matrix())
    if square == 0:
        raise DomainError("not symplectic sublattice: degenerate restriction")
    root = isqrt(abs(square))
    if root * root != square:
        raise DomainError("Gram determinant of an alternating form is not a square")
    return root


class NormalForm:
    """Result of alternating_normal_form: divisors, adapted basis, change."""

    def __init__(self, divisors, basis, change):
        self.divisors = divisors
        self.basis = basis
        self.change = change


def alternating_normal_form(lattice: Sublattice) -> NormalForm:
    """Adapted basis with Gram of blocks [[0, d_i], [-d_i, 0]], d_1 | d_2 | ...

    The product of the divisors equals the determinant.  The change matrix C
    satisfies new_vectors = C * old_vectors (acting on generator rows): the
    identity rides along with the generators through _split_pair, and C is
    read off its columns.
    """
    if lattice.rank % 2 != 0:
        raise DomainError("degenerate restriction: odd rank")
    n = 2 * lattice.genus
    rest = [list(v) + e for v, e in zip(lattice.vectors, identity(lattice.rank))]
    divisors, rows = [], []
    while rest:
        d, a, b, rest = _split_pair(rest, n)
        divisors.append(d)
        rows += [a, b]
    # an explicit check, so it still runs under python -O
    if any(q % p for p, q in zip(divisors, divisors[1:])):
        raise DomainError("divisor chain broken")
    basis = Sublattice([r[:n] for r in rows], genus=lattice.genus)
    return NormalForm(divisors, basis, [r[n:] for r in rows])


def _split_pair(rows, n=None):
    """Split one hyperbolic pair off the rows: returns (d, a, b, rest).

    Only the first n entries of each row are paired; later columns ride
    along with every row operation.  d is the gcd of all pairings, and
    omega(a, b) = d while the rest pairs to 0 with a and b, so every pairing
    left in the rest is a multiple of d.

    Let a be the first row of least content c, the gcd of its pairings.  The
    Hermite transform of a's pairing column brings a partner b with
    omega(a, b) = c to the top and leaves the other rows orthogonal to a;
    subtracting (omega(r, b) // c) * a from each brings omega(r, b) into
    [0, c).  When c = d every pairing is a multiple of c, so the rest is
    orthogonal to the pair.  Otherwise either some omega(r, b) is a nonzero
    remainder below c, or the rest is orthogonal to the pair and some
    omega(r, s) is not a multiple of c, and then a + r pairs to c with b and
    to omega(r, s) with s.  Either way a row of content below c is put back
    and the step repeats; the least content falls strictly each time, so the
    loop ends.
    """
    n = len(rows[0]) if n is None else n
    while True:
        vs = [r[:n] for r in rows]
        jt = _j_times(transpose(vs))
        gram = []
        for v in vs:
            gram += mat_mul([v], jt)
            if vec_gcd(gram[-1]) == 1:
                break  # no content is smaller, and then d = 1
        contents = [vec_gcd(row) for row in gram]
        d = vec_gcd(contents)
        if d == 0:
            raise DomainError("degenerate restriction")
        c = min(x for x in contents if x)
        i = contents.index(c)
        a = rows[i]
        # the Hermite form of a's pairing column, the other rows riding along
        col = [[x] + r for x, r in zip(gram[i][:i] + gram[i][i + 1 :], rows[:i] + rows[i + 1 :])]
        others = [r[1:] for r in _hermite(col, 1)]
        b = others[0]
        rest = []
        for r in others[1:]:
            q = omega(r[:n], b) // c
            rest.append([x - q * y for x, y in zip(r, a)])
        if c == d:
            return d, a, b, rest
        if not any(omega(r[:n], b) for r in rest):
            k = next(k for k, r in enumerate(rest) if any(omega(r[:n], s) % c for s in rest))
            rest[k] = [x + y for x, y in zip(rest[k], a)]
        rows = [a, b] + rest


def _j_times(rows):
    """J * rows for the standard form: a signed swap of each row pair."""
    out = []
    for k in range(0, len(rows), 2):
        out.append(list(rows[k + 1]))
        out.append([-x for x in rows[k]])
    return out


class SpMatrix:
    """An element of Sp(2g, Z) for the standard form, acting on columns.

    The public constructor checks E^T J E = J on every matrix built from raw
    entries: user input, the extension of extend_to_symplectic_basis, each
    canonical reduction of _reduce_to_canonical, and the matrix
    map_rank2_sublattice / map_rank4_sublattice return.  The row operations
    that build an extension or a reduction are checked only through that
    result.  Entry (i, k) of E^T J E is omega(E_i, E_k) for the columns
    E_i, so for every integer E the product is alternating, like J: its
    diagonal is zero and its lower triangle is minus its upper one.
    Checking the strict upper triangle is therefore the whole identity, at
    half the work.  Products and inverses of members stay in Sp(2g, Z)
    because it is a group, so compose and inverse build through _trusted
    and skip the check.
    """

    def __init__(self, entries):
        entries = [[int(x) for x in row] for row in entries]
        n = len(entries)
        if n % 2 != 0 or n < 2 or any(len(r) != n for r in entries):
            raise DomainError("symplectic matrix must be square of even size")
        self.genus = n // 2
        cols = transpose(entries)
        jcols = transpose(_j_times(entries))
        for i in range(n - 1):
            # omega(E_i, E_k) for k > i; J has 1 at k = i + 1 for even i, else 0
            upper = [sum(map(mul, cols[i], jc)) for jc in jcols[i + 1 :]]
            if upper[0] != 1 - i % 2 or any(upper[1:]):
                raise DomainError("matrix does not preserve the symplectic form")
        self.entries = entries

    @classmethod
    def _trusted(cls, entries):
        """Wrap entries already known to lie in Sp(2g, Z), without a check."""
        m = cls.__new__(cls)
        m.genus = len(entries) // 2
        m.entries = entries
        return m

    def apply(self, v):
        v = [int(x) for x in v]
        if len(v) != 2 * self.genus:
            raise DomainError("vector length does not match the matrix")
        return mat_vec(self.entries, v)

    def apply_lattice(self, lattice: Sublattice) -> Sublattice:
        if lattice.genus != self.genus:
            raise DomainError("lattice does not live in this matrix's space")
        return Sublattice([self.apply(v) for v in lattice.vectors], genus=self.genus)

    def compose(self, other: "SpMatrix") -> "SpMatrix":
        """self after other (matrix product self * other)."""
        return SpMatrix._trusted(mat_mul(self.entries, other.entries))

    def inverse(self) -> "SpMatrix":
        # A^-1 = -J A^T J = J (J A)^T for the standard form (J^T = -J)
        return SpMatrix._trusted(_j_times(transpose(_j_times(self.entries))))

    def __eq__(self, other):
        return isinstance(other, SpMatrix) and mat_eq(self.entries, other.entries)

    def __repr__(self):
        return "SpMatrix(genus=%d)" % self.genus


def extend_to_symplectic_basis(v, genus=None) -> SpMatrix:
    """Symplectic matrix whose first column is the primitive vector v.

    Constructive transitivity of Sp(2g, Z) on primitive vectors: the
    elementary moves of _moves_to_e0 give A with A v = e0, and the answer
    is A^-1 = J (J A)^T, built through the checked constructor.
    """
    v = [int(x) for x in v]
    n = len(v)
    if genus is not None and n != 2 * genus:
        raise DomainError("vector length does not match genus")
    if n % 2 != 0 or n < 2:
        raise DomainError("vector length must be even and positive")
    if not is_indivisible(v):
        raise DomainError("vector not primitive")
    a = SpMatrix(_j_times(transpose(_j_times(_moves_to_e0(v)))))
    # an explicit check, so it still runs under python -O
    if [row[0] for row in a.entries] != v:
        raise DomainError("extension does not start with the vector")
    return a


def _moves_to_e0(v, a=None):
    """A in Sp(2g, Z) with A v = e0 for a primitive v, by elementary
    symplectic moves (Newman, Integral Matrices, 1972, ch. VII); given 2g
    rows a of any width, the product A a instead.

    Each move is a row operation applied both to the rows, the identity by
    default, and to a working copy u of v; coordinates pair as
    (a_p, b_p) = (u[2p], u[2p + 1]).  Euclid by SL2 shears leaves one
    nonzero entry in each pair, and a quarter turn (a, b) -> (b, -a) puts
    pair 0's at a_0.  The nonzero entry c of each later pair j is then
    folded into a_0 by Euclid with the cross moves
    a_j += k a_0, b_0 -= k b_j;  b_j += k a_0, b_0 += k a_j;
    a_0 += k a_j, b_j -= k b_0;  a_0 += k b_j, a_j += k b_0,
    each symplectic and each leaving b_0 = 0 in u.  An empty pair 0 is
    swapped with pair j instead.  u ends as (+-1) e0, and negating pair 0
    fixes the sign.  The rows are replaced, never changed in place, and the
    list given is left as it is.
    """
    u = list(v)
    n = len(u)
    a = identity(n) if a is None else list(a)

    def add(i, k, j):
        u[i] += k * u[j]
        a[i] = [x + k * y for x, y in zip(a[i], a[j])]

    def settle_pair0():
        if u[1]:
            u[0], u[1] = u[1], -u[0]
            a[0], a[1] = a[1], [-x for x in a[0]]

    for p in range(0, n, 2):
        while u[p] and u[p + 1]:
            if abs(u[p + 1]) >= abs(u[p]):
                add(p + 1, -(u[p + 1] // u[p]), p)
            else:
                add(p, -(u[p] // u[p + 1]), p + 1)
    settle_pair0()
    for j in range(2, n, 2):
        i = j if u[j] else j + 1
        # the other entry of pair j, and the sign of its correction
        partner, sign = (j + 1, -1) if i == j else (j, 1)
        while u[i]:
            if not u[0]:
                u[:2], u[j : j + 2] = u[j : j + 2], u[:2]
                a[:2], a[j : j + 2] = a[j : j + 2], a[:2]
                settle_pair0()
            elif abs(u[i]) >= abs(u[0]):
                k = -(u[i] // u[0])
                add(i, k, 0)
                add(1, sign * k, partner)
            else:
                k = -(u[0] // u[i])
                add(0, k, i)
                add(partner, sign * k, 1)
    if u[0] == -1:
        a[0], a[1] = [-x for x in a[0]], [-x for x in a[1]]
    return a


def _canonical_rank2(d: int, genus: int) -> Sublattice:
    n = 2 * genus
    e0 = [1] + [0] * (n - 1)
    if d == 1:
        f0 = [0, 1] + [0] * (n - 2)
        return Sublattice([e0, f0])
    y = [0] * n
    y[1] = d
    y[2] = 1
    return Sublattice([e0, y])


def _reduce_pair(a, lo: int, x, y, d: int):
    """Row operations on rows lo.. of a, the 2g x 2g reduction so far, after
    which a takes span(x, y) onto the canonical lattice of d in the
    coordinates from lo on, with basis e0, f0, e1, f1, ... there.  The pair
    is adapted, omega(x, y) = d > 0, and its image under a vanishes before
    lo; an incomplete pair is refused.

    Follows the quotient construction: the moves of _moves_to_e0 take x to
    e0, and those of the residue of y in the quotient e0-perp / e0, m times
    a primitive vector, take it to m*e1 on the rows after f0.  Unless
    m = 1 (mod d), the SL2 step sends e1, f1 to the columns of the inverse
    of the moves of (t, d), m*t = 1 (mod d), which turns m*e1 into
    m'*e1 + m*d*f1, m' = m*t; otherwise m' = m.  A shear fixing e0 and
    sending f0 to f0 + w ends it: w = -k*e1 with k = (m' - 1) // d (k = m at
    d = 1), minus m*f1 after the SL2 step, leaves d*f0 + e1 (f0 at d = 1).

    The refusals decide completeness exactly.  An imprimitive x is never in
    a saturated lattice; once x is at e0, the pair spans a saturated lattice
    iff the 2 x 2 minors of (e0, y1) have gcd 1, that is gcd(d, m) = 1, with
    m = 0 when there is no residue.  The result is checked on the images
    x', y' from column lo on: x' = e0 and y' agrees with c, the second row
    of _canonical_rank2, past its first entry.  As omega(x', y') = d =
    omega(e0, c), that holds iff x' = e0 and span(x', y') = span(e0, c),
    which is stricter than comparing the two lattices.
    """
    xl = mat_vec(a, x)[lo:]
    # explicit checks, so they still run under python -O
    if not is_indivisible(xl):
        raise DomainError("adapted basis of a complete lattice is primitive")
    a[lo:] = _moves_to_e0(xl, a[lo:])
    if mat_vec(a, x) != [0] * lo + [1] + [0] * (len(xl) - 1):
        raise DomainError("the moves do not send the vector to e0")
    y1 = mat_vec(a, y)[lo:]
    if y1[1] != d:
        raise DomainError("pairing with e0 must equal the divisor")
    z = y1[2:]
    if is_zero_vec(z):
        if d != 1:
            raise DomainError("sublattice not complete")
        return
    m = vec_gcd(z)
    if gcd(m, d) != 1:
        raise DomainError("sublattice not complete")
    a[lo + 2 :] = _moves_to_e0([t // m for t in z], a[lo + 2 :])
    # the moved lattice is span{e0, d*f0 + m*e1 (mod e0)}
    e1, f1 = a[lo + 2 : lo + 4]
    w1 = 0
    if m % d > 1:
        t = pow(m, -1, d)
        # the inverse of an SL2 matrix is its adjugate
        (p, q), (r, s) = _moves_to_e0([t, d])
        e1, f1 = ([s * i - q * j for i, j in zip(e1, f1)],
                  [p * j - r * i for i, j in zip(e1, f1)])
        m, w1 = m * t, -m
    w0 = -((m - (d > 1)) // d)
    f0 = a[lo + 1]
    a[lo] = [i - w1 * j + w0 * k for i, j, k in zip(a[lo], e1, f1)]
    a[lo + 2] = [i + w0 * j for i, j in zip(e1, f0)]
    a[lo + 3] = [i + w1 * j for i, j in zip(f1, f0)]
    xl, yl = mat_vec(a, x)[lo:], mat_vec(a, y)[lo:]
    c = _canonical_rank2(d, len(xl) // 2).vectors[1]
    if xl[0] != 1 or any(xl[1:]) or yl[1:] != list(c[1:]):
        raise DomainError("canonical reduction failed")


def _reduce_to_canonical(lattice: Sublattice) -> SpMatrix:
    """R in Sp(2g, Z) mapping the complete rank-2 or rank-4 input onto the
    canonical lattice of its divisors.

    R is one matrix, from the identity by row operations, and is checked
    once at the end.  One normal form gives the adapted pairs, and
    _reduce_pair takes the first onto the canonical lattice of its divisor.
    A second pair needs that divisor to be 1, so the first lands on
    span(e0, f0) and the second in its complement, where _reduce_pair
    reduces it by operations on rows 2.. only, which fix e0 and f0.

    Completeness is not tested up front: _reduce_pair refuses an incomplete
    pair.  At rank 4 the first pair is unimodular, so it is complete and
    splits off the ambient; the lattice is then complete iff its second
    pair is complete in the complement of e0, f0, which the second call
    decides.
    """
    g = lattice.genus
    nf = alternating_normal_form(lattice)
    x, y, *second = nf.basis.vectors
    # explicit checks, so they still run under python -O
    if second and nf.divisors[0] != 1:
        raise DomainError("restriction not indivisible: divisors %d, %d; rank-4 maps support "
                          "only the orbit with first divisor 1" % tuple(nf.divisors))
    a = identity(2 * g)
    _reduce_pair(a, 0, x, y, nf.divisors[0])
    if second:
        x2, y2 = (mat_vec(a, v) for v in second)
        if any(x2[:2]) or any(y2[:2]):
            raise DomainError("second factor must land in the complement of e0, f0")
        _reduce_pair(a, 2, *second, nf.divisors[1])
    return SpMatrix(a)


def _map_sublattice(u: Sublattice, u2: Sublattice, rank: int) -> SpMatrix:
    if u.genus != u2.genus:
        raise DomainError("sublattices live in different ambients")
    if u.rank != rank or u2.rank != rank:
        raise DomainError("expected rank-%d sublattices" % rank)
    d1 = determinant(u)
    d2 = determinant(u2)
    if d1 != d2:
        raise DomainError("unequal determinants: %d vs %d" % (d1, d2))
    # the reductions refuse every incomplete input; only then is the
    # completeness test run, so that the refusal names the cause
    try:
        r1 = _reduce_to_canonical(u)
        r2 = _reduce_to_canonical(u2)
    except DomainError:
        if not is_complete(u) or not is_complete(u2):
            raise DomainError("sublattice not complete") from None
        raise
    # SpMatrix revalidates the product and the image is compared explicitly,
    # so both checks still run under python -O
    delta = SpMatrix(r2.inverse().compose(r1).entries)
    if not delta.apply_lattice(u).same_lattice(u2):
        raise DomainError("rank-%d mapping failed" % rank)
    return delta


def map_rank2_sublattice(u: Sublattice, u2: Sublattice) -> SpMatrix:
    """An integral symplectic matrix sending the first complete rank-2
    sublattice onto the second; equal determinants required."""
    return _map_sublattice(u, u2, 2)


def map_rank4_sublattice(u: Sublattice, u2: Sublattice) -> SpMatrix:
    """Same as map_rank2_sublattice for complete rank-4 sublattices, via the
    splitting into a unimodular factor and a d-scaled factor."""
    return _map_sublattice(u, u2, 4)

"""Integral symplectic lattices: saturation, determinants and normal forms
of the restricted form, and constructive transitivity of Sp(2g, Z) on
complete sublattices.

Ambient is Z^(2g) with basis ordered e0, f0, e1, f1, ... and the standard
form pairing e_i with f_i.  Sublattices are given by integer generator
vectors; the Hermite form of the generators is the canonical representative.
"""

from __future__ import annotations

from math import gcd, prod

from .errors import DomainError
from .intlinalg import (
    bezout_vector,
    identity,
    integer_kernel,
    is_zero_vec,
    lll_reduce,
    mat_eq,
    mat_mul,
    mat_vec,
    integer_rank,
    rational_solve,
    row_hnf,
    row_hnf_transform,
    saturate_rows,
    transpose,
    vec_gcd,
)


def standard_gram(genus: int):
    """Gram matrix of the standard symplectic form, g blocks [[0,1],[-1,0]]."""
    if genus < 1:
        raise DomainError("genus must be at least 1")
    n = 2 * genus
    j = [[0] * n for _ in range(n)]
    for i in range(genus):
        j[2 * i][2 * i + 1] = 1
        j[2 * i + 1][2 * i] = -1
    return j


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
    generator vectors; genus defaults to half the vector length."""

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
        if integer_rank(vectors) != len(vectors):
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
        return [[omega(u, v) for v in vs] for u in vs]

    def contains(self, v) -> bool:
        if len(v) != 2 * self.genus:
            raise DomainError("vector length does not match the ambient dimension")
        try:
            sol = rational_solve(transpose(self.vectors), v)
        except DomainError:
            return False
        return all(c.denominator == 1 for c in sol)

    def __repr__(self):
        return "Sublattice(genus=%d, rank=%d)" % (self.genus, self.rank)


def saturate(lattice: Sublattice) -> Sublattice:
    """Smallest sublattice containing the input with torsion-free quotient."""
    sat = saturate_rows(list(map(list, lattice.vectors)), 2 * lattice.genus)
    return Sublattice(sat, genus=lattice.genus)


def is_complete(lattice: Sublattice) -> bool:
    """True when the lattice is saturated, equal to its saturation.

    That holds exactly when the maximal minors of the generators have gcd 1,
    that is, when their columns span Z^rank, so one Hermite form of the
    transpose decides it.
    """
    return mat_eq(row_hnf(transpose(lattice.vectors)), identity(lattice.rank))


def determinant(lattice: Sublattice) -> int:
    """Product of the divisors of the restricted form, which is |Pfaffian| of
    its Gram matrix; rank must be even and the restriction nondegenerate.

    Read off the alternating normal form, so it costs polynomial time.
    """
    if lattice.rank % 2 != 0:
        raise DomainError("not symplectic sublattice: odd rank")
    try:
        divisors, _ = _alternating_reduce(lattice.gram_matrix(), with_change=False)
    except DomainError:
        raise DomainError("not symplectic sublattice: degenerate restriction") from None
    return prod(divisors)


class NormalForm:
    """Result of alternating_normal_form: divisors, adapted basis, change."""

    def __init__(self, divisors, basis, change):
        self.divisors = divisors
        self.basis = basis
        self.change = change


def alternating_normal_form(lattice: Sublattice) -> NormalForm:
    """Adapted basis with Gram of blocks [[0, d_i], [-d_i, 0]], d_1 | d_2 | ...

    The product of the divisors equals the determinant.  The change matrix C
    satisfies new_vectors = C * old_vectors (acting on generator rows).
    """
    if lattice.rank % 2 != 0:
        raise DomainError("degenerate restriction: odd rank")
    gram = lattice.gram_matrix()
    divisors, change = _alternating_reduce(gram)
    new_vectors = mat_mul(change, list(map(list, lattice.vectors)))
    basis = Sublattice(new_vectors, genus=lattice.genus)
    return NormalForm(divisors, basis, change)


def _alternating_reduce(gram, with_change=True):
    """Congruence-reduce an antisymmetric integer matrix to divisor blocks.

    Returns (divisors, C) with C unimodular and C*G*C^T in block form, or
    (divisors, None) without with_change.  Basis bookkeeping:
    new_i = sum_j C[i][j] old_j.
    """
    g = [list(row) for row in gram]
    r = len(g)
    c = identity(r) if with_change else None

    def add(j, k, q):
        # basis_j += q * basis_k
        g[j] = [x + q * y for x, y in zip(g[j], g[k])]
        for i in range(r):
            g[i][j] += q * g[i][k]
        if c is not None:
            c[j] = [x + q * y for x, y in zip(c[j], c[k])]

    def swap(j, k):
        if j == k:
            return
        g[j], g[k] = g[k], g[j]
        for row in g:
            row[j], row[k] = row[k], row[j]
        if c is not None:
            c[j], c[k] = c[k], c[j]

    def negate(j):
        g[j] = [-x for x in g[j]]
        for row in g:
            row[j] = -row[j]
        if c is not None:
            c[j] = [-x for x in c[j]]

    divisors = []
    s = 0
    while s < r:
        best = None
        for i in range(s, r):
            for j in range(s, r):
                if g[i][j] != 0 and (
                    best is None or abs(g[i][j]) < abs(g[best[0]][best[1]])
                ):
                    best = (i, j)
        if best is None:
            raise DomainError("degenerate restriction")
        i, j = best
        swap(s, i)
        if j == s:
            j = i
        swap(s + 1, j)
        if g[s][s + 1] < 0:
            negate(s + 1)
        p = g[s][s + 1]
        for j2 in range(s + 2, r):
            q = g[s][j2] // p
            if q:
                add(j2, s + 1, -q)
            q = g[s + 1][j2] // p
            if q:
                add(j2, s, q)
        if any(g[s][j2] or g[s + 1][j2] for j2 in range(s + 2, r)):
            continue  # a remainder smaller than the pivot appeared
        bad = None
        for i2 in range(s + 2, r):
            for j2 in range(i2 + 1, r):
                if g[i2][j2] % p != 0:
                    bad = i2
                    break
            if bad is not None:
                break
        if bad is not None:
            add(s, bad, 1)  # drag the offending row up, then rereduce
            continue
        divisors.append(p)
        s += 2
    for a, b in zip(divisors, divisors[1:]):
        assert b % a == 0, "divisor chain broken"
    return divisors, c


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
    entries: user input, extend_to_symplectic_basis, _shear, and the matrix
    map_rank2_sublattice / map_rank4_sublattice return.  Products, inverses,
    the identity and block embeddings of members stay in Sp(2g, Z) because
    it is a group, so compose, inverse, sp_identity and _embed_reduced build
    through _trusted and skip the check.
    """

    def __init__(self, entries):
        entries = [[int(x) for x in row] for row in entries]
        n = len(entries)
        if n % 2 != 0 or n < 2 or any(len(r) != n for r in entries):
            raise DomainError("symplectic matrix must be square of even size")
        self.genus = n // 2
        if not mat_eq(mat_mul(transpose(entries), _j_times(entries)), standard_gram(self.genus)):
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


def sp_identity(genus: int) -> SpMatrix:
    return SpMatrix._trusted(identity(2 * genus))


def extend_to_symplectic_basis(v, genus=None) -> SpMatrix:
    """Symplectic matrix whose first column is the primitive vector v.

    Constructive transitivity of Sp(2g, Z) on primitive vectors: a dual
    partner w with omega(v, w) = 1 comes from a Bezout combination, and the
    orthogonal complement of the hyperbolic pair, which carries a unimodular
    restriction, is split into standard pairs by _symplectic_complement.
    Its LLL steps keep the entries near the size of v.
    """
    v = [int(x) for x in v]
    n = len(v)
    if genus is not None and n != 2 * genus:
        raise DomainError("vector length does not match genus")
    if n % 2 != 0 or n < 2:
        raise DomainError("vector length must be even and positive")
    g = n // 2
    if not is_indivisible(v):
        raise DomainError("vector not primitive")
    j = standard_gram(g)
    cov = mat_vec(transpose(j), v)  # omega(v, x) = cov . x
    g0, w = bezout_vector(cov)
    if g0 != 1:
        raise DomainError("primitive vector has imprimitive pairing functional")
    comp = integer_kernel([cov, mat_vec(transpose(j), w)], n)
    entries = transpose([v, w] + _symplectic_complement(comp))
    a = SpMatrix(entries)
    assert [row[0] for row in a.entries] == v
    return a


def _symplectic_complement(rows):
    """Rows a1, b1, a2, b2, ... with standard Gram matrix spanning the same
    lattice as the given rows, whose Gram matrix must be unimodular.

    Symplectic Gram-Schmidt: the first row a takes as partner b the
    combination of the others that the Hermite transform of their pairing
    column [omega(a, r)] brings to the top, so omega(a, b) = 1 and the
    other transformed rows pair to 0 with a.  Subtracting omega(r, b) * a
    makes them orthogonal to b as well, and an LLL reduction of what is left
    keeps the sizes in check before the next pair.  Rows that already form
    standard pairs in LLL-reduced order come back unchanged.
    """
    out = []
    rest = [list(r) for r in rows]
    while rest:
        a, others = rest[0], rest[1:]
        pivot, u = row_hnf_transform([[omega(a, r)] for r in others])
        if not pivot or pivot[0][0] != 1:
            raise DomainError("complement is not unimodular")
        others = mat_mul(u, others)
        b = others[0]
        rest = lll_reduce([[x - omega(r, b) * y for x, y in zip(r, a)] for r in others[1:]])
        out += [a, b]
    return out


def _embed_reduced(m: SpMatrix, genus: int) -> SpMatrix:
    """Lift an Sp(2g-2, Z) matrix to Sp(2g, Z) fixing e0 and f0."""
    n = 2 * genus
    out = identity(n)
    for i in range(n - 2):
        for k in range(n - 2):
            out[i + 2][k + 2] = m.entries[i][k]
    return SpMatrix._trusted(out)


def _shear(xred, genus: int) -> SpMatrix:
    """Sp(2g, Z) fixing e0, sending f0 to f0 + x (x in the e0-f0 complement),
    and correcting the other basis vectors by multiples of e0."""
    n = 2 * genus
    x = [0, 0] + [int(t) for t in xred]
    if len(x) != n:
        raise DomainError("shear vector has wrong length")
    j = standard_gram(genus)
    jx = mat_vec(j, x)
    cols = []
    e0 = [1] + [0] * (n - 1)
    cols.append(e0)
    f0col = [0, 1] + list(x[2:])
    cols.append(f0col)
    for k in range(2, n):
        bk = [1 if i == k else 0 for i in range(n)]
        coef = jx[k]  # omega(b_k, x) = (J x)_k ... sign handled below
        col = [bi - coef * ei for bi, ei in zip(bk, e0)]
        cols.append(col)
    return SpMatrix(transpose(cols))


def _canonical_rank2(d: int, genus: int) -> Sublattice:
    n = 2 * genus
    e0 = [1] + [0] * (n - 1)
    if d == 1:
        f0 = [0, 1] + [0] * (n - 2)
        return Sublattice([e0, f0])
    if genus < 2:
        raise DomainError("determinant > 1 impossible at genus 1")
    y = [0] * n
    y[1] = d
    y[2] = 1
    return Sublattice([e0, y])


def _reduce_rank2_to_canonical(lattice: Sublattice):
    """Returns (R, d) with R in Sp(2g, Z) mapping the complete rank-2 input
    onto the canonical lattice of its determinant.

    Follows the quotient construction: an adapted basis x, y with
    omega(x, y) = d, x moved to e0, then the residue of y in the quotient
    e0-perp / e0 is normalized by Sp(2g-2, Z) together with a shear solving
    d*[x] + [A][u] = [u'].
    """
    g = lattice.genus
    nf = alternating_normal_form(lattice)
    d = nf.divisors[0]
    x, y = nf.basis.vectors
    assert is_indivisible(x), "adapted basis of a complete lattice is primitive"
    a1 = extend_to_symplectic_basis(x, g)
    r = a1.inverse()
    y1 = r.apply(y)
    assert y1[1] == d, "pairing with e0 must equal the divisor"
    z = list(y1[2:])
    if is_zero_vec(z):
        if d != 1:
            raise DomainError("sublattice not complete")
        return r, 1
    if g < 2:
        raise DomainError("unexpected residue at genus 1")
    m = vec_gcd(z)
    if gcd(m, d) != 1:
        raise DomainError("sublattice not complete")
    w = [t // m for t in z]
    b1 = extend_to_symplectic_basis(w, g - 1)
    r = _embed_reduced(b1.inverse(), g).compose(r)
    # the moved lattice is span{e0, d*f0 + m*e1 (mod e0)}
    if d == 1:
        red = [0] * (2 * g - 2)
        red[0] = -m
        r = _shear(red, g).compose(r)
        _check_canonical(r, lattice, 1)
        return r, 1
    if m % d == 1:
        k = (m - 1) // d
        red = [0] * (2 * g - 2)
        red[0] = -k
        r = _shear(red, g).compose(r)
        _check_canonical(r, lattice, d)
        return r, d
    t = pow(m % d, -1, d)
    w2 = [0] * (2 * g - 2)
    w2[0] = t
    w2[1] = d
    b2 = extend_to_symplectic_basis(w2, g - 1)
    r = _embed_reduced(b2, g).compose(r)
    # now the residue is m*t*e1 + m*d*f1 with m*t = 1 + k*d
    k = (m * t - 1) // d
    red = [0] * (2 * g - 2)
    red[0] = -k
    red[1] = -m
    r = _shear(red, g).compose(r)
    _check_canonical(r, lattice, d)
    return r, d


def _check_canonical(r: SpMatrix, lattice: Sublattice, d: int):
    image = r.apply_lattice(lattice)
    target = _canonical_rank2(d, lattice.genus)
    assert image.same_lattice(target), "canonical reduction failed"


def _validate_pair(u: Sublattice, u2: Sublattice, rank: int):
    if u.genus != u2.genus:
        raise DomainError("sublattices live in different ambients")
    if u.rank != rank or u2.rank != rank:
        raise DomainError("expected rank-%d sublattices" % rank)
    d1 = determinant(u)
    d2 = determinant(u2)
    if d1 != d2:
        raise DomainError("unequal determinants: %d vs %d" % (d1, d2))
    if not is_complete(u) or not is_complete(u2):
        raise DomainError("sublattice not complete")
    return d1


def map_rank2_sublattice(u: Sublattice, u2: Sublattice) -> SpMatrix:
    """An integral symplectic matrix sending the first complete rank-2
    sublattice onto the second; equal determinants required."""
    _validate_pair(u, u2, 2)
    r1, _ = _reduce_rank2_to_canonical(u)
    r2, _ = _reduce_rank2_to_canonical(u2)
    # an explicit check of the result, so it still runs under python -O
    delta = SpMatrix(r2.inverse().compose(r1).entries)
    assert delta.apply_lattice(u).same_lattice(u2), "rank-2 mapping failed"
    return delta


def map_rank4_sublattice(u: Sublattice, u2: Sublattice) -> SpMatrix:
    """Same as map_rank2_sublattice for complete rank-4 sublattices, via the
    splitting into a unimodular factor and a d-scaled factor."""
    _validate_pair(u, u2, 4)
    r1 = _reduce_rank4_to_canonical(u)
    r2 = _reduce_rank4_to_canonical(u2)
    # an explicit check of the result, so it still runs under python -O
    delta = SpMatrix(r2.inverse().compose(r1).entries)
    assert delta.apply_lattice(u).same_lattice(u2), "rank-4 mapping failed"
    return delta


def _reduce_rank4_to_canonical(lattice: Sublattice) -> SpMatrix:
    g = lattice.genus
    nf = alternating_normal_form(lattice)
    if nf.divisors[0] != 1:
        raise DomainError("restriction not indivisible")
    x1, y1, x2, y2 = nf.basis.vectors
    q = Sublattice([x1, y1], genus=g)
    ra, _ = _reduce_rank2_to_canonical(q)
    vx2 = ra.apply(x2)
    vy2 = ra.apply(y2)
    assert vx2[0] == vx2[1] == vy2[0] == vy2[1] == 0, (
        "second factor must land in the complement of e0, f0"
    )
    factor = Sublattice([vx2[2:], vy2[2:]], genus=g - 1)
    if not is_complete(factor):
        raise DomainError("sublattice not complete")
    rq, dq = _reduce_rank2_to_canonical(factor)
    assert dq == nf.divisors[1]
    return _embed_reduced(rq, g).compose(ra)

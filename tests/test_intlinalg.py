import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from periodforms import intlinalg
from periodforms.errors import DomainError
from periodforms.intlinalg import (
    clear_denominators,
    identity,
    integer_det,
    integer_rank,
    mat_eq,
    mat_mul,
    rational_kernel,
    rational_rank,
    rational_solve,
    row_hnf,
    saturate_rows,
    transpose,
)
from periodforms.polynomials import TernaryForm, ternary_monomials
from periodforms.symplectic_lattice import Sublattice, alternating_normal_form, determinant


def random_matrix(rng, m, n, size=5):
    return [[rng.randint(-size, size) for _ in range(n)] for _ in range(m)]


def reference_det(rows):
    """Determinant by Fraction elimination, independent of the library."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for i in range(c + 1, n):
            f = a[i][c] / a[c][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return det


def is_unimodular(u):
    return abs(reference_det(u)) == 1


def fraction_gauss_jordan(rows):
    """Reduced row echelon form over Fraction entries, (rows, pivot
    columns), independent of the library's fraction-free elimination.
    Each column's pivot is its first nonzero entry at or below the current
    row."""
    a = [[Fraction(x) for x in r] for r in rows]
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


def fraction_kernel(rows, width):
    """One null vector per free column: 1 there, 0 at the other free
    columns."""
    a, pivots = fraction_gauss_jordan(rows or [[0] * width])
    n = len(rows[0]) if rows else width
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


def fraction_solve(rows, rhs):
    """The solution with free variables zero, or None if inconsistent."""
    n = len(rows[0]) if rows else 0
    a, pivots = fraction_gauss_jordan([list(r) + [b] for r, b in zip(rows, rhs)])
    if pivots and pivots[-1] == n:
        return None
    x = [Fraction(0)] * n
    for r, pc in enumerate(pivots):
        x[pc] = a[r][n]
    return x


def hermite_transform(rows):
    """(H, U) with U * rows = H: the Hermite core run on the rows with the
    identity riding along; H keeps every row, zero rows last."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = intlinalg._hermite([list(r) + [int(i == j) for j in range(m)] for i, r in enumerate(rows)], n)
    return [r[:n] for r in a], [r[n:] for r in a]


def integer_kernel(rows, width=None):
    """Basis of the saturated lattice {x in Z^n : A x = 0}, A given by rows,
    as canonical Hermite-form rows: the rows of the Hermite transform of
    A^T whose image vanishes.  No rows means the zero map on width
    coordinates."""
    if not rows:
        if width is None:
            raise DomainError("kernel of an empty matrix needs an explicit width")
        return identity(width)
    h, u = hermite_transform(transpose(rows))
    return row_hnf([x for r, x in zip(h, u) if not any(r)])


def test_hnf_transform_reconstructs():
    rng = random.Random(3)
    for _ in range(60):
        m = rng.randint(1, 4)
        n = rng.randint(1, 5)
        a = random_matrix(rng, m, n)
        h, u = hermite_transform(a)
        assert mat_eq(mat_mul(u, a), h)
        assert is_unimodular(u)


def test_hnf_shape():
    h = row_hnf([[4, 6], [2, 2]])
    # pivots positive, entries above reduced, zero rows at bottom
    assert h == [[2, 0], [0, 2]]
    h = row_hnf([[2, 4, 6], [1, 2, 3]])
    assert h == [[1, 2, 3]]


def test_hnf_canonical_for_equal_row_spans():
    rng = random.Random(17)
    for _ in range(40):
        m = rng.randint(1, 3)
        n = rng.randint(2, 5)
        a = random_matrix(rng, m, n)
        b = [list(r) for r in a]
        for _ in range(5):
            i, j = rng.randrange(m), rng.randrange(m)
            if i != j:
                c = rng.randint(-3, 3)
                b[i] = [x + c * y for x, y in zip(b[i], b[j])]
        assert mat_eq(row_hnf(a), row_hnf(b))


def test_integer_kernel_small_cases():
    assert integer_kernel([[2, -4]], 2) == [[2, 1]]
    assert integer_kernel([[1, 0], [0, 1]], 2) == []
    assert integer_kernel([], 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    # width is mandatory when no rows pin it down
    with pytest.raises(DomainError):
        integer_kernel([])


def test_integer_kernel_exactness():
    rng = random.Random(29)
    for _ in range(50):
        m = rng.randint(1, 3)
        n = rng.randint(1, 5)
        a = random_matrix(rng, m, n, 4)
        ker = integer_kernel(a, n)
        for v in ker:
            assert all(sum(r[i] * v[i] for i in range(n)) == 0 for r in a)
        assert len(ker) == n - rational_rank(a)


def test_saturate_rows():
    sat = saturate_rows([[2, 0], [0, 3]], 2)
    assert mat_eq(sat, [[1, 0], [0, 1]])
    sat = saturate_rows([[2, 4]], 2)
    assert mat_eq(sat, [[1, 2]])
    assert saturate_rows([], 3) == saturate_rows([[0, 0, 0]], 3) == []
    with pytest.raises(DomainError, match="needs a width"):
        saturate_rows([])


def kernel_of_kernel_saturation(rows, width):
    """Saturation as the kernel of the kernel, each an n-wide integer_kernel:
    the lattice of x with y . x = 0 for every y orthogonal to the rows."""
    comp = integer_kernel(rows, width) if rows else identity(width)
    if not comp:
        return identity(width)
    return integer_kernel(comp, width)


@st.composite
def saturation_inputs(draw):
    """(rows, width) of width 1-16: dependent, zero, full-rank and
    index-scaled rows, or no rows at all; entries small or up to 2^64."""
    n = draw(st.integers(1, 16))
    entry = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-(2**64), 2**64))
    kind = draw(st.sampled_from(["dependent", "zero", "full", "scaled", "empty"]))
    if kind == "empty":
        return [], n
    m = n if kind == "full" else draw(st.integers(1, min(n, 5)))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    if kind == "dependent":
        u, v = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        a, b = draw(st.integers(-5, 5)), draw(st.integers(-5, 5))
        rows.insert(draw(st.integers(0, m)), [a * x + b * y for x, y in zip(u, v)])
    elif kind == "zero":
        rows.insert(draw(st.integers(0, m)), [0] * n)
    elif kind == "scaled":
        k = draw(st.integers(2, 60))
        rows = [[k * x for x in row] for row in rows]
    return rows, n


@settings(max_examples=200, deadline=None)
@given(saturation_inputs())
def test_saturate_rows_matches_kernel_of_kernel(case):
    rows, n = case
    assert saturate_rows(rows, n) == kernel_of_kernel_saturation(rows, n)


@settings(max_examples=200, deadline=None)
@given(saturation_inputs())
def test_saturation_is_idempotent(case):
    rows, n = case
    sat = saturate_rows(rows, n)
    assert saturate_rows(sat, n) == sat
    assert row_hnf(sat) == sat


@st.composite
def nondegenerate_sublattices(draw):
    """Even-rank generators of genus 1-4 whose restricted form is
    nondegenerate, some scaled by a common index."""
    g = draw(st.integers(1, 4))
    rank = 2 * draw(st.integers(1, g))
    rows = draw(st.lists(st.lists(st.integers(-6, 6), min_size=2 * g, max_size=2 * g),
                         min_size=rank, max_size=rank))
    k = draw(st.sampled_from([1, 1, 2, 3]))
    rows = [[k * x for x in row] for row in rows]
    assume(integer_rank(rows) == rank and reference_det(Sublattice(rows).gram_matrix()))
    return rows


@settings(max_examples=200, deadline=None)
@given(nondegenerate_sublattices())
def test_determinant_is_the_product_of_the_divisors(rows):
    for lattice in (Sublattice(rows), Sublattice(saturate_rows(rows, len(rows[0])))):
        product = 1
        for d in alternating_normal_form(lattice).divisors:
            product *= d
        assert determinant(lattice) == product


def test_saturate_rows_rejects_an_inexact_solve(monkeypatch):
    # a Hermite form of the transpose with its first row doubled spans a
    # smaller lattice than the columns, so the forward substitution cannot
    # divide exactly
    real = intlinalg.row_hnf

    def doubled(rows):
        out = real(rows)
        return [[2 * x for x in out[0]]] + out[1:] if out else out

    monkeypatch.setattr(intlinalg, "row_hnf", doubled)
    with pytest.raises(DomainError, match="inexact"):
        saturate_rows([[1, 0, 2], [0, 1, 3]], 3)


def test_determinant_values():
    # |Pfaffian| of the Gram matrix, on lattices realizing hand-picked Grams
    lat = Sublattice([[1, 0], [0, 1]])
    assert lat.gram_matrix() == [[0, 1], [-1, 0]]
    assert determinant(lat) == 1
    lat = Sublattice([[1, 0], [0, -3]])
    assert lat.gram_matrix() == [[0, -3], [3, 0]]
    assert determinant(lat) == 3
    lat = Sublattice([[1, 0, 0, 0], [0, 1, 0, 0], [-4, 2, 1, 0], [-5, 3, 0, 8]])
    assert lat.gram_matrix() == [
        [0, 1, 2, 3],
        [-1, 0, 4, 5],
        [-2, -4, 0, 6],
        [-3, -5, -6, 0],
    ]
    # pf = a01*a23 - a02*a13 + a03*a12
    assert determinant(lat) == 1 * 6 - 2 * 5 + 3 * 4


def test_determinant_squares_to_gram_determinant():
    rng = random.Random(41)
    for _ in range(30):
        rank = rng.choice([2, 4, 6, 8, 10, 12, 14])
        genus = rng.randint(rank // 2, 8)
        while True:
            vectors = random_matrix(rng, rank, 2 * genus, 3)
            gram_det = reference_det(Sublattice(vectors).gram_matrix())
            if gram_det:
                break
        assert determinant(Sublattice(vectors)) ** 2 == gram_det


def test_rational_solve_and_kernel():
    a = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    x = rational_solve(a, [Fraction(3), Fraction(6)])
    assert a[0][0] * x[0] + a[0][1] * x[1] == 3
    with pytest.raises(DomainError):
        rational_solve(a, [Fraction(3), Fraction(7)])
    ker = rational_kernel([[Fraction(1), Fraction(2)]], 2)
    assert len(ker) == 1
    assert ker[0][0] * 1 + ker[0][1] * 2 == 0


def test_rational_solve_rejects_mismatched_rhs():
    rows = [[1, 0], [0, 1], [1, 1]]
    # the third equation used to be dropped, giving [1, 1]
    with pytest.raises(DomainError, match="right-hand side length"):
        rational_solve(rows, [1, 1])
    with pytest.raises(DomainError, match="right-hand side length"):
        rational_solve(rows, [1, 1, 2, 0])
    assert rational_solve(rows, [1, 1, 2]) == [1, 1]
    with pytest.raises(DomainError, match="inconsistent"):
        rational_solve(rows, [1, 1, 3])


@st.composite
def rational_systems(draw):
    """(rows, width, rhs): mixed int and Fraction entries, zero rows and
    columns, dependent rows, no rows at all; rhs is A x for a drawn x, or
    is moved off the column span by one unit in one row."""
    n = draw(st.integers(0, 6))
    entry = st.one_of(
        st.just(0),
        st.integers(-4, 4),
        st.fractions(min_value=-9, max_value=9, max_denominator=12),
        st.integers(-(2**70), 2**70),
    )
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=5))
    for _ in range(draw(st.integers(0, 2))):
        if not rows:
            break
        u, v = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        a, b = draw(entry), draw(entry)
        rows.append([a * x + b * y for x, y in zip(u, v)])
    if n:
        for c in draw(st.sets(st.integers(0, n - 1), max_size=2)):
            for row in rows:
                row[c] = 0
    rows = draw(st.permutations(rows))
    x = draw(st.lists(entry, min_size=n, max_size=n))
    rhs = [sum(a * b for a, b in zip(row, x)) for row in rows]
    if rows and draw(st.booleans()):
        rhs[draw(st.integers(0, len(rows) - 1))] += 1
    return rows, n, rhs


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


@st.composite
def wide_kernel_systems(draw):
    """(rows, width, rhs) with large kernels: rank-deficient rational
    matrices of up to 12 columns, and the cleared multiplication matrix of
    a hyperelliptic pair or triple of genus 2-8 (column (i, j) holds the
    coefficients of p_i x^j over x^0 .. x^(2g-2)), its forms sharing a
    factor or not; rhs is A x or moved off the column span."""
    coeff = st.integers(-999, 999)
    if draw(st.booleans()):
        n, rank = draw(st.integers(1, 12)), draw(st.integers(0, 5))
        entry = st.one_of(st.integers(-9, 9), st.fractions(min_value=-9, max_value=9, max_denominator=12))
        base = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=rank, max_size=rank))
        rows = []
        for _ in range(draw(st.integers(1, 10))):
            cs = draw(st.lists(entry, min_size=rank, max_size=rank))
            rows.append([sum((c * b[k] for c, b in zip(cs, base)), Fraction(0)) for k in range(n)])
    else:
        genus, size = draw(st.integers(2, 8)), draw(st.sampled_from([2, 3]))
        h = [1]
        if draw(st.booleans()):
            h = draw(st.lists(coeff, min_size=1, max_size=genus - 1)) + [draw(st.integers(1, 9))]
        forms = [_poly_mul(h, draw(st.lists(coeff, min_size=1, max_size=genus + 1 - len(h))))
                 for _ in range(size)]
        n = size * genus
        rows = [[p[k - j] if 0 <= k - j < len(p) else 0 for p in forms for j in range(genus)]
                for k in range(2 * genus - 1)]
    x = draw(st.lists(coeff, min_size=n, max_size=n))
    rhs = [sum(a * b for a, b in zip(row, x)) for row in rows]
    if draw(st.booleans()):
        rhs[draw(st.integers(0, len(rows) - 1))] += 1
    return rows, n, rhs


@settings(max_examples=200, deadline=None)
@given(st.one_of(rational_systems(), wide_kernel_systems()))
def test_rational_kernel_and_solve_match_fraction_gauss_jordan(system):
    rows, n, rhs = system
    # repr compares exactly: every entry a Fraction, in lowest terms
    assert repr(rational_kernel(rows, n)) == repr(fraction_kernel(rows, n))
    expected = fraction_solve(rows, rhs)
    if expected is None:
        with pytest.raises(DomainError, match="inconsistent"):
            rational_solve(rows, rhs)
    else:
        assert repr(rational_solve(rows, rhs)) == repr(expected)


def test_rational_kernel_rejects_an_inexact_back_substitution(monkeypatch):
    # doubling the first pivot entry leaves the last pivot d = 1, so the
    # back substitution would need y = -1/2 and cannot divide exactly
    real = intlinalg._bareiss

    def doubled(rows):
        a, pivots, d = real(rows)
        a[0] = [2 * a[0][0]] + a[0][1:]
        return a, pivots, d

    monkeypatch.setattr(intlinalg, "_bareiss", doubled)
    with pytest.raises(DomainError, match="inexact"):
        rational_kernel([[1, 1]], 2)


@st.composite
def integer_matrices(draw):
    """Integer matrices of any shape with dependent, duplicated and zero
    rows mixed in; entries small or up to 2^200."""
    n = draw(st.integers(1, 7))
    entry = st.one_of(st.integers(-3, 3), st.integers(-(2**200), 2**200))
    base = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=6))
    rows = list(base)
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["zero", "duplicate", "combination"]))
        if kind == "zero" or not base:
            rows.append([0] * n)
        elif kind == "duplicate":
            rows.append(list(draw(st.sampled_from(base))))
        else:
            u, v = draw(st.sampled_from(base)), draw(st.sampled_from(base))
            a, b = draw(entry), draw(entry)
            rows.append([a * x + b * y for x, y in zip(u, v)])
    return draw(st.permutations(rows))


@st.composite
def macaulay_matrices(draw):
    """The 45 x 36 Macaulay matrix of the partials of a random quartic,
    cleared of denominators: sparse quartics are often singular, so the
    rank falls short of 36 and rows are left below the last pivot."""
    value = st.one_of(st.just(0), st.just(0), st.just(0), st.integers(-9, 9),
                      st.builds(Fraction, st.integers(-999, 999), st.integers(1, 99)))
    return macaulay_rows(TernaryForm(4, {m: draw(value) for m in ternary_monomials(4)}))


def macaulay_rows(form):
    """The rows (partial times degree-4 monomial) over the 36 septic
    monomials, the partials cleared of denominators."""
    partials = [form.partial(v).coeffs for v in range(3)]
    values, _ = clear_denominators([[c for _, c in p] for p in partials])
    column = {m: k for k, m in enumerate(ternary_monomials(7))}
    rows = []
    for partial, ints in zip(partials, values):
        for i, j, k in ternary_monomials(4):
            row = [0] * len(column)
            for ((a, b, d), _), c in zip(partial, ints):
                row[column[(a + i, b + j, d + k)]] = c
            rows.append(row)
    return rows


P = (1 << 31) - 1  # the prime of integer_rank's modular elimination


@st.composite
def shaped_matrices(draw):
    """Tall and wide integer matrices up to 12 x 12, drawn entry by entry
    or as a product of an m x k and a k x n factor, so of rank at most k;
    entries small, up to 2^200, or multiples of 2^31 - 1."""
    m, n = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    entry = st.one_of(st.integers(-3, 3), st.integers(-(2**200), 2**200),
                      st.integers(-3, 3).map(lambda k: k * P))
    if draw(st.booleans()):
        return draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    k = draw(st.integers(1, min(m, n)))
    left = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=m, max_size=m))
    right = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=k, max_size=k))
    return mat_mul(left, right)


@settings(max_examples=300, deadline=None)
@given(st.one_of(integer_matrices(), shaped_matrices(), macaulay_matrices()), st.integers(1, 12))
def test_integer_rank_matches_rational_rank(rows, den):
    oracle = len(fraction_gauss_jordan(rows)[1])
    assert integer_rank(rows) == rational_rank(rows) == oracle
    scaled = [[Fraction(x, den + i) for i, x in enumerate(row)] for row in rows]
    assert rational_rank(scaled) == oracle


def test_clear_denominators_returns_its_factor():
    rows = [[Fraction(1, 2), 3], [Fraction(-2, 3), 0]]
    assert clear_denominators(rows) == ([[3, 18], [-4, 0]], 6)
    assert clear_denominators([[1, -2]]) == ([[1, -2]], 1)
    assert clear_denominators([]) == ([], 1)


def test_integer_rank_small_cases():
    assert integer_rank([]) == rational_rank([]) == 0
    assert integer_rank([[0, 0, 0]]) == 0
    assert integer_rank([[1, 2], [2, 4], [3, 6]]) == 1
    assert integer_rank([[0, 1], [1, 0]]) == 2
    # the first column is zero below the top row, so the second pivot is
    # found one column to the right
    assert integer_rank([[2, 1, 0], [0, 0, 3], [0, 0, 6]]) == 2


def fermat_with_the_x7_row_scaled_by_p():
    """The Macaulay matrix of x^4 + y^4 + z^4 with its one row that
    reaches x^7, 4 x^3 times x^4, scaled by p: rank 36 over Q, 35 mod p."""
    rows = macaulay_rows(TernaryForm(4, {(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1}))
    column = ternary_monomials(7).index((7, 0, 0))
    (i,) = [i for i, row in enumerate(rows) if row[column]]
    rows[i] = [P * x for x in rows[i]]
    return rows


def quartic_in_lines(table, lines):
    """The quartic sum of c L1^i L2^j L3^k over the entries (i, j, k): c
    of the table, for three lines L."""
    forms = [TernaryForm.linear(*line) for line in lines]
    out = TernaryForm(4, {})
    for exponents, c in table.items():
        term = TernaryForm(0, {(0, 0, 0): c})
        for form, e in zip(forms, exponents):
            for _ in range(e):
                term = term * form
        out = out + term
    return out


def seeded_quartics(seed, count):
    """(smooth, singular) Macaulay matrices: a L1^4 + b L2^4 + c L3^4, and
    a quartic with no monomial of z-degree 3 or 4 in (L1, L2, L3), which is
    singular at the rational point L1 = L2 = 0.  The lines are independent
    with entries in -1..1, so that point has coordinates of at most 2: its
    kernel vectors, the values of the septic monomials there over one of
    them, lift from p.  (With entries up to 2, coordinates up to 8 give
    values up to 8^7, past the lift bound, and some fall back to Bareiss.)"""
    rng = random.Random(seed)
    smooth, singular = [], []
    while len(singular) < count:
        lines = random_matrix(rng, 3, 3, 1)
        if not reference_det(lines):
            continue
        diagonal = {(4, 0, 0): rng.choice([1, 2, -1]), (0, 4, 0): rng.choice([1, 3, -2]),
                    (0, 0, 4): rng.choice([1, -1, 5])}
        cone = {m: rng.randint(-3, 3) for m in ternary_monomials(4) if m[2] < 3}
        cone[(4, 0, 0)] = 1
        smooth.append(macaulay_rows(quartic_in_lines(diagonal, lines)))
        singular.append(macaulay_rows(quartic_in_lines(cone, lines)))
    return smooth, singular


def test_bareiss_runs_exactly_when_no_certificate_holds(monkeypatch):
    calls = []
    real = intlinalg._bareiss

    def counted(rows):
        calls.append(rows)
        return real(rows)

    monkeypatch.setattr(intlinalg, "_bareiss", counted)
    adversarial = [
        # full rank over Q, not mod p: the lifted kernel fails the check
        [[P, 0], [0, 1]],
        [[1, 1], [1, 1 + P]],
        [[3 * P, 5 * P]],
        fermat_with_the_x7_row_scaled_by_p(),
        # the kernel (40000, 1) has no lift with |num|, den <= 32767
        [[1, -40000], [2, -80000]],
        # rank 1 over Q, the kernel (p + 5, 1) lifts to (5, 1) and fails
        [[1, -(P + 5)], [2, -2 * (P + 5)]],
    ]
    for rows in adversarial:
        del calls[:]
        assert integer_rank(rows) == len(fraction_gauss_jordan(rows)[1])
        assert len(calls) == 1
    smooth, singular = seeded_quartics(28, 12)
    del calls[:]
    assert [integer_rank(rows) for rows in smooth] == [36] * len(smooth)
    assert calls == []
    for rows in singular:
        assert integer_rank(rows) == len(fraction_gauss_jordan(rows)[1]) < 36
    # singular only at (1 : +-i : 0), and only at (0 : 1 : +-i): no
    # rational point gives the kernel, of dimension 2 and 6, and it still
    # lifts from p and passes the check over Z
    for table, corank in (
        ({(4, 0, 0): 1, (2, 2, 0): 2, (0, 4, 0): 1, (2, 0, 2): 1, (0, 0, 4): 1}, 2),
        ({(4, 0, 0): 2, (0, 4, 0): 1, (0, 0, 4): 1, (2, 2, 0): 2, (2, 0, 2): 2, (0, 2, 2): 2}, 6),
    ):
        rows = macaulay_rows(TernaryForm(4, table))
        assert integer_rank(rows) == len(fraction_gauss_jordan(rows)[1]) == 36 - corank
    assert calls == []


def test_rational_reconstruction_recovers_small_fractions():
    rng = random.Random(5)
    bound = intlinalg._LIFT
    assert 2 * bound * bound < P < 2 * (bound + 1) ** 2
    for _ in range(300):
        num, den = rng.randint(-bound, bound), rng.randint(1, bound)
        f = Fraction(num, den)
        assert intlinalg._lift(num * pow(den, -1, P) % P) == (f.numerator, f.denominator)
    assert intlinalg._lift(0) == (0, 1)
    assert intlinalg._lift(P - 1) == (-1, 1)
    assert intlinalg._lift(40000) is None


@st.composite
def square_matrices(draw):
    """Square integer matrices, small or with entries up to 2^200, some
    made singular by a dependent last row."""
    n = draw(st.integers(0, 6))
    entry = st.one_of(st.integers(-3, 3), st.integers(-(2**200), 2**200))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    if n > 1 and draw(st.booleans()):
        rows[-1] = [2 * x - y for x, y in zip(rows[0], rows[1])]
    return rows


@settings(max_examples=300, deadline=None)
@given(square_matrices())
def test_integer_det_matches_fraction_elimination(rows):
    det = integer_det(rows)
    assert det == reference_det(rows)
    if len(rows) > 1:
        assert integer_det([rows[1], rows[0]] + rows[2:]) == -det


def leibniz_det(rows):
    """Determinant as the signed sum over permutations."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


@st.composite
def sparse_matrices(draw):
    """Mostly-zero integer matrices, square or not: zeroed columns, and a
    zero top-left entry over a nonzero one below, so the first pivot needs
    a row swap; entries small or up to 2^100."""
    m = draw(st.integers(1, 6))
    n = m if draw(st.booleans()) else draw(st.integers(1, 6))
    entry = st.one_of(st.just(0), st.just(0), st.integers(-3, 3), st.integers(-(2**100), 2**100))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    for c in draw(st.sets(st.integers(0, n - 1), max_size=n - 1)):
        for row in rows:
            row[c] = 0
    if m > 1 and draw(st.booleans()):
        rows[0][0] = 0
        rows[draw(st.integers(1, m - 1))][0] = draw(st.integers(1, 5))
    return rows


@settings(max_examples=300, deadline=None)
@given(sparse_matrices())
def test_bareiss_on_sparse_matrices(rows):
    n = len(rows[0])
    assert integer_rank(rows) == len(fraction_gauss_jordan(rows)[1])
    if len(rows) == n:
        assert integer_det(rows) == reference_det(rows)
        if n <= 5:
            assert integer_det(rows) == leibniz_det(rows)


def eager_bareiss(rows):
    """The eager elimination that the lazy _bareiss replaced: at every
    pivot p, each row below the pivot row becomes (p x - f y) / prev, a
    row with f = 0 included."""
    a = list(rows)
    m = len(a)
    n = len(a[0]) if m else 0
    pivots, prev = [], 1
    for c in range(n):
        rank = len(pivots)
        if rank == m:
            break
        piv = next((i for i in range(rank, m) if a[i][c]), None)
        if piv is None:
            continue
        if piv != rank:
            a[rank], a[piv] = a[piv], [-x for x in a[rank]]
        top = a[rank]
        p = top[c]
        zeros, tail = [0] * (c + 1), top[c + 1:]
        for i in range(rank + 1, m):
            row = a[i]
            f = row[c]
            if f:
                a[i] = zeros + [(p * x - f * y) // prev for x, y in zip(row[c + 1:], tail)]
            else:
                a[i] = zeros + [p * x // prev for x in row[c + 1:]]
        prev = p
        pivots.append(c)
    return a, pivots, prev


@settings(max_examples=200, deadline=None)
@given(st.one_of(sparse_matrices(), integer_matrices(), macaulay_matrices()))
def test_lazy_bareiss_matches_the_eager_oracle(rows):
    a, pivots, last = intlinalg._bareiss(rows)
    b, expected_pivots, expected_last = eager_bareiss(rows)
    assert (pivots, last) == (expected_pivots, expected_last)
    assert [list(r) for r in a] == [list(r) for r in b]


def test_integer_det_small_cases():
    assert integer_det([]) == 1
    assert integer_det([[0, 1], [1, 0]]) == -1
    assert integer_det([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
    assert integer_det([[0, 1, 0], [0, 0, 1], [1, 0, 0]]) == 1
    assert integer_det([[2, 1, 0], [0, 0, 3], [0, 0, 6]]) == 0
    with pytest.raises(DomainError, match="non-square"):
        integer_det([[1, 2]])


@settings(max_examples=200, deadline=None)
@given(integer_matrices())
def test_row_hnf_is_the_transform_without_zero_rows(rows):
    h, u = hermite_transform(rows)
    assert row_hnf(rows) == [r for r in h if any(r)]
    assert len(h) == len(u) == len(rows)
    assert mat_mul(u, rows) == h
    assert is_unimodular(u)


@st.composite
def recombined_matrices(draw):
    """(rows, recombined): the rows after a few unimodular row operations,
    swaps, sign changes and adding a multiple of one row to another."""
    rows = [list(r) for r in draw(integer_matrices())]
    moved = [list(r) for r in rows]
    for _ in range(draw(st.integers(0, 8)) if len(rows) > 1 else 0):
        i, j = draw(st.permutations(range(len(rows))))[:2]
        kind = draw(st.sampled_from(["swap", "negate", "add"]))
        if kind == "swap":
            moved[i], moved[j] = moved[j], moved[i]
        elif kind == "negate":
            moved[i] = [-x for x in moved[i]]
        else:
            k = draw(st.integers(-5, 5))
            moved[i] = [x + k * y for x, y in zip(moved[i], moved[j])]
    return rows, moved


@settings(max_examples=200, deadline=None)
@given(recombined_matrices())
def test_row_hnf_is_invariant_under_unimodular_recombination(case):
    rows, moved = case
    h = row_hnf(moved)
    assert h == row_hnf(rows)
    last = -1
    for i, r in enumerate(h):
        pc = next(c for c, x in enumerate(r) if x)
        assert pc > last and r[pc] > 0
        assert all(0 <= h[k][pc] < r[pc] for k in range(i))
        last = pc


def test_row_hnf_transform_of_nothing():
    assert row_hnf([]) == []
    assert hermite_transform([]) == ([], [])
    assert hermite_transform([[0, 0], [0, 0]]) == ([[0, 0], [0, 0]], [[1, 0], [0, 1]])


def test_transpose_roundtrip():
    a = [[1, 2, 3], [4, 5, 6]]
    assert transpose(transpose(a)) == a

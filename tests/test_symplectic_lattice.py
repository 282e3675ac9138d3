import json
import random
import time
from itertools import combinations
from math import gcd, prod
from operator import mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from periodforms import symplectic_lattice
from periodforms.cli import main
from periodforms.errors import DomainError
from periodforms.intlinalg import (
    identity,
    integer_rank,
    mat_eq,
    mat_mul,
    row_hnf,
    transpose,
)
from periodforms.symplectic_lattice import (
    NormalForm,
    SpMatrix,
    Sublattice,
    _moves_to_e0,
    alternating_normal_form,
    determinant,
    extend_to_symplectic_basis,
    is_complete,
    is_indivisible,
    map_rank2_sublattice,
    map_rank4_sublattice,
    omega,
    saturate,
)
from test_intlinalg import integer_kernel


# ---------------------------------------------------------------------------
# oracles


def standard_gram(genus):
    """Gram matrix of the standard symplectic form, g blocks [[0,1],[-1,0]]."""
    n = 2 * genus
    j = [[0] * n for _ in range(n)]
    for i in range(genus):
        j[2 * i][2 * i + 1] = 1
        j[2 * i + 1][2 * i] = -1
    return j


def smith_divisor_pairs(gram):
    """Divisors of an alternating form from gcds of k x k minors.

    Independent of the congruence reduction: the k-th determinantal divisor
    is the gcd of all k x k minors, invariant factors are their quotients,
    and for an alternating form they come in equal pairs (d1, d1, d2, d2, ...).
    """
    n = len(gram)
    dets = [1]
    for k in range(1, n + 1):
        g = 0
        for rows in combinations(range(n), k):
            for cols in combinations(range(n), k):
                sub = [[gram[i][j] for j in cols] for i in rows]
                g = gcd(g, abs(int_det(sub)))
        dets.append(g)
        if g == 0:
            break
    factors = []
    for k in range(1, len(dets)):
        if dets[k] == 0:
            break
        factors.append(dets[k] // dets[k - 1])
    assert len(factors) == n, "nondegenerate forms only"
    pairs = []
    for i in range(0, n, 2):
        assert factors[i] == factors[i + 1], "alternating invariants pair up"
        pairs.append(factors[i])
    return pairs


def int_det(mat):
    """Integer determinant by fraction-free Bareiss elimination."""
    a = [list(row) for row in mat]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def brute_membership(lattice, vec, bound=6):
    """Check membership of vec in a rank-2 lattice by explicit enumeration."""
    v1, v2 = lattice.vectors
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            if all(a * x + b * y == z for x, y, z in zip(v1, v2, vec)):
                return True
    return False


def is_member(lattice, v):
    """Hermite membership: v lies in the lattice exactly when adding it as
    a generator leaves the Hermite form unchanged."""
    rows = [list(r) for r in lattice.vectors]
    return row_hnf(rows + [list(v)]) == row_hnf(rows)


def random_sp(genus, rng, steps=6, size=1):
    """Random product of symplectic transvections x -> x + omega(x, u) u."""
    n = 2 * genus
    total = SpMatrix(identity(n))
    for _ in range(steps):
        u = [rng.randint(-size, size) for _ in range(n)]
        if all(x == 0 for x in u):
            u[rng.randrange(n)] = 1
        cols = []
        for k in range(n):
            b = [1 if i == k else 0 for i in range(n)]
            w = omega(b, u)
            cols.append([bi + w * ui for bi, ui in zip(b, u)])
        total = SpMatrix(transpose(cols)).compose(total)
    return total


def random_complete_rank2(genus, det, rng):
    """Scrambled copy of span{e0, det*f0 + u} with gcd(gcd(u), det) = 1."""
    n = 2 * genus
    e0 = [1] + [0] * (n - 1)
    y = [0] * n
    y[0] = rng.randint(-3, 3)
    y[1] = det
    while True:
        z = [rng.randint(-3, 3) for _ in range(n - 2)]
        m = 0
        for t in z:
            m = gcd(m, abs(t))
        if det == 1 or (m != 0 and gcd(m, det) == 1):
            break
    for i, t in enumerate(z):
        y[2 + i] = t
    lat = Sublattice([e0, y])
    moved = random_sp(genus, rng).apply_lattice(lat)
    # recombine generators unimodularly so the adapted basis is not given away
    a, b = moved.vectors
    c = rng.randint(-2, 2)
    return Sublattice([list(a), [x + c * y for x, y in zip(b, a)]])


def random_complete_rank4(genus, det, rng):
    assert genus >= 3 or det == 1
    n = 2 * genus
    basis = []
    e0 = [0] * n
    e0[0] = 1
    f0 = [0] * n
    f0[1] = 1
    x2 = [0] * n
    x2[2] = 1
    y2 = [0] * n
    y2[3] = det
    if genus >= 3:
        y2[4] = rng.choice([1, -1]) if det > 1 else 0
    basis = [e0, f0, x2, y2]
    lat = Sublattice(basis)
    assert is_complete(lat)
    return random_sp(genus, rng).apply_lattice(lat)


# ---------------------------------------------------------------------------
# gram and primitive vectors


def test_standard_gram_blocks():
    j = standard_gram(2)
    assert j == [
        [0, 1, 0, 0],
        [-1, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, -1, 0],
    ]
    assert int_det(j) == 1
    assert int_det(standard_gram(5)) == 1


def test_is_indivisible():
    assert is_indivisible([2, 3, 0, 0])
    assert not is_indivisible([2, 4, 0, 0])
    assert not is_indivisible([0, 0, 0, 0])


# ---------------------------------------------------------------------------
# saturation and completeness


def test_saturate_halves_example():
    # a*(1,0,1/2,0) + b*(0,1,0,1/2) is integral only for even a - wait, for
    # integral b; the lattice spanned by (2,0,1,0),(0,2,0,1) is saturated.
    lat = Sublattice([[2, 0, 1, 0], [0, 2, 0, 1]])
    assert is_complete(lat)
    assert saturate(lat).same_lattice(lat)


def test_saturate_adds_missing_vector():
    # pullback lattice of a genus-3 double cover: the fourth generator is
    # twice a primitive vector of the rational span
    lat = Sublattice(
        [
            [1, 0, 0, 0, 1, 0],
            [0, 1, 0, 0, 0, 1],
            [0, 0, 1, 0, 0, 0],
            [0, 0, 0, 2, 0, 0],
        ]
    )
    assert not is_complete(lat)
    sat = saturate(lat)
    assert is_member(sat, [0, 0, 0, 1, 0, 0])
    assert is_complete(sat)
    expected = Sublattice(
        [
            [1, 0, 0, 0, 1, 0],
            [0, 1, 0, 0, 0, 1],
            [0, 0, 1, 0, 0, 0],
            [0, 0, 0, 1, 0, 0],
        ]
    )
    assert sat.same_lattice(expected)


def test_saturation_is_idempotent_and_membership_checked():
    rng = random.Random(11)
    for _ in range(40):
        g = rng.randint(1, 4)
        r = rng.randint(1, min(3, 2 * g))
        vecs = []
        while len(vecs) < r:
            cand = [rng.randint(-4, 4) for _ in range(2 * g)]
            try:
                Sublattice(vecs + [cand])
            except DomainError:
                continue
            vecs.append(cand)
        lat = Sublattice(vecs)
        sat = saturate(lat)
        assert is_complete(sat)
        assert saturate(sat).same_lattice(sat)
        # every original generator stays inside the saturation
        for v in vecs:
            assert is_member(sat, v)


# ---------------------------------------------------------------------------
# determinant


def test_determinant_complete_span_example():
    lat = Sublattice([[1, 0, -1, 0], [0, 1, 0, -1]])
    assert determinant(lat) == 2
    assert is_complete(lat)


def test_determinant_block_example():
    # basis with omega(x1,x2) = d and omega(x3,x4) = 1
    d = 7
    lat = Sublattice(
        [
            [1, 0, 0, 0, 0, 0],
            [0, d, 1, 0, 0, 0],
            [0, 0, 0, 0, 1, 0],
            [0, 0, 0, 0, 0, 1],
        ]
    )
    gram = lat.gram_matrix()
    assert gram[0][1] == d
    assert determinant(lat) == d


def test_determinant_rejects_odd_rank_and_degenerate():
    with pytest.raises(DomainError, match="^not symplectic sublattice: odd rank$"):
        determinant(Sublattice([[1, 0, 0, 0]]))
    with pytest.raises(DomainError, match="^not symplectic sublattice: degenerate restriction$"):
        determinant(Sublattice([[1, 0, 0, 0], [0, 0, 1, 0]]))


def test_full_lattice_determinant_is_one():
    for g in (1, 2, 3):
        n = 2 * g
        vecs = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        assert determinant(Sublattice(vecs)) == 1


# ---------------------------------------------------------------------------
# alternating normal form


def test_normal_form_divisors_match_minor_oracle():
    rng = random.Random(23)
    for _ in range(60):
        g = rng.randint(1, 3)
        r = rng.choice([2, 2, 4]) if g >= 2 else 2
        vecs = []
        lat = None
        attempts = 0
        while lat is None:
            attempts += 1
            assert attempts < 500
            vecs = [
                [rng.randint(-3, 3) for _ in range(2 * g)] for _ in range(r)
            ]
            try:
                cand = Sublattice(vecs)
                determinant(cand)  # skip degenerate restrictions
                lat = cand
            except DomainError:
                continue
        nf = alternating_normal_form(lat)
        oracle = smith_divisor_pairs(lat.gram_matrix())
        assert nf.divisors == oracle
        # divisor chain and determinant consistency
        prod = 1
        for a, b in zip(nf.divisors, nf.divisors[1:]):
            assert b % a == 0
        for dv in nf.divisors:
            assert dv > 0
            prod *= dv
        assert prod == determinant(lat)
        # the change matrix really produces the stated basis and Gram
        got = mat_mul(nf.change, [list(v) for v in lat.vectors])
        assert mat_eq(got, [list(v) for v in nf.basis.vectors])
        assert nf.basis.gram_matrix() == block_gram(nf.divisors)
        assert nf.basis.same_lattice(lat)


def block_gram(divisors):
    """Gram matrix with blocks [[0, d], [-d, 0]] down the diagonal."""
    r = 2 * len(divisors)
    gram = [[0] * r for _ in range(r)]
    for i, d in enumerate(divisors):
        gram[2 * i][2 * i + 1] = d
        gram[2 * i + 1][2 * i] = -d
    return gram


@st.composite
def scrambled_block_sums(draw):
    """Orthogonal sums of pairs e_i, p_i f_i, moved by a random Sp(2g, Z)
    matrix, then permuted and combined by row operations.  Sums such as
    (2, 3) or (6, 10, 15) start with no row whose pairings have the gcd of
    the whole form as content, so they need the general splitting step."""
    pairings = draw(
        st.one_of(
            st.sampled_from([(2, 3), (6, 10, 15), (3, 2), (4, 6), (2, 2, 3), (10, 6, 15)]),
            st.lists(st.integers(1, 30), min_size=1, max_size=3).map(tuple),
        )
    )
    g = len(pairings) + draw(st.integers(0, 1))
    rows = []
    for i, p in enumerate(pairings):
        e, f = [0] * (2 * g), [0] * (2 * g)
        e[2 * i], f[2 * i + 1] = 1, p
        rows += [e, f]
    if draw(st.booleans()):
        move = random_sp(g, random.Random(draw(st.integers(0, 10**6))))
        rows = [move.apply(v) for v in rows]
    for _ in range(draw(st.integers(0, 6))):
        i = draw(st.integers(0, len(rows) - 1))
        j = (i + draw(st.integers(1, len(rows) - 1))) % len(rows)
        c = draw(st.integers(-3, 3))
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    return draw(st.permutations(rows))


@settings(max_examples=200, deadline=None)
@given(scrambled_block_sums())
def test_normal_form_of_scrambled_block_sums(rows):
    lat = Sublattice(rows)
    nf = alternating_normal_form(lat)
    assert nf.divisors == smith_divisor_pairs(lat.gram_matrix())
    assert all(d > 0 for d in nf.divisors)
    assert all(q % p == 0 for p, q in zip(nf.divisors, nf.divisors[1:]))
    assert nf.basis.gram_matrix() == block_gram(nf.divisors)
    assert mat_mul(nf.change, [list(v) for v in rows]) == [list(v) for v in nf.basis.vectors]
    assert abs(int_det(nf.change)) == 1
    assert nf.basis.same_lattice(lat)


def test_normal_form_takes_the_general_step():
    # no generator pairs to content 1, the gcd of the form
    rows = [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 3]]
    assert [gcd(*row) for row in Sublattice(rows).gram_matrix()] == [2, 2, 3, 3]
    nf = alternating_normal_form(Sublattice(rows))
    assert nf.divisors == [1, 6]
    assert nf.basis.gram_matrix() == block_gram([1, 6])
    six = [[1, 0, 0, 0, 0, 0], [0, 6, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0],
           [0, 0, 0, 10, 0, 0], [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 15]]
    assert alternating_normal_form(Sublattice(six)).divisors == [1, 30, 30]


def test_normal_form_of_a_large_dense_input_stays_small(capsys):
    # genus 10, rank 20, 33-bit entries: without size reduction between
    # pairs the adapted basis grew to 28,000 bits, past the interpreter's
    # int-to-str limit, and the CLI died in json.dumps
    rng = random.Random(1033)
    vectors = [[rng.randrange(-(2**32), 2**32) for _ in range(20)] for _ in range(20)]
    lat = Sublattice(vectors)
    start = time.perf_counter()
    nf = alternating_normal_form(lat)
    assert time.perf_counter() - start < 5.0
    assert max_bits(nf.basis.vectors) < 4096 and max_bits(nf.change) < 4096
    assert mat_mul(nf.change, vectors) == [list(v) for v in nf.basis.vectors]
    assert nf.basis.gram_matrix() == block_gram(nf.divisors)
    assert prod(nf.divisors) == determinant(lat)
    code = main(["lattice", "normal-form", "--input", json.dumps({"genus": 10, "vectors": vectors})])
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    assert json.loads(out)["divisors"] == nf.divisors


def test_normal_form_degenerate_rejected():
    with pytest.raises(DomainError):
        alternating_normal_form(Sublattice([[1, 0, 0, 0], [0, 0, 1, 0]]))


# ---------------------------------------------------------------------------
# extend_to_symplectic_basis


def test_extend_rejects_imprimitive():
    with pytest.raises(DomainError):
        extend_to_symplectic_basis([2, 0, 2, 0])


def test_extend_first_column_and_symplectic():
    rng = random.Random(5)
    j_checked = 0
    for _ in range(80):
        g = rng.randint(1, 5)
        v = [rng.randint(-5, 5) for _ in range(2 * g)]
        if not is_indivisible(v):
            continue
        a = extend_to_symplectic_basis(v)
        assert [row[0] for row in a.entries] == v
        # SpMatrix construction already verified A^T J A = J; double-check
        j = standard_gram(g)
        assert mat_eq(mat_mul(transpose(a.entries), mat_mul(j, a.entries)), j)
        j_checked += 1
    assert j_checked > 40


def test_extend_refuses_a_matrix_that_moved_the_vector(monkeypatch):
    # columns (w, -v, ...) are still symplectic, but do not start with v
    real = symplectic_lattice.SpMatrix
    monkeypatch.setattr(symplectic_lattice, "SpMatrix",
                        lambda entries: real([[r[1], -r[0]] + list(r[2:]) for r in entries]))
    with pytest.raises(DomainError, match="extension does not start with the vector"):
        extend_to_symplectic_basis([1, 2, 3, 4])


def max_bits(rows):
    return max(abs(x).bit_length() for row in rows for x in row)


def test_extend_keeps_large_entries_in_bounds():
    rng = random.Random(256)
    v = [rng.randrange(-(2**255), 2**255) for _ in range(16)]
    v[0] |= 1 << 255
    v[-1] |= 1
    assert is_indivisible(v)
    start = time.perf_counter()
    a = extend_to_symplectic_basis(v, 8)
    assert time.perf_counter() - start < 1.0
    assert [row[0] for row in a.entries] == v
    assert max_bits(a.entries) <= 2 * max_bits([v]) + 64


def column_pairings(m):
    """omega of every two columns of m, from the definition: the Gram
    matrix M^T J M, independent of SpMatrix and of standard_gram."""
    cols = list(zip(*m))
    return [[sum(c[k] * d[k + 1] - c[k + 1] * d[k] for k in range(0, len(c), 2)) for d in cols]
            for c in cols]


def j_oracle(n):
    return [[(i % 2 == 0 and k == i + 1) - (i % 2 == 1 and k == i - 1) for k in range(n)]
            for i in range(n)]


def check_moves(v):
    """A = _moves_to_e0(v) sends v to e0 and is symplectic, and the
    extension is its inverse, whose first column is v."""
    n = len(v)
    a = _moves_to_e0(v)
    assert [sum(map(mul, row, v)) for row in a] == [1] + [0] * (n - 1)
    assert column_pairings(a) == j_oracle(n)
    e = extend_to_symplectic_basis(v).entries
    assert [row[0] for row in e] == v
    assert mat_mul(a, e) == identity(n)
    return a, e


def primitive(v):
    d = 0
    for x in v:
        d = gcd(d, x)
    return [x // d for x in v]


def test_moves_send_the_vector_to_e0_symplectically():
    # genus 1-10, entries up to 2^64; a third of the vectors have zero
    # entries, so some pairs start empty or with one entry
    rng = random.Random(64)
    zeros = 0
    for k in range(150):
        g = rng.randint(1, 10)
        bits = rng.randint(1, 64)
        v = [0] * (2 * g)
        while not any(v):
            v = [rng.randint(-(2**bits), 2**bits) if k % 3 or rng.random() < 0.7 else 0
                 for _ in range(2 * g)]
        zeros += 0 in v
        check_moves(primitive(v))
    assert zeros > 30


def test_moves_stay_within_16_bits_of_a_generic_input():
    # when every entry is nonzero each pair's Euclid leaves a small gcd, so
    # the cross moves take small quotients; a pair left with one large entry
    # against a small a0 multiplies a row by a large quotient instead
    # (ROADMAP item 10)
    rng = random.Random(65)
    for _ in range(150):
        g = rng.randint(1, 10)
        bits = rng.randint(1, 64)
        v = [0]
        while 0 in v:
            v = primitive([rng.randint(-(2**bits), 2**bits) for _ in range(2 * g)])
        _, e = check_moves(v)
        assert max_bits(e) <= max_bits([v]) + 16


def test_moves_edge_cases():
    # (0, 1) at genus 1: one quarter turn
    assert extend_to_symplectic_basis([0, 1]).entries == [[0, -1], [1, 0]]
    # a zero pair 0 is swapped with the first pair that can fill it
    assert _moves_to_e0([0, 0, 0, 1]) == [[0, 0, 0, 1], [0, 0, -1, 0], [1, 0, 0, 0], [0, 1, 0, 0]]
    for v in ([0, 0, 3, 5], [0, 0, 0, 0, 2, -3], [0, 0, 4, 0, 0, 6, 9, 0]):
        check_moves(v)
    # a negative leading entry: the sign fix negates pair 0
    assert _moves_to_e0([-1, 0, 0, 0]) == [[-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    for v in ([-1, 0], [-5, 3, -2, 0], [-7, 0, 0, -3]):
        check_moves(v)


def test_moves_on_given_rows_are_the_product():
    # the reductions apply the moves to rows of a wider matrix; the rows
    # given are left as they are
    rng = random.Random(66)
    for _ in range(100):
        g = rng.randint(1, 6)
        v = [0] * (2 * g)
        while not any(v):
            v = [rng.randint(-50, 50) if rng.random() < 0.8 else 0 for _ in range(2 * g)]
        v = primitive(v)
        width = 2 * g + rng.randint(1, 6)
        rows = [[rng.randint(-9, 9) for _ in range(width)] for _ in range(2 * g)]
        before = [list(r) for r in rows]
        assert _moves_to_e0(v, rows) == mat_mul(_moves_to_e0(v), rows)
        assert rows == before


def test_sp_inverse_and_compose():
    rng = random.Random(9)
    for _ in range(20):
        g = rng.randint(1, 4)
        a = random_sp(g, rng)
        assert a.compose(a.inverse()) == SpMatrix(identity(2 * g))
        assert a.inverse().compose(a) == SpMatrix(identity(2 * g))


def test_sp_inverse_matches_the_matrix_product_formula():
    rng = random.Random(61)
    for _ in range(30):
        g = rng.randint(1, 5)
        a = random_sp(g, rng, steps=rng.randint(1, 8), size=2)
        j = standard_gram(g)
        product = mat_mul(j, mat_mul(transpose(a.entries), j))
        assert a.inverse().entries == [[-x for x in row] for row in product]


def test_unchecked_sp_builders_pass_the_public_constructor():
    # compose and inverse skip validation because Sp(2g, Z) is closed
    # under them; the full check agrees
    rng = random.Random(67)
    for _ in range(30):
        g = rng.randint(2, 5)
        a = random_sp(g, rng, size=2)
        b = random_sp(g, rng, size=2)
        built = [
            a.compose(b),
            a.inverse(),
            a.compose(b).inverse(),
        ]
        for m in built:
            assert SpMatrix(m.entries) == m
            assert m.genus == g


def test_sp_constructor_rejects_non_symplectic():
    with pytest.raises(DomainError, match="does not preserve"):
        SpMatrix([[1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    with pytest.raises(DomainError, match="does not preserve"):
        SpMatrix([[2, 0], [0, 1]])
    with pytest.raises(DomainError, match="square of even size"):
        SpMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_unit_perturbations_of_extensions_are_rejected():
    # SpMatrix checks only the strict upper triangle of E^T J E.  Changing
    # one entry of E changes the form on the pairs with that column, so the
    # check must refuse every perturbation that the full product refuses;
    # a few are symplectic again (E + e_a e_b^T with row a of J E a multiple
    # of e_b^T, as [[1, 1], [0, 1]] from the identity) and must pass.
    rng = random.Random(71)
    rejected = 0
    for genus in (1, 2, 3):
        n = 2 * genus
        j = standard_gram(genus)
        for _ in range(4):
            v = [0] * n
            while not is_indivisible(v):
                v = [rng.randint(-9, 9) for _ in range(n)]
            e = extend_to_symplectic_basis(v).entries
            for a in range(n):
                for b in range(n):
                    for eps in (1, -1):
                        bad = [list(row) for row in e]
                        bad[a][b] += eps
                        if mat_mul(transpose(bad), mat_mul(j, bad)) == j:
                            assert SpMatrix(bad).entries == bad
                            continue
                        with pytest.raises(DomainError, match="does not preserve the symplectic form"):
                            SpMatrix(bad)
                        rejected += 1
    assert rejected > 400


def test_sp_apply_rejects_wrong_length():
    m = SpMatrix(identity(4))
    assert m.apply([1, 2, 3, 4]) == [1, 2, 3, 4]
    # a short vector used to be applied to a prefix, a long one to raise
    # a bare IndexError
    for v in ([1, 2], [1, 2, 3, 4, 5, 6]):
        with pytest.raises(DomainError, match="vector length"):
            m.apply(v)


def test_sublattice_rejects_dependent_generators():
    big = 2**150 + 7
    for vectors in (
        [[1, 2, 3, 4], [2, 4, 6, 8]],
        [[1, 0, 0, 0], [0, 0, 0, 0]],
        [[big, 1, 0, 0], [0, big, 1, 0], [big, 1 + big, 1, 0]],
    ):
        with pytest.raises(DomainError, match="generators are linearly dependent"):
            Sublattice(vectors)
    assert Sublattice([[big, 1, 0, 0], [0, big, 1, 0], [big, 1 + big, 2, 0]]).rank == 3


def shaped_rows(rng, shape, n):
    """Integer rows of width n: echelon, echelon with a zero row, echelon
    with a repeated leading column, one row a combination of the others,
    or any rows; all but the echelon ones shuffled."""
    if shape in ("dependent", "any"):
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, n))]
        if shape == "dependent":
            coeffs = [rng.randint(-2, 2) for _ in rows]
            rows.append([sum(c * r[i] for c, r in zip(coeffs, rows)) for i in range(n)])
    else:
        k = rng.randint(2 if shape == "repeated lead" else 1, n)
        leads = sorted(rng.sample(range(n), k))
        if shape == "repeated lead":
            j = rng.randrange(1, k)
            leads[j] = leads[j - 1]
        rows = [[0] * p + [rng.choice([-3, -2, -1, 1, 2, 3])]
                + [rng.randint(-3, 3) for _ in range(n - p - 1)] for p in leads]
        if shape == "zero row":
            rows.insert(rng.randint(0, k), [0] * n)
    if shape != "echelon":
        rng.shuffle(rows)
    return rows


def test_sublattice_accepts_exactly_the_independent_rows(monkeypatch):
    ranks = []
    real = symplectic_lattice.integer_rank

    def counted(rows):
        ranks.append(rows)
        return real(rows)
    monkeypatch.setattr(symplectic_lattice, "integer_rank", counted)
    rng = random.Random(59)
    seen = set()
    for shape in ("echelon", "zero row", "repeated lead", "dependent", "any"):
        for _ in range(80):
            rows = shaped_rows(rng, shape, 2 * rng.randint(1, 4))
            independent = integer_rank(rows) == len(rows)
            ranks.clear()
            try:
                lattice = Sublattice(rows)
            except DomainError as refusal:
                assert str(refusal) == "generators are linearly dependent"
                assert not independent
            else:
                assert independent and lattice.rank == len(rows)
            # the echelon shape alone proves independence
            leads = [next((k for k, x in enumerate(r) if x), len(r)) for r in rows]
            echelon = leads == sorted(set(leads)) and leads[-1] < len(rows[0])
            assert (ranks == []) == echelon
            assert echelon or shape != "echelon"
            seen.add((shape, independent))
    assert seen == {("echelon", True), ("zero row", False), ("repeated lead", True),
                    ("repeated lead", False), ("dependent", False), ("any", True), ("any", False)}


def test_gram_matrix_is_the_matrix_of_pairings():
    rng = random.Random(61)
    for _ in range(50):
        n = 2 * rng.randint(1, 5)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(rng.randint(1, n))]
        if integer_rank(rows) == len(rows):
            lattice = Sublattice(rows)
            assert lattice.gram_matrix() == [[omega(u, v) for v in rows] for u in rows]


# ---------------------------------------------------------------------------
# rank-2 transitivity


def test_map_rank2_spec_pair():
    u = Sublattice([[1, 0, 0, 0], [0, 2, 1, 0]])
    u2 = Sublattice([[1, 0, -1, 0], [0, 1, 0, -1]])
    assert determinant(u) == 2 and determinant(u2) == 2
    delta = map_rank2_sublattice(u, u2)
    assert delta.apply_lattice(u).same_lattice(u2)


def test_map_rank2_requires_equal_determinants():
    u = Sublattice([[1, 0, 0, 0], [0, 2, 1, 0]])
    u2 = Sublattice([[1, 0, 0, 0], [0, 3, 1, 0]])
    with pytest.raises(DomainError, match="unequal determinants"):
        map_rank2_sublattice(u, u2)


def test_map_rank2_rejects_incomplete():
    u = Sublattice([[1, 0, 0, 0], [0, 2, 0, 0]])  # saturation adds f0
    u2 = Sublattice([[1, 0, 0, 0], [0, 2, 1, 0]])
    with pytest.raises(DomainError, match="not complete"):
        map_rank2_sublattice(u, u2)


def test_map_rank2_divisible_residue():
    # the residue mod e0 can be divisible (here 3*e1 with det 2): the lattice
    # is still complete because gcd(3, 2) = 1
    u = Sublattice([[1, 0, 0, 0, 0, 0], [0, 2, 3, 0, 0, 0]])
    assert is_complete(u)
    u2 = Sublattice([[1, 0, 0, 0, 0, 0], [0, 2, 1, 0, 0, 0]])
    delta = map_rank2_sublattice(u, u2)
    assert delta.apply_lattice(u).same_lattice(u2)


def test_map_rank2_randomized():
    rng = random.Random(101)
    for _ in range(60):
        g = rng.randint(1, 4)
        det = 1 if g == 1 else rng.randint(1, 12)
        u = random_complete_rank2(g, det, rng)
        u2 = random_complete_rank2(g, det, rng)
        assert determinant(u) == det
        delta = map_rank2_sublattice(u, u2)
        assert delta.apply_lattice(u).same_lattice(u2)
        assert SpMatrix(delta.entries) == delta


# ---------------------------------------------------------------------------
# rank-4 transitivity


def test_map_rank4_randomized():
    rng = random.Random(202)
    for _ in range(25):
        g = rng.randint(3, 5)
        det = rng.randint(1, 10)
        u = random_complete_rank4(g, det, rng)
        u2 = random_complete_rank4(g, det, rng)
        assert determinant(u) == det
        delta = map_rank4_sublattice(u, u2)
        assert delta.apply_lattice(u).same_lattice(u2)
        assert SpMatrix(delta.entries) == delta


# The last genus-6 map4 inputs of two benchmark rounds (periods workload,
# seed 1 round 56 and seed 11 round 31).  Before the complement was
# LLL-reduced, the successive extensions multiplied the entry sizes, and
# neither map finished within 30 s.
CLIFF_MAP4_INPUTS = [
    (
        [[637, 476, -682, -700, 472, -83, 141, 720, 499, -689, 41, 642],
         [664, 497, -712, -730, 492, -87, 147, 752, 521, -719, 43, 670],
         [-667, -499, 715, 732, -495, 87, -146, -753, -523, 721, -44, -671],
         [1988, 1488, -2130, -2179, 1473, -261, 433, 2244, 1560, -2148, 133, 2001]],
        [[30, -62, 205, -234, 53, 190, 217, 231, -163, 182, -96, -147],
         [-25, 53, -174, 199, -45, -161, -184, -196, 138, -154, 81, 125],
         [19, -33, 125, -147, 32, 115, 131, 141, -97, 109, -55, -89],
         [-15, 34, -106, 120, -28, -99, -112, -118, 86, -94, 51, 77]],
    ),
    (
        [[135, -390, 66, -303, 129, 87, -130, 131, 181, -66, -24, -17],
         [-120, 349, -60, 273, -115, -79, 118, -117, -161, 60, 24, 15],
         [83, -229, 31, -163, 79, 47, -63, 75, 113, -30, -3, -10],
         [-548, 1450, -157, 973, -516, -276, 345, -462, -745, 157, -29, 66]],
        [[-73, -35, 3, -58, -6, -15, -46, -61, -34, 19, -14, 16],
         [55, 27, -2, 44, 5, 12, 35, 46, 25, -14, 10, -12],
         [-55, -26, 3, -41, -3, -12, -36, -45, -27, 14, -12, 11],
         [-590, -284, 22, -435, -31, -120, -372, -480, -296, 164, -121, 120]],
    ),
]


@pytest.mark.parametrize("source, target", CLIFF_MAP4_INPUTS)
def test_map_rank4_recorded_cliff_inputs_stay_small(source, target):
    u, u2 = Sublattice(source), Sublattice(target)
    start = time.perf_counter()
    delta = map_rank4_sublattice(u, u2)
    assert time.perf_counter() - start < 2.0
    assert SpMatrix(delta.entries) == delta
    assert delta.apply_lattice(u).same_lattice(u2)
    assert max_bits(delta.entries) < 512


def test_map_rank4_genus2_full_lattice():
    rng = random.Random(7)
    u = random_complete_rank4(2, 1, rng)
    u2 = random_complete_rank4(2, 1, rng)
    delta = map_rank4_sublattice(u, u2)
    assert delta.apply_lattice(u).same_lattice(u2)


def test_map_rank4_scaled_form_rejected():
    # both blocks scaled by 2: the restricted form is divisible, which
    # cannot happen for complete sublattices and must be flagged
    vecs = [
        [2, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0],
        [0, 0, 2, 0, 0, 0],
        [0, 0, 0, 1, 0, 0],
    ]
    u = Sublattice(vecs)
    with pytest.raises(DomainError):
        map_rank4_sublattice(u, u)


# ---------------------------------------------------------------------------
# certificates that must hold without asserts


def wrong_for(lattice, reduce, wrong):
    """reduce, except that it returns wrong on the given lattice."""
    return lambda arg: wrong if arg is lattice else reduce(arg)


def test_map_rank2_refuses_a_wrong_target_reduction(monkeypatch):
    u = Sublattice([[1, 0, 0, 0], [0, 2, 1, 0]])
    u2 = Sublattice([[1, 0, -1, 0], [0, 1, 0, -1]])
    reduce = symplectic_lattice._reduce_to_canonical
    monkeypatch.setattr(symplectic_lattice, "_reduce_to_canonical",
                        wrong_for(u2, reduce, SpMatrix(identity(4))))
    with pytest.raises(DomainError, match="rank-2 mapping failed"):
        map_rank2_sublattice(u, u2)


def test_map_rank4_refuses_a_wrong_target_reduction(monkeypatch):
    rng = random.Random(202)
    u = random_complete_rank4(3, 2, rng)
    u2 = random_complete_rank4(3, 2, rng)
    reduce = symplectic_lattice._reduce_to_canonical
    monkeypatch.setattr(symplectic_lattice, "_reduce_to_canonical",
                        wrong_for(u2, reduce, SpMatrix(identity(6))))
    with pytest.raises(DomainError, match="rank-4 mapping failed"):
        map_rank4_sublattice(u, u2)


# span(e0, 3 f0 + 2 e1): residue m = 2, so 2 = m mod 3 takes the SL2 step
SL2_LATTICE = Sublattice([[1, 0, 0, 0], [0, 3, 2, 0]])


@pytest.mark.parametrize("corrupt, message", [
    # still in SL2(Z), so only the image comparison can see it: adding row 0
    # to row 1 moves the first column of the inverse off (t, d)
    (lambda m: [m[0], [m[1][0] + m[0][0], m[1][1] + m[0][1]]], "canonical reduction failed"),
    # determinant 2 with the same first column of the inverse: the lattice
    # lands right, and the check of the reduction refuses the matrix
    (lambda m: [[2 * m[0][0], 2 * m[0][1]], m[1]], "does not preserve the symplectic form"),
])
def test_a_corrupted_sl2_step_is_refused(monkeypatch, corrupt, message):
    # the SL2 step is the one call of the moves on a 2-vector with no rows
    real, calls = symplectic_lattice._moves_to_e0, []

    def moves(v, a=None):
        if len(v) == 2 and a is None:
            calls.append(v)
            return corrupt(real(v))
        return real(v, a)
    monkeypatch.setattr(symplectic_lattice, "_moves_to_e0", moves)
    with pytest.raises(DomainError, match=message):
        map_rank2_sublattice(SL2_LATTICE, SL2_LATTICE)
    # t = 2, the inverse of m = 2 modulo d = 3
    assert calls == [[2, 3]]


def test_moves_that_miss_e0_are_refused(monkeypatch):
    # a quarter turn of pair 0 after the moves is symplectic, but sends the
    # vector to -f0, not e0
    real = symplectic_lattice._moves_to_e0

    def moves(v, a=None):
        out = real(v, a)
        return [out[1], [-x for x in out[0]]] + out[2:]
    monkeypatch.setattr(symplectic_lattice, "_moves_to_e0", moves)
    with pytest.raises(DomainError, match="the moves do not send the vector to e0"):
        map_rank2_sublattice(SL2_LATTICE, SL2_LATTICE)


def test_each_map_makes_three_sp_checks(monkeypatch):
    # one per canonical reduction and one on the returned map
    checks = []
    init = SpMatrix.__init__

    def counted(self, entries):
        checks.append(len(entries))
        init(self, entries)
    rng = random.Random(202)
    cases = [(map_rank2_sublattice, SL2_LATTICE, SL2_LATTICE),
             (map_rank2_sublattice, random_complete_rank2(4, 6, rng), random_complete_rank2(4, 6, rng)),
             (map_rank4_sublattice, random_complete_rank4(4, 5, rng), random_complete_rank4(4, 5, rng))]
    monkeypatch.setattr(SpMatrix, "__init__", counted)
    for mapper, u, u2 in cases:
        checks.clear()
        assert mapper(u, u2).apply_lattice(u).same_lattice(u2)
        assert len(checks) == 3


@pytest.mark.parametrize("vectors", [
    # no residue beside d = 2
    [[1, 0, 0, 0], [0, 2, 0, 0]],
    # the residue 2 e1 shares the factor 2 with d
    [[1, 0, 0, 0], [0, 2, 2, 0]],
])
def test_reduction_refuses_an_incomplete_pair(vectors):
    # the reduction's own refusals, which the maps rely on for completeness
    lattice = Sublattice(vectors)
    assert not is_complete(lattice)
    with pytest.raises(DomainError, match="sublattice not complete"):
        symplectic_lattice._reduce_to_canonical(lattice)


def test_map_refuses_a_product_outside_sp(monkeypatch):
    # an unchecked reduction that is not symplectic: the check of the
    # returned map refuses the product
    u = Sublattice([[1, 0, 0, 0], [0, 2, 1, 0]])
    scaled = SpMatrix._trusted([[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    reduce = symplectic_lattice._reduce_to_canonical
    monkeypatch.setattr(symplectic_lattice, "_reduce_to_canonical", wrong_for(u, reduce, scaled))
    with pytest.raises(DomainError, match="does not preserve the symplectic form"):
        map_rank2_sublattice(u, u)


def test_canonical_reduction_is_checked(monkeypatch):
    # the reduction lands on span(e0, 2 f0 + e1), not on this target
    monkeypatch.setattr(symplectic_lattice, "_canonical_rank2",
                        lambda d, genus: Sublattice([[1, 0, 0, 0], [0, d, 0, 1]]))
    u = Sublattice([[1, 0, 0, 0], [0, 2, 1, 0]])
    with pytest.raises(DomainError, match="canonical reduction failed"):
        map_rank2_sublattice(u, u)


def canonical_pair(d, genus):
    """Oracle rows of the canonical lattice of d: e0, and f0 at d = 1,
    else d f0 + e1."""
    n = 2 * genus
    e0, c = [0] * n, [0] * n
    e0[0], c[1] = 1, d
    if d > 1:
        c[2] = 1
    return e0, c


def test_reduced_pairs_land_on_e0_with_a_free_e0_coefficient():
    # the images x', y' of each adapted pair, from the pair's first column
    # on, are e0 and y' = k e0 + c for some integer k, which need not be 0
    rng = random.Random(271)
    lattices = [random_complete_rank2(rng.randint(2, 5), rng.randint(1, 12), rng) for _ in range(30)]
    lattices += [random_complete_rank4(rng.randint(3, 5), rng.randint(1, 10), rng) for _ in range(15)]
    coefficients = []
    for lattice in lattices:
        r = symplectic_lattice._reduce_to_canonical(lattice)
        nf = alternating_normal_form(lattice)
        vectors = nf.basis.vectors
        for lo, d in zip((0, 2), nf.divisors):
            x, y = (r.apply(v) for v in vectors[lo : lo + 2])
            assert not any(x[:lo]) and not any(y[:lo])
            e0, c = canonical_pair(d, lattice.genus - lo // 2)
            assert x[lo:] == e0
            assert y[lo + 1 :] == c[1:]
            coefficients.append(y[lo])
    assert any(coefficients)


def test_a_reduction_off_e0_onto_the_canonical_lattice_is_refused(monkeypatch):
    # report x' + y' as the image of x: span(x' + y', y') is still the
    # canonical lattice, so comparing lattices would accept it, but x' is
    # no longer e0.  _reduce_pair takes the images of x, y, then of x after
    # the moves, and at its end of x and of y: five calls in all
    real, calls = symplectic_lattice.mat_vec, []

    def images(a, v):
        calls.append(v)
        out = real(a, v)
        if len(calls) == 4:
            out = [p + q for p, q in zip(out, real(a, calls[2]))]
        return out
    lattice = Sublattice([[1, 0, 0, 0], [0, 2, 1, 0]])
    x, y = alternating_normal_form(lattice).basis.vectors
    r = symplectic_lattice._reduce_to_canonical(lattice)
    moved_x, moved_y = r.apply(x), r.apply(y)
    shifted = [p + q for p, q in zip(moved_x, moved_y)]
    assert shifted != list(canonical_pair(2, 2)[0])
    assert row_hnf([shifted, moved_y]) == row_hnf(list(canonical_pair(2, 2)))
    monkeypatch.setattr(symplectic_lattice, "mat_vec", images)
    with pytest.raises(DomainError, match="canonical reduction failed"):
        symplectic_lattice._reduce_to_canonical(lattice)
    assert len(calls) == 5


def incomplete_map_inputs():
    """Each incomplete input of the maps pin family with a complete partner
    of the same determinant, at genus 3: a residue missing beside d = 2, an
    imprimitive adapted vector, a second pair of divisor 4 with no residue,
    and first divisor 2."""
    e0, f0, e1, f1 = ([int(i == k) for i in range(6)] for k in range(4))
    rank2, rank4 = [e0, [0, 2, 1, 0, 0, 0]], [e0, f0, e1, [0, 0, 0, 4, 1, 0]]
    return [
        (map_rank2_sublattice, [e0, [2 * x for x in f0]], rank2),
        (map_rank2_sublattice, [[2 * x for x in e0], f0], rank2),
        (map_rank4_sublattice, [e0, f0, e1, [4 * x for x in f1]], rank4),
        (map_rank4_sublattice, [[2 * x for x in e0], f0, [2 * x for x in e1], f1], rank4),
    ]


@pytest.mark.parametrize("mapper, incomplete, complete", incomplete_map_inputs())
def test_maps_refuse_incomplete_input_on_either_side(mapper, incomplete, complete):
    bad, good = Sublattice(incomplete), Sublattice(complete)
    assert not is_complete(bad) and is_complete(good)
    assert determinant(bad) == determinant(good)
    for u, u2 in ((bad, good), (good, bad), (bad, bad)):
        with pytest.raises(DomainError) as refusal:
            mapper(u, u2)
        assert str(refusal.value) == "sublattice not complete"


def test_maps_of_complete_input_never_test_completeness(monkeypatch):
    calls = []
    real = symplectic_lattice.is_complete

    def counted(lattice):
        calls.append(lattice)
        return real(lattice)
    monkeypatch.setattr(symplectic_lattice, "is_complete", counted)
    rng = random.Random(313)
    for k in range(50):
        if k % 2:
            g, d = rng.randint(3, 5), rng.randint(1, 10)
            u, u2 = random_complete_rank4(g, d, rng), random_complete_rank4(g, d, rng)
            mapper = map_rank4_sublattice
        else:
            g = rng.randint(1, 6)
            d = 1 if g == 1 else rng.randint(1, 15)
            u, u2 = random_complete_rank2(g, d, rng), random_complete_rank2(g, d, rng)
            mapper = map_rank2_sublattice
        assert mapper(u, u2).apply_lattice(u).same_lattice(u2)
    assert calls == []


# ---------------------------------------------------------------------------
# assorted cross-checks


def test_hnf_is_canonical_under_recombination():
    rng = random.Random(31)
    for _ in range(30):
        g = rng.randint(1, 3)
        det = 1 if g == 1 else rng.randint(1, 6)
        lat = random_complete_rank2(g, det, rng)
        a, b = (list(v) for v in lat.vectors)
        # apply a random unimodular recombination; the HNF must not move
        for _ in range(4):
            c = rng.randint(-3, 3)
            if rng.random() < 0.5:
                a = [x + c * y for x, y in zip(a, b)]
            else:
                b = [x + c * y for x, y in zip(b, a)]
        other = Sublattice([a, b])
        assert mat_eq(lat.hnf(), other.hnf())


@st.composite
def lattices_with_scaled_rows(draw):
    """Sublattices of rank up to 2g, some rows scaled or combined, so that
    saturated and non-saturated ones both occur."""
    g = draw(st.integers(1, 3))
    n = 2 * g
    k = draw(st.integers(1, n))
    rows = draw(st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=k, max_size=k))
    for i in range(k):
        rows[i] = [draw(st.sampled_from([1, 1, 2, 3, -4])) * x for x in rows[i]]
    if k > 1 and draw(st.booleans()):
        c = draw(st.integers(-3, 3))
        rows[1] = [x + c * y for x, y in zip(rows[1], rows[0])]
    return rows


@settings(max_examples=300, deadline=None)
@given(lattices_with_scaled_rows())
def test_is_complete_agrees_with_saturation(rows):
    assume(integer_rank(rows) == len(rows))
    lat = Sublattice(rows)
    assert is_complete(lat) == mat_eq(lat.hnf(), saturate(lat).hnf())


def test_integer_kernel_is_saturated():
    rng = random.Random(47)
    for _ in range(30):
        m = rng.randint(1, 3)
        n = rng.randint(2, 5)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        ker = integer_kernel(rows, n)
        for v in ker:
            assert all(sum(r[i] * v[i] for i in range(n)) == 0 for r in rows)
        if ker:
            sat = row_hnf([list(v) for v in ker])
            from periodforms.intlinalg import saturate_rows

            assert mat_eq(sat, saturate_rows([list(v) for v in ker], n))


def broken_normal_form(monkeypatch, rank, breaks):
    """alternating_normal_form, except that breaks(divisors, vectors) edits
    its result on lattices of the given rank."""
    real = symplectic_lattice.alternating_normal_form

    def patched(lattice):
        nf = real(lattice)
        if lattice.rank != rank:
            return nf
        divisors, vectors = list(nf.divisors), [list(v) for v in nf.basis.vectors]
        breaks(divisors, vectors)
        return NormalForm(divisors, Sublattice(vectors, genus=lattice.genus), nf.change)

    monkeypatch.setattr(symplectic_lattice, "alternating_normal_form", patched)


RANK2 = Sublattice([[1, 0, 0, 0], [0, 2, 1, 0]])


def test_rank2_reduction_refuses_a_divisible_adapted_vector(monkeypatch):
    def breaks(divisors, vectors):
        vectors[0] = [2 * t for t in vectors[0]]

    broken_normal_form(monkeypatch, 2, breaks)
    with pytest.raises(DomainError, match="adapted basis of a complete lattice is primitive"):
        map_rank2_sublattice(RANK2, RANK2)


def test_rank2_reduction_refuses_a_wrong_divisor(monkeypatch):
    def breaks(divisors, vectors):
        divisors[0] += 1

    broken_normal_form(monkeypatch, 2, breaks)
    with pytest.raises(DomainError, match="pairing with e0 must equal the divisor"):
        map_rank2_sublattice(RANK2, RANK2)


def test_rank4_reduction_refuses_a_second_factor_off_the_complement(monkeypatch):
    def breaks(divisors, vectors):
        # x2 + x1 pairs like x2 with the second block but moves onto e0
        vectors[2] = [a + b for a, b in zip(vectors[2], vectors[0])]

    u = random_complete_rank4(3, 2, random.Random(202))
    broken_normal_form(monkeypatch, 4, breaks)
    with pytest.raises(DomainError, match="second factor must land in the complement of e0, f0"):
        map_rank4_sublattice(u, u)


def test_rank4_reduction_refuses_a_wrong_second_divisor(monkeypatch):
    def breaks(divisors, vectors):
        divisors[1] += 1

    u = random_complete_rank4(3, 2, random.Random(202))
    broken_normal_form(monkeypatch, 4, breaks)
    with pytest.raises(DomainError, match="pairing with e0 must equal the divisor"):
        map_rank4_sublattice(u, u)

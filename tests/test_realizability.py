import itertools
import math
import random
from fractions import Fraction

import pytest

from periodforms import realizability
from periodforms.errors import DomainError
from periodforms.exact import GaussianRational, parse_rational
from periodforms.intlinalg import mat_vec
from periodforms.realizability import (
    CohomologyClass,
    area,
    elliptic_pair_criterion,
    hodge_riemann_check,
    is_realizable_elliptic_pair,
    is_realizable_line,
    isotropy_check,
    line_determinant,
    line_verdict_from_floats,
    period_group,
    polyperiod_dimension_gap,
    severi_range,
)
from periodforms.symplectic_lattice import Sublattice, determinant, omega, saturate

from test_symplectic_lattice import is_member, random_sp


def cls(genus, *vals):
    periods = []
    for v in vals:
        if isinstance(v, tuple):
            periods.append(GaussianRational(Fraction(v[0]), Fraction(v[1])))
        else:
            periods.append(GaussianRational(Fraction(v), 0))
    return CohomologyClass(genus, periods)


def sl2_act(matrix, c):
    """The class with (Re c, Im c) acted on by a rational 2x2 matrix."""
    (m11, m12), (m21, m22) = [[Fraction(x) for x in row] for row in matrix]
    periods = [GaussianRational(m11 * p.re + m12 * p.im, m21 * p.re + m22 * p.im)
               for p in c.periods]
    return CohomologyClass(c.genus, periods)


def random_class(genus, rng, max_num=10, max_den=4):
    def q():
        return Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))

    periods = [GaussianRational(q(), q()) for _ in range(2 * genus)]
    return CohomologyClass(genus, periods)


def brute_period_membership(c, z, bound=4):
    """Oracle: z lies in the period group iff some small integer combination
    of the periods equals it.  Only valid when the true coefficients are
    small, which the test fixtures arrange."""
    pts = [p for p in c.periods if not p.is_zero()]
    if not pts:
        return z.is_zero()
    if len(pts) > 3:
        pts = pts[:3]
    span = [(a, b, c3) for a in range(-bound, bound + 1)
            for b in range(-bound, bound + 1)
            for c3 in range(-bound, bound + 1)]
    while len(pts) < 3:
        pts.append(GaussianRational(0, 0))
    for a, b, c3 in span:
        if pts[0] * a + pts[1] * b + pts[2] * c3 == z:
            return True
    return False


# ---------------------------------------------------------------------------
# area and period group


def test_area_worked_values():
    assert area(cls(2, 1, (0, 1), 0, 0)) == 1
    assert area(cls(2, 1, (0, 1), 1, (0, 1))) == 2
    assert area(cls(2, 1, 2, 3, 4)) == 0
    assert area(cls(2, (0, 1), 1, 0, 0)) == -1


def test_area_vanishes_iff_parts_dependent():
    rng = random.Random(3)
    for _ in range(40):
        g = rng.randint(2, 4)
        c = random_class(g, rng)
        re = c.re_vector()
        lam = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        dep = CohomologyClass(
            g, [GaussianRational(x, lam * x) for x in re]
        )
        assert area(dep) == 0


def mixed_class(genus, rng):
    """Periods with mixed denominators, about a fifth of the parts zero,
    and now and then a zero real or imaginary part throughout."""
    def q():
        if rng.random() < 0.2:
            return Fraction(0)
        return Fraction(rng.randint(-20, 20), rng.choice([1, 2, 3, 4, 6, 7, 9, 12, 35]))

    re, im = [q() for _ in range(2 * genus)], [q() for _ in range(2 * genus)]
    if rng.random() < 0.1:
        re = [Fraction(0)] * (2 * genus)
    return CohomologyClass(genus, [GaussianRational(x, y) for x, y in zip(re, im)])


def test_area_is_the_rational_pairing():
    rng = random.Random(83)
    signs = set()
    for _ in range(300):
        c = mixed_class(rng.randint(2, 5), rng)
        # the oracle: the pairing in Fraction arithmetic
        expected = omega(c.re_vector(), c.im_vector())
        got = area(c)
        assert type(got) is Fraction and got == expected
        signs.add((expected > 0) - (expected < 0))
    assert signs == {-1, 0, 1}


def test_period_group_reduced_bases():
    pg = period_group(cls(2, 1, (0, 1), 0, 0))
    assert pg.rank == 2
    assert [z.to_pair() for z in pg.basis] == [["1", "0"], ["0", "1"]]
    pg = period_group(
        cls(2, 1, (0, 1), (Fraction(1, 2), 0), (0, Fraction(1, 2)))
    )
    assert [z.to_pair() for z in pg.basis] == [["1/2", "0"], ["0", "1/2"]]
    pg = period_group(cls(2, 1, (Fraction(1, 3), 0), 0, 0))
    assert pg.rank == 1
    assert period_group(cls(2, 0, 0, 0, 0)).rank == 0


def test_period_group_contains_all_periods():
    rng = random.Random(7)
    for _ in range(30):
        c = random_class(2, rng, max_num=3, max_den=2)
        pg = period_group(c)
        if pg.rank < 2:
            continue
        z1, z2 = pg.basis
        # each period must be an integer combination of the reduced basis
        det = z1.re * z2.im - z2.re * z1.im
        for p in c.periods:
            x = (p.re * z2.im - z2.re * p.im) / det
            y = (z1.re * p.im - p.re * z1.im) / det
            assert x.denominator == 1 and y.denominator == 1


def test_covolume_values_and_degenerate():
    assert period_group(cls(2, 1, (0, 1), 0, 0)).covolume() == 1
    basis_half = period_group(
        cls(2, 1, (0, 1), (Fraction(1, 2), 0), (0, Fraction(1, 2)))
    )
    assert basis_half.covolume() == Fraction(1, 4)
    assert period_group(cls(2, 2, (0, 1), 0, 0)).covolume() == 2
    with pytest.raises(DomainError, match="degenerate"):
        period_group(cls(2, 1, 3, 0, 0)).covolume()


# ---------------------------------------------------------------------------
# determinants and the line decision


def test_line_determinant_worked_values():
    assert line_determinant(cls(2, 1, (0, 1), 0, 0)) == 1
    assert line_determinant(cls(2, 1, (0, 1), 1, (0, 1))) == 2
    assert (
        line_determinant(
            cls(2, 1, (0, 1), (Fraction(1, 2), 0), (0, Fraction(1, 2)))
        )
        == 5
    )
    with pytest.raises(DomainError):
        line_determinant(cls(2, 1, 2, 0, 0))


def test_fundamental_identity_random():
    rng = random.Random(19)
    seen = 0
    while seen < 120:
        g = rng.randint(2, 5)
        c = random_class(g, rng)
        a = area(c)
        if a == 0:
            continue
        if a < 0:
            c = c.conjugate()
            a = -a
        pg = period_group(c)
        assert pg.rank == 2
        assert a == line_determinant(c) * pg.covolume()
        seen += 1


def test_line_verdict_worked_examples():
    v = is_realizable_line(cls(2, 1, (0, 1), 0, 0))
    assert not v.realizable and v.det == 1 and v.area == v.covolume == 1
    assert v.reason == "area<=covolume"
    v = is_realizable_line(cls(2, 1, (0, 1), 1, (0, 1)))
    assert v.realizable and v.det == 2 and v.reason == "area>covolume"
    v = is_realizable_line(cls(2, 1, 2, 3, 4))
    assert not v.realizable and v.reason == "area<=0"
    assert v.to_dict()["covolume"] == "degenerate"


def test_line_verdict_rejections():
    with pytest.raises(DomainError):
        is_realizable_line(cls(1, 1, (0, 1)))
    with pytest.raises(DomainError):
        is_realizable_line(cls(2, 0, 0, 0, 0))


def test_line_verdict_refuses_a_wrong_determinant(monkeypatch):
    # area = det x covolume is certified by an explicit check, not an assert
    monkeypatch.setattr(realizability, "line_determinant", lambda c: 2)
    with pytest.raises(DomainError, match="area 1 != det 2 x covolume 1"):
        is_realizable_line(cls(2, 1, (0, 1), 0, 0))


def test_line_verdict_negative_area_not_realizable():
    v = is_realizable_line(cls(2, (0, 1), 1, 0, 0))
    assert not v.realizable and v.reason == "area<=0"
    # the magnitudes still satisfy the identity
    assert v.det == 1 and v.covolume == 1 and v.area == -1


def test_verdict_matches_det_threshold():
    rng = random.Random(37)
    seen = 0
    while seen < 80:
        c = random_class(rng.randint(2, 4), rng)
        if area(c) <= 0:
            continue
        v = is_realizable_line(c)
        assert v.realizable == (v.det >= 2)
        seen += 1


# ---------------------------------------------------------------------------
# invariance of the verdict


def test_verdict_invariant_under_plane_action():
    rng = random.Random(53)
    targets = [
        cls(2, 1, (0, 1), 0, 0),
        cls(2, 1, (0, 1), 1, (0, 1)),
        cls(2, 1, (0, 1), (Fraction(1, 2), 0), (0, Fraction(1, 2))),
    ]
    for c in targets:
        base = is_realizable_line(c).realizable
        for _ in range(25):
            a = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            b = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            d = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            if a == 0:
                a = Fraction(1)
            # choose c entry to force determinant 1
            cc = (a * d - 1) / b if b != 0 else Fraction(0)
            if b == 0:
                d = 1 / a
            m = [[a, b], [cc, d]]
            acted = sl2_act(m, c)
            assert is_realizable_line(acted).realizable == base
            assert area(acted) == area(c)
            assert line_determinant(acted) == line_determinant(c)


def test_verdict_invariant_under_ambient_symplectic_action():
    rng = random.Random(59)
    targets = [
        cls(2, 1, (0, 1), 0, 0),
        cls(2, 1, (0, 1), 1, (0, 1)),
    ]
    for c in targets:
        base = is_realizable_line(c)
        for _ in range(25):
            m = random_sp(c.genus, rng)
            periods = mat_vec(m.entries, list(c.periods))
            acted = CohomologyClass(c.genus, periods)
            v = is_realizable_line(acted)
            assert v.realizable == base.realizable
            assert v.area == base.area
            assert v.det == base.det


def test_verdict_invariant_under_complex_scaling():
    rng = random.Random(61)
    targets = [
        cls(2, 1, (0, 1), 0, 0),
        cls(2, 1, (0, 1), 1, (0, 1)),
    ]
    for c in targets:
        base = is_realizable_line(c)
        for _ in range(20):
            lam = GaussianRational(
                Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
                Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
            )
            if lam.is_zero():
                continue
            v = is_realizable_line(c.scale(lam))
            assert v.realizable == base.realizable
            norm = lam.re * lam.re + lam.im * lam.im
            assert v.area == base.area * norm
            assert v.det == base.det


# ---------------------------------------------------------------------------
# positivity and isotropy


def test_hodge_riemann_examples():
    assert hodge_riemann_check([cls(2, 1, (0, 1), 0, 0)])
    assert not hodge_riemann_check([cls(2, 1, 2, 3, 5)])
    a = cls(3, 1, (0, 1), 0, 0, 0, 0)
    b = cls(3, 0, 0, 1, (0, 1), 0, 0)
    assert hodge_riemann_check([a, b])
    with pytest.raises(DomainError):
        hodge_riemann_check([a, a])
    with pytest.raises(DomainError):
        hodge_riemann_check([])


def test_hodge_riemann_positive_definite_triple():
    # h = [[2, 0, 2], [0, 2, 0], [2, 0, 4]]: leading minors 2, 4, 8
    a = cls(3, 1, (0, 1), 0, 0, 0, 0)
    b = cls(3, 0, 0, 1, (0, 1), 0, 0)
    c = cls(3, 1, (0, 1), 0, 0, 1, (0, 1))
    assert hodge_riemann_check([a, b, c])


def test_hodge_riemann_triple_fails_only_at_the_full_minor():
    # h = [[2, 0, 4], [0, 2, 0], [4, 0, 6]]: every diagonal entry and the
    # 1 x 1 and 2 x 2 leading minors (2, 4) are positive, det h = -8
    a = cls(3, 1, (0, 1), 0, 0, 0, 0)
    b = cls(3, 0, 0, 1, (0, 1), 0, 0)
    c = cls(3, 2, (0, 2), 0, 0, 1, (0, -1))
    assert hodge_riemann_check([a, b]) and hodge_riemann_check([c])
    assert not hodge_riemann_check([a, b, c])


def test_hodge_riemann_matches_area_for_singletons():
    rng = random.Random(67)
    for _ in range(40):
        c = random_class(rng.randint(2, 4), rng)
        if c.is_zero():
            continue
        assert hodge_riemann_check([c]) == (area(c) > 0)


def test_hodge_riemann_rejects_a_complex_dependence():
    # a and i*a are independent over R: only the i*tau rows expose them
    a = cls(2, 1, (0, 1), (2, -1), 3)
    with pytest.raises(DomainError, match="classes are linearly dependent"):
        hodge_riemann_check([a, a.scale(GaussianRational(0, 1))])


def times_i(z):
    return GaussianRational(-z.im, z.re)


def gaussian_det(m):
    """Cofactor determinant of a square matrix of size at most 3 over Q(i)."""
    if len(m) == 1:
        return m[0][0]
    if len(m) == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def gaussian_minor_check(taus):
    """Oracle: the Hodge-Riemann check over Q(i).  The classes are
    dependent when every k x k minor of their period matrix vanishes;
    otherwise h is positive definite when its leading minors are."""
    k = len(taus)
    rows = [list(t.periods) for t in taus]
    if all(
        gaussian_det([[row[c] for c in cols] for row in rows]).is_zero()
        for cols in itertools.combinations(range(len(rows[0])), k)
    ):
        raise DomainError("classes are linearly dependent")
    conj = [[p.conjugate() for p in row] for row in rows]
    h = [[times_i(omega(rows[j], conj[m])) for m in range(k)] for j in range(k)]
    minors = [gaussian_det([row[:size] for row in h[:size]]) for size in range(1, k + 1)]
    assert all(m.im == 0 for m in minors), "hermitian minors are real"
    return all(m.re > 0 for m in minors)


def riemann_classes(genus, k, rng):
    """k classes e_j + sum_m Z_jm f_m with Z = X + iY symmetric, moved by a
    random Sp(2g, Z) matrix; h is 2Y on them, so about half are positive.
    Some tuples get a last class that is a real or complex combination."""
    n = 2 * genus
    q = lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    z = [[None] * genus for _ in range(genus)]
    for i in range(genus):
        for j in range(i, genus):
            z[i][j] = z[j][i] = GaussianRational(q(), q() + (3 if i == j else 0))
    m = random_sp(genus, rng).entries
    taus = []
    for j in range(k):
        v = [GaussianRational(0)] * n
        for col in range(genus):
            v[2 * col] = GaussianRational(int(col == j))
            v[2 * col + 1] = z[j][col]
        re = mat_vec(m, [x.re for x in v])
        im = mat_vec(m, [x.im for x in v])
        taus.append(CohomologyClass(genus, [GaussianRational(x, y) for x, y in zip(re, im)]))
    if k > 1 and rng.random() < 0.3:
        coeffs = [GaussianRational(q(), q() if rng.random() < 0.5 else 0) for _ in taus[:-1]]
        periods = [
            sum((c * t.periods[i] for c, t in zip(coeffs, taus[:-1])), GaussianRational())
            for i in range(n)
        ]
        taus[-1] = CohomologyClass(genus, periods)
    return taus


def verdict_or_error(check, *args):
    try:
        return check(*args)
    except DomainError as exc:
        return str(exc)


def test_hodge_riemann_matches_the_gaussian_minors():
    rng = random.Random(71)
    seen = set()
    for _ in range(150):
        genus = rng.randint(2, 4)
        taus = riemann_classes(genus, rng.randint(1, min(3, genus)), rng)
        if rng.random() < 0.3:
            taus = [random_class(genus, rng) for _ in taus]
        expected = verdict_or_error(gaussian_minor_check, taus)
        assert verdict_or_error(hodge_riemann_check, taus) == expected
        seen.add(expected)
    assert seen == {True, False, "classes are linearly dependent"}


def test_isotropy_matches_the_gaussian_pairing():
    rng = random.Random(73)
    seen = set()
    for _ in range(100):
        genus = rng.randint(2, 4)
        a, b = riemann_classes(genus, 2, rng)
        if rng.random() < 0.5:
            b = random_class(genus, rng)
        expected = omega(list(a.periods), list(b.periods)).is_zero()
        assert isotropy_check(a, b) == expected
        seen.add(expected)
    assert seen == {True, False}


def test_isotropy_is_the_rational_pairing():
    # isotropic partners: a real rational multiple of a, i a, and a class on
    # the other coordinate pairs; otherwise any class
    rng = random.Random(89)
    seen = set()
    for _ in range(300):
        genus = rng.randint(2, 5)
        a = mixed_class(genus, rng)
        kind = rng.randrange(4)
        if kind == 0:
            lam = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            b = CohomologyClass(genus, [p * lam for p in a.periods])
        elif kind == 1:
            b = CohomologyClass(genus, [GaussianRational(-p.im, p.re) for p in a.periods])
        elif kind == 2:
            a = CohomologyClass(genus, a.periods[:2] + (GaussianRational(0),) * (2 * genus - 2))
            b = CohomologyClass(genus, (GaussianRational(0),) * 2 + mixed_class(genus, rng).periods[2:])
        else:
            b = mixed_class(genus, rng)
        are, aim, bre, bim = a.re_vector(), a.im_vector(), b.re_vector(), b.im_vector()
        expected = omega(are, bre) == omega(aim, bim) and omega(are, bim) == -omega(aim, bre)
        assert isotropy_check(a, b) == expected
        seen.add((kind, expected))
    assert seen == {(0, True), (1, True), (2, True), (3, False)}


def test_isotropy_examples():
    a = cls(2, 1, (0, 1), 0, 0)
    assert isotropy_check(a, a)
    assert isotropy_check(a, cls(2, 0, 0, 1, (0, 1)))
    assert not isotropy_check(cls(2, 1, 0, 0, 0), cls(2, 0, 1, 0, 0))
    with pytest.raises(DomainError):
        isotropy_check(a, cls(3, 1, 0, 0, 0, 0, 0))


# ---------------------------------------------------------------------------
# elliptic pairs


def pair_with_block_determinant(genus, d, rng=None):
    """An isotropic positive pair whose saturated span has block pairing
    (1, d), so the pair determinant is 2d.  Scrambled when rng is given."""
    n = 2 * genus
    u = [[0] * n for _ in range(4)]
    u[0][0] = 1
    u[1][1] = 1
    u[2][2] = 1
    u[3][3] = d
    if d > 1:
        assert genus >= 3, "completeness needs a spare coordinate"
        u[3][4] = 1
    if rng is not None:
        m = random_sp(genus, rng)
        u = [m.apply(v) for v in u]
    a = CohomologyClass(
        genus, [GaussianRational(x, y) for x, y in zip(u[0], u[1])]
    )
    b = CohomologyClass(
        genus, [GaussianRational(x, y) for x, y in zip(u[2], u[3])]
    )
    return a, b


def test_pair_criterion_table():
    assert elliptic_pair_criterion(2, 2)[0]
    assert elliptic_pair_criterion(3, 3) == (False, "odd determinant", False, False)
    realizable, reason, even, bound = elliptic_pair_criterion(4, 4)
    assert not realizable and reason == "det < 2g-2" and even and not bound
    assert elliptic_pair_criterion(6, 4)[0]  # boundary det = 2g-2 accepted


def test_pair_jacobian_example():
    a, b = pair_with_block_determinant(2, 1)
    v = is_realizable_elliptic_pair(a, b, True)
    assert v.realizable and v.det == 2
    assert v.det_even and v.det_bound


def test_pair_det4_at_genus4_rejected():
    a, b = pair_with_block_determinant(4, 2)
    v = is_realizable_elliptic_pair(a, b, True)
    assert v.det == 4
    assert not v.realizable and v.reason == "det < 2g-2"


def test_pair_boundary_det_accepted():
    # det = 2g-2 = 4 at genus 3
    a, b = pair_with_block_determinant(3, 2)
    v = is_realizable_elliptic_pair(a, b, True)
    assert v.det == 4 and v.realizable


def test_pair_rejections():
    a = cls(2, 1, 0, 0, 0)
    b = cls(2, 0, 1, 0, 0)
    with pytest.raises(DomainError, match="isotropic"):
        is_realizable_elliptic_pair(a, b, True)
    a = cls(2, 1, (0, -1), 0, 0)  # anti-holomorphic orientation
    b = cls(2, 0, 0, 1, (0, 1))
    with pytest.raises(DomainError, match="positive"):
        is_realizable_elliptic_pair(a, b, True)


def test_pair_refuter_finds_rational_splitting():
    # an exact pair is never simple: without assume_simple every pair gets
    # the closed-form witness built on the last row of its saturated span
    rng = random.Random(71)
    cases = [(2, 1)] * 4 + [(g, d) for g in range(3, 8) for d in (1, 2, 3, 5, 7, 10, 13)]
    for g, d in cases:
        a, b = pair_with_block_determinant(g, d, rng)
        v = is_realizable_elliptic_pair(a, b, False)
        assert v.realizable is None
        assert v.reason == "criterion not applicable"
        w = v.witness
        assert w["coefficients"] == [0, 0, 0, 1]
        span = saturate(
            Sublattice(
                [
                    [int(x) for x in vec]
                    for vec in (a.re_vector(), a.im_vector(), b.re_vector(), b.im_vector())
                ],
                genus=g,
            )
        )
        assert w["vector"] == list(span.vectors[-1])
        assert parse_rational(w["pairing"]) > 0
        plane = Sublattice(w["plane"], genus=g)
        assert determinant(plane) >= 1
        assert all(is_member(span, row) for row in w["plane"])


def test_pair_scrambled_determinants():
    rng = random.Random(73)
    for d in (1, 2, 3):
        for g in (3, 4):
            a, b = pair_with_block_determinant(g, d, rng)
            v = is_realizable_elliptic_pair(a, b, True)
            assert v.det == 2 * d
            assert v.realizable == (2 * d >= 2 * g - 2)


def test_pair_agrees_with_severi_range():
    rng = random.Random(79)
    for n in (1, 2, 3, 4, 5):
        genera = [g for g, _ in severi_range(2 * n)]
        assert genera == list(range(2, n + 2))
        for g in range(2, 8):
            if g == 2 and n > 1:
                continue  # rank-4 span at genus 2 pins the determinant to 2
            if g >= 3:
                a, b = pair_with_block_determinant(g, n, rng)
                v = is_realizable_elliptic_pair(a, b, True)
                assert v.realizable == (g in genera)


# ---------------------------------------------------------------------------
# severi ranges, dimension gaps, torus data


def test_severi_range_values():
    assert severi_range(2) == [(2, 0)]
    assert severi_range(4) == [(2, 1), (3, 0)]
    assert severi_range(6) == [(2, 2), (3, 1), (4, 0)]
    with pytest.raises(DomainError):
        severi_range(3)
    with pytest.raises(DomainError):
        severi_range(0)


def test_severi_range_properties():
    for n in range(1, 30):
        pairs = severi_range(2 * n)
        assert [g for g, _ in pairs] == list(range(2, n + 2))
        assert all(delta >= 0 for _, delta in pairs)
        assert all(g + delta == n + 1 for g, delta in pairs)


def test_severi_range_refuses_a_result_past_the_output_limit():
    with pytest.raises(DomainError, match="more than 1000000 integers"):
        severi_range(10**6 + 2)


def test_dimension_gap_table():
    for g in range(3, 13):
        assert polyperiod_dimension_gap(g, 3) == 0
    for g in range(2, 13):
        assert polyperiod_dimension_gap(g, 2) == 2 - g
    for g in range(4, 13):
        for k in range(4, g + 1):
            assert polyperiod_dimension_gap(g, k) > 0
    with pytest.raises(DomainError):
        polyperiod_dimension_gap(3, 4)
    with pytest.raises(DomainError):
        polyperiod_dimension_gap(3, 0)


# ---------------------------------------------------------------------------
# float input mode


def test_float_mode_reconstructs_rationals():
    v = line_verdict_from_floats(
        2, [complex(1, 0), complex(0, 1), complex(0.5, 0), complex(0, 0.5)]
    )
    assert v.realizable and v.det == 5 and not v.heuristic


def test_float_mode_presumes_dense_for_irrationals():
    v = line_verdict_from_floats(
        2,
        [complex(1, 0), complex(0, 1), complex(math.pi, 0), complex(0, math.e)],
    )
    assert v.realizable and v.heuristic
    assert v.reason == "presumed dense (heuristic)"
    assert v.det is None


def test_float_mode_input_checks():
    with pytest.raises(DomainError):
        line_verdict_from_floats(2, [1.0, 2.0])
    with pytest.raises(DomainError):
        line_verdict_from_floats(1, [1.0, 2.0])


def test_float_mode_refuses_nan_and_negative_tolerance():
    # every comparison with NaN is false, so a NaN tolerance would pass
    # 355/113 and a rational near e off as an exact verdict
    periods = [complex(math.pi, 0), complex(0, math.e), 0j, 0j]
    for tolerance, text in ((math.nan, "nan"), (-1e-9, "-1e-09"), (-math.inf, "-inf")):
        with pytest.raises(DomainError, match="^tolerance must be a nonnegative number, got %s$" % text):
            line_verdict_from_floats(2, periods, tolerance=tolerance)
    assert line_verdict_from_floats(2, periods, tolerance=1e-9).heuristic
    # an infinite tolerance snaps whatever lands, so the verdict is exact
    v = line_verdict_from_floats(2, periods, tolerance=math.inf)
    assert not v.heuristic and v.det == 1
    assert line_verdict_from_floats(2, [1, 1j, 0, 0], tolerance=0).det == 1

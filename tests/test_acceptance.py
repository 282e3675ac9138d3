"""Product-level checks, one test per effective statement.

Each test reproduces a headline property end to end on randomized bulk
input, with exact arithmetic wherever the library is exact.  Tolerances
and runtime budgets are pinned here and nowhere else: float comparisons
use 1e-9, and the three timed suites must finish inside 10 s, 30 s, and
20 s respectively on commodity hardware.
"""

import random
import time
from fractions import Fraction

import pytest

from periodforms.covers import (
    Origami,
    Permutation,
    construct_cover,
    cover_class_invariants,
    genus_of_branched_cover,
    genus_of_origami,
    is_connected,
    period_lattice_of_cover,
)
from periodforms.curve_algebra import (
    COPRIME,
    LINKED,
    Differential,
    QuadDifferential,
    TauSubspace,
    classify,
    isoperiodic_deformation_dim,
    noether_image_dim,
    obscurant_dim,
    overlap_degree,
    quartic_cross_ratio,
    residues_of_quotient,
    section_values,
)
from periodforms.errors import DomainError
from periodforms.exact import GaussianRational, quadratic_sum
from periodforms.intlinalg import mat_mul, mat_vec, transpose
from periodforms.polynomials import Polynomial, TernaryForm
from periodforms.realizability import (
    CohomologyClass,
    area,
    elliptic_pair_criterion,
    is_realizable_elliptic_pair,
    is_realizable_line,
    line_determinant,
    period_group,
    polyperiod_dimension_gap,
    severi_range,
)
from periodforms.symplectic_lattice import (
    map_rank2_sublattice,
    map_rank4_sublattice,
)

from test_covers import branched_euler_genus, origami_euler_genus
from test_curve_algebra import (
    FERMAT,
    hyperelliptic,
    random_curve,
    random_differential,
    random_line,
    random_quartic,
    veronese_linked_pair,
)
from test_realizability import cls, pair_with_block_determinant, random_class, sl2_act
from test_symplectic_lattice import (
    random_complete_rank2,
    random_complete_rank4,
    random_sp,
    standard_gram,
)

X = Polynomial.x()


def test_area_equals_det_times_covolume_in_bulk():
    """area = det x covolume, exactly, on 500+ random rank-2 classes."""
    rng = random.Random(101)
    started = time.monotonic()
    seen = 0
    while seen < 500:
        genus = rng.randint(2, 5)
        c = random_class(genus, rng)
        for z in c.periods:
            for part in (z.re, z.im):
                assert abs(part.numerator) <= 100 and part.denominator <= 100
        a = area(c)
        if a == 0:
            continue
        if a < 0:
            c = c.conjugate()
            a = -a
        group = period_group(c)
        assert group.rank == 2
        assert a == line_determinant(c) * group.covolume()
        seen += 1
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, "identity sweep too slow: %.1fs" % elapsed
    print("PASS identity: %d classes in %.1fs" % (seen, elapsed))


def _random_det1_rational(rng):
    a = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    if a == 0:
        a = Fraction(1)
    b = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    if b != 0:
        d = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        c = (a * d - 1) / b
    else:
        d = 1 / a
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    return [[a, b], [c, d]]


def test_boundary_verdicts_and_action_invariance():
    """det 1 is rejected, det 2 accepted, and neither actions on the plane
    nor ambient symplectic changes of basis can flip a verdict."""
    rejected = cls(2, 1, (0, 1), 0, 0)
    accepted = cls(2, 1, (0, 1), 1, (0, 1))
    v = is_realizable_line(rejected)
    assert not v.realizable and v.det == 1 and v.area == v.covolume
    v = is_realizable_line(accepted)
    assert v.realizable and v.det == 2

    rng = random.Random(102)
    for c in (rejected, accepted):
        base = is_realizable_line(c)
        for _ in range(50):
            m = _random_det1_rational(rng)
            assert m[0][0] * m[1][1] - m[0][1] * m[1][0] == 1
            acted = sl2_act(m, c)
            v = is_realizable_line(acted)
            assert v.realizable == base.realizable
            assert v.det == base.det and v.area == base.area
        for _ in range(50):
            m = random_sp(c.genus, rng)
            acted = CohomologyClass(c.genus, mat_vec(m.entries, list(c.periods)))
            v = is_realizable_line(acted)
            assert v.realizable == base.realizable
            assert v.det == base.det and v.area == base.area
    print("PASS boundary: verdicts stable under 200 actions")


def test_lattice_transitivity_in_bulk():
    """The constructed matrix is symplectic and carries source to target,
    for 200 rank-2 and 50 rank-4 pairs of equal determinant."""
    rng = random.Random(103)
    started = time.monotonic()
    for _ in range(200):
        genus = rng.randint(2, 5)
        det = rng.randint(1, 20)
        source = random_complete_rank2(genus, det, rng)
        target = random_complete_rank2(genus, det, rng)
        m = map_rank2_sublattice(source, target)
        j = standard_gram(genus)
        assert mat_mul(mat_mul(transpose(m.entries), j), m.entries) == j
        assert m.apply_lattice(source).hnf() == target.hnf()
    for _ in range(50):
        genus = rng.randint(3, 5)
        det = rng.randint(1, 20)
        source = random_complete_rank4(genus, det, rng)
        target = random_complete_rank4(genus, det, rng)
        m = map_rank4_sublattice(source, target)
        j = standard_gram(genus)
        assert mat_mul(mat_mul(transpose(m.entries), j), m.entries) == j
        assert m.apply_lattice(source).hnf() == target.hnf()
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, "transitivity sweep too slow: %.1fs" % elapsed
    print("PASS transitivity: 250 maps in %.1fs" % elapsed)


def test_cover_certificate_grid():
    """construct_cover output is connected, has the requested genus by the
    independent Euler count, unit period lattice, and det = degree."""
    one = GaussianRational(1, 0)
    i = GaussianRational(0, 1)
    for g in range(2, 6):
        for d in range(2, 9):
            cover = construct_cover(g, d)
            assert is_connected([cover.a, cover.b, *cover.branch])
            assert branched_euler_genus(cover) == g
            assert genus_of_branched_cover(cover) == g
            lattice = period_lattice_of_cover(cover)
            assert list(lattice.basis) == [one, i]
            assert cover_class_invariants(cover) == (g, d, 1, d)
        with pytest.raises(DomainError):
            construct_cover(g, 1)
    origami = Origami(Permutation([1, 2, 0]), Permutation([1, 0, 2]))
    assert genus_of_origami(origami) == 2
    assert origami_euler_genus(origami) == 2
    print("PASS covers: 28 certificates verified")


def _random_pair(rng, curve):
    while True:
        try:
            d1 = random_differential(rng, curve, rng.randint(0, curve.genus - 1))
            d2 = random_differential(rng, curve, rng.randint(0, curve.genus - 1))
            return TauSubspace([d1, d2])
        except DomainError:
            continue


def _random_triple(rng, curve):
    while True:
        try:
            ds = [
                random_differential(rng, curve, rng.randint(0, curve.genus - 1))
                for _ in range(3)
            ]
            return TauSubspace(ds)
        except DomainError:
            continue


def test_coprime_linked_suite():
    """Genus-2 pairs and quartic line-pairs are coprime, hyperelliptic
    triples are linked with large obscurant, Veronese pairs are the linked
    pairs with the minimal footprint, and linked always means overlapping."""
    rng = random.Random(105)
    for _ in range(100):
        tau = _random_pair(rng, random_curve(rng, 2, odd=rng.random() < 0.5))
        assert classify(tau) == COPRIME
    for genus in (3, 4, 5):
        for _ in range(10):
            tau = _random_triple(rng, random_curve(rng, genus))
            assert classify(tau) == LINKED
            assert obscurant_dim(tau) >= genus + 1
    for _ in range(15):
        quartic = random_quartic(rng)
        while True:
            try:
                tau = TauSubspace(
                    [Differential(quartic, random_line(rng)) for _ in range(2)]
                )
                break
            except DomainError:
                continue
        assert classify(tau) == COPRIME
    linked_seen = 0
    curve = hyperelliptic([3, 4, 5, 6, 7, 8, 9, 10])
    for params in ((0, 1, 2), (Fraction(1, 2), -3, Fraction(7, 5)), (11, 12, 13)):
        tau = veronese_linked_pair(curve, *params)
        assert classify(tau) == LINKED
        assert obscurant_dim(tau) == 2
        assert overlap_degree(*tau.differentials) == 2
        linked_seen += 1
    for _ in range(60):
        genus = rng.randint(2, 5)
        tau = _random_pair(rng, random_curve(rng, genus))
        if classify(tau) == LINKED:
            linked_seen += 1
            assert overlap_degree(*tau.differentials) >= 2
    assert linked_seen >= 4
    print("PASS classification: %d linked pairs all overlap" % linked_seen)


def test_noether_and_isoperiodic_dimensions():
    """Sym^2 image has dimension 2g-1 on hyperelliptic curves and 6 on
    smooth quartics; isoperiodic deformations count g-2 for coprime pairs
    and 0 for coprime triples."""
    rng = random.Random(106)
    for genus in (3, 4, 5, 6):
        curve = random_curve(rng, genus, odd=genus % 2 == 0)
        assert noether_image_dim(curve) == 2 * genus - 1
    for _ in range(20):
        assert noether_image_dim(random_quartic(rng)) == 6

    seen = 0
    while seen < 50:
        genus = rng.randint(2, 6)
        tau = _random_pair(rng, random_curve(rng, genus))
        if classify(tau) != COPRIME:
            continue
        assert isoperiodic_deformation_dim(tau) == genus - 2
        seen += 1
    seen = 0
    while seen < 50:
        quartic = random_quartic(rng)
        try:
            tau = TauSubspace(
                [Differential(quartic, random_line(rng)) for _ in range(3)]
            )
        except DomainError:
            continue
        if classify(tau) != COPRIME:
            continue
        assert isoperiodic_deformation_dim(tau) == 0
        seen += 1
    print("PASS dimensions: noether and isoperiodic counts hold")


def test_residue_laws_in_bulk():
    """Residues of omega/alpha sum to zero exactly, vanish when alpha
    divides omega, and satisfy the weighted identity with section values."""
    rng = random.Random(107)
    for _ in range(100):
        genus = rng.randint(2, 5)
        curve = random_curve(rng, genus, odd=rng.random() < 0.5)
        roots = rng.sample(range(-20, 30), genus - 1)
        alpha = Differential(curve, Polynomial.from_roots(roots, lead=2))
        q = Polynomial(
            [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(2 * genus - 1)]
        )
        r = Polynomial(
            [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(max(0, genus - 2))]
        )
        omega = QuadDifferential(curve, q, r)
        residues = residues_of_quotient(omega, alpha)
        assert len(residues) == 2 * genus - 2
        assert quadratic_sum(residues) == 0
        beta = random_differential(rng, curve, rng.randint(0, genus - 1))
        assert all(v.a == v.b == 0 for v in residues_of_quotient(alpha * beta, alpha))

    seen = 0
    while seen < 50:
        genus = rng.randint(3, 5)
        curve = random_curve(rng, genus)
        roots = rng.sample(range(-20, 30), genus - 1)
        alpha = Differential(curve, Polynomial.from_roots(roots, lead=2))
        beta = random_differential(rng, curve, genus - 1)
        gamma = random_differential(rng, curve, rng.randint(0, genus - 1))
        delta = random_differential(rng, curve, rng.randint(0, genus - 1))
        try:
            weights = section_values(gamma, beta, alpha)
        except DomainError:
            continue
        residues = residues_of_quotient(beta * delta, alpha)
        assert quadratic_sum(res.scale(w) for res, w in zip(residues, weights)) == 0
        assert quadratic_sum(residues_of_quotient(gamma * delta, alpha)) == 0
        seen += 1
    print("PASS residues: 100 sum laws and 50 weighted identities")


def test_cross_ratio_reciprocity_in_bulk():
    """On 100 random smooth quartics the two cross-ratios agree in the same
    order within 1e-9, and stay put under the four basis moves."""
    rng = random.Random(108)
    started = time.monotonic()
    checked = 0
    while checked < 100:
        quartic = random_quartic(rng)
        alpha = random_line(rng)
        beta = random_line(rng)
        gamma = random_line(rng)
        try:
            forms_ratio, points_ratio, matches = quartic_cross_ratio(
                quartic, alpha, beta, gamma
            )
        except DomainError:
            continue
        assert matches
        assert abs(forms_ratio - points_ratio) <= 1e-9 * (1 + abs(points_ratio))
        c = Fraction(rng.randint(1, 3), rng.randint(1, 2))
        al = TernaryForm.linear(*alpha)
        be = TernaryForm.linear(*beta)
        ga = TernaryForm.linear(*gamma)
        moves = [
            (be + al.scale(c), ga + al.scale(c)),
            (be.scale(c), ga.scale(c)),
            (be, ga + be.scale(c)),
            (ga, be),
        ]
        for new_beta, new_gamma in moves:
            moved, _, still = quartic_cross_ratio(quartic, al, new_beta, new_gamma)
            assert still
            assert abs(moved - forms_ratio) < 1e-9
        checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 20.0, "cross-ratio sweep too slow: %.1fs" % elapsed
    print("PASS reciprocity: 100 instances x 4 moves in %.1fs" % elapsed)


def test_dimension_gap_table():
    """The period map derivative is surjective only for small tuples."""
    for g in range(3, 13):
        assert polyperiod_dimension_gap(g, 3) == 0
    for g in range(2, 13):
        assert polyperiod_dimension_gap(g, 2) == 2 - g
    for g in range(4, 13):
        for k in range(4, g + 1):
            assert polyperiod_dimension_gap(g, k) > 0
    print("PASS gaps: table reproduced for g <= 12")


def test_elliptic_pair_severi_agreement():
    """Pair verdicts agree with the nodal degeneration range: determinant
    2n admits exactly genera 2..n+1, odd determinants admit nothing."""
    rng = random.Random(110)
    for n in range(1, 11):
        det = 2 * n
        genera = [g for g, _ in severi_range(det)]
        assert genera == list(range(2, n + 2))
        for g in range(2, n + 4):
            ok, reason, even, bound = elliptic_pair_criterion(det, g)
            assert even
            assert ok == (g in genera)
            if not ok:
                assert reason == "det < 2g-2"
        for g in range(3, 8):
            a, b = pair_with_block_determinant(g, n, rng)
            v = is_realizable_elliptic_pair(a, b, assume_simple=True)
            assert v.det == det
            assert v.realizable == (g in genera)
    a, b = pair_with_block_determinant(2, 1)
    assert is_realizable_elliptic_pair(a, b, assume_simple=True).realizable

    for det in (1, 3, 5, 7, 9, 21):
        for g in range(2, 8):
            ok, reason, even, _ = elliptic_pair_criterion(det, g)
            assert not ok and not even and reason == "odd determinant"
        with pytest.raises(DomainError):
            severi_range(det)
    print("PASS pairs: verdicts match the degeneration table")

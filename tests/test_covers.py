import random

import pytest

from periodforms import covers
from periodforms.covers import (
    BranchedTorusCover,
    Origami,
    Permutation,
    commutator,
    construct_cover,
    cover_class_invariants,
    genus_of_branched_cover,
    genus_of_origami,
    is_connected,
    period_lattice_of_cover,
)
from periodforms.errors import DomainError
from periodforms.exact import GaussianRational
from periodforms.realizability import CohomologyClass, PlanarLattice, is_realizable_line


# ---------------------------------------------------------------------------
# oracles: explicit cell complexes, counted by union-find


class _Merge:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[rx] = ry

    def classes(self):
        return len({self.find(x) for x in range(len(self.parent))})


def origami_euler_genus(o):
    """Vertices of the glued square complex counted without any cycle
    arithmetic: 4 corners per square, identified along the edge gluings."""
    d = o.degree
    BL, BR, TL, TR = 0, 1, 2, 3
    uf = _Merge(4 * d)

    def corner(square, which):
        return 4 * square + which

    for s in range(d):
        r = o.h(s)   # right edge of s meets left edge of r
        uf.union(corner(s, BR), corner(r, BL))
        uf.union(corner(s, TR), corner(r, TL))
        t = o.v(s)   # top edge of s meets bottom edge of t
        uf.union(corner(s, TL), corner(t, BL))
        uf.union(corner(s, TR), corner(t, BR))
    vertices = uf.classes()
    edges = 2 * d
    faces = d
    chi = vertices - edges + faces
    assert chi % 2 == 0
    return 1 - chi // 2


def branched_euler_genus(c):
    """Genus of the lifted cell complex, counted by union-find.

    The base torus gets one vertex, loop edges for the two torus directions,
    one arc to each branch point, and a single face whose boundary word spells
    the monodromy relation.  Walking each lifted face boundary while applying
    the sheet transitions records which lifted edge every polygon side uses;
    the walk closing up for every sheet is exactly the monodromy relation.
    Matching side pairs are glued crosswise and the corner classes counted.
    """
    d = c.degree
    k = len(c.branch)
    m = 4 + 2 * k
    # boundary, counterclockwise: slit pairs for branch k down to 1, then
    # b backwards, a backwards, b forwards, a forwards
    slot_uses = {}

    def use(slot, sheet, side, forward):
        slot_uses.setdefault(slot, []).append((sheet, side, forward))

    a_inv = c.a.inverse()
    b_inv = c.b.inverse()
    for x in range(d):
        cur = x
        for idx, i in enumerate(range(k, 0, -1)):
            use(("slit", i, cur), x, 2 * idx, True)
            cur = c.branch[i - 1](cur)
            use(("slit", i, cur), x, 2 * idx + 1, False)
        cur = b_inv(cur)
        use(("b", cur), x, 2 * k, False)
        cur = a_inv(cur)
        use(("a", cur), x, 2 * k + 1, False)
        use(("b", cur), x, 2 * k + 2, True)
        cur = c.b(cur)
        use(("a", cur), x, 2 * k + 3, True)
        cur = c.a(cur)
        assert cur == x, "face boundary lifts close by the monodromy relation"

    uf = _Merge(d * m)

    def corner(sheet, j):
        return sheet * m + j % m

    for uses in slot_uses.values():
        assert len(uses) == 2, "every lifted edge borders exactly two sides"
        (x1, s1, f1), (x2, s2, f2) = uses
        assert f1 != f2
        if not f1:
            (x1, s1), (x2, s2) = (x2, s2), (x1, s1)
        # forward side runs tail->head, backward side head->tail
        uf.union(corner(x1, s1), corner(x2, s2 + 1))
        uf.union(corner(x1, s1 + 1), corner(x2, s2))
    vertices = uf.classes()
    edges = d * (k + 2)
    faces = d
    chi = vertices - edges + faces
    assert chi % 2 == 0
    return 1 - chi // 2


def random_origami(d, rng):
    while True:
        h = Permutation(rng.sample(range(d), d))
        v = Permutation(rng.sample(range(d), d))
        if is_connected([h, v]):
            return Origami(h, v)


def random_cover(d, branch_points, rng):
    while True:
        a = Permutation(rng.sample(range(d), d))
        b = Permutation(rng.sample(range(d), d))
        cs = [
            Permutation(rng.sample(range(d), d))
            for _ in range(branch_points - 1)
        ]
        word = commutator(a, b)
        for ci in cs:
            word = word.compose(ci)
        cs.append(word.inverse())
        if not is_connected([a, b, *cs]):
            continue
        return BranchedTorusCover(a, b, cs)


# ---------------------------------------------------------------------------
# permutations


def test_permutation_validation():
    with pytest.raises(DomainError):
        Permutation([0, 0, 1])
    with pytest.raises(DomainError):
        Permutation([1, 2])
    with pytest.raises(DomainError):
        Permutation([])


def test_permutation_algebra():
    p = Permutation.from_cycle(4, (0, 1, 2))
    q = Permutation.from_cycle(4, (2, 3))
    # left action: (pq)(2) = p(q(2)) = p(3) = 3
    assert p.compose(q)(2) == 3
    assert q.compose(p)(2) == p(2) == 0 or True
    assert p.compose(p.inverse()).is_identity()
    assert p.inverse().compose(p).is_identity()
    assert p.cycle_count() == 2
    assert Permutation.identity(5).cycle_count() == 5


def test_is_connected_examples():
    assert is_connected([Permutation.from_cycle(3, (0, 1, 2))])
    assert not is_connected(
        [Permutation.from_cycle(4, (0, 1)), Permutation.from_cycle(4, (2, 3))]
    )
    assert not is_connected([Permutation.identity(2)])
    with pytest.raises(DomainError):
        is_connected([Permutation.identity(2), Permutation.identity(3)])
    with pytest.raises(DomainError):
        is_connected([])


# ---------------------------------------------------------------------------
# genus computations against the oracles


def test_origami_worked_examples():
    assert genus_of_origami(Origami(Permutation.identity(1), Permutation.identity(1))) == 1
    o = Origami(Permutation.from_cycle(3, (0, 1, 2)), Permutation.from_cycle(3, (0, 1)))
    assert genus_of_origami(o) == 2
    assert origami_euler_genus(o) == 2
    o = Origami(Permutation.from_cycle(4, (0, 1, 2, 3)), Permutation.from_cycle(4, (0, 1)))
    assert genus_of_origami(o) == 2
    assert origami_euler_genus(o) == 2


def test_origami_rejects_intransitive():
    with pytest.raises(DomainError, match="transitive"):
        Origami(Permutation.identity(2), Permutation.identity(2))


def test_origami_genus_matches_oracle_randomized():
    rng = random.Random(13)
    for _ in range(60):
        o = random_origami(rng.randint(1, 8), rng)
        assert genus_of_origami(o) == origami_euler_genus(o)


def test_branched_worked_examples():
    trivial = BranchedTorusCover(Permutation.identity(1), Permutation.identity(1))
    assert genus_of_branched_cover(trivial) == 1
    assert branched_euler_genus(trivial) == 1
    t = Permutation.from_cycle(2, (0, 1))
    c = BranchedTorusCover(Permutation.identity(2), Permutation.identity(2), [t, t])
    assert genus_of_branched_cover(c) == 2
    assert branched_euler_genus(c) == 2
    c = BranchedTorusCover(
        Permutation.from_cycle(3, (0, 1, 2)),
        Permutation.identity(3),
        [Permutation.from_cycle(3, (0, 1))] * 2,
    )
    assert genus_of_branched_cover(c) == 2
    assert branched_euler_genus(c) == 2


def test_branched_relation_and_connectivity_enforced():
    with pytest.raises(DomainError, match="relation"):
        BranchedTorusCover(
            Permutation.from_cycle(3, (0, 1, 2)),
            Permutation.identity(3),
            [Permutation.from_cycle(3, (0, 1))],
        )
    with pytest.raises(DomainError, match="connected"):
        BranchedTorusCover(Permutation.identity(2), Permutation.identity(2))


def test_branched_genus_matches_oracle_randomized():
    rng = random.Random(29)
    for _ in range(50):
        d = rng.randint(1, 6)
        c = random_cover(d, rng.randint(1, 4), rng)
        assert genus_of_branched_cover(c) == branched_euler_genus(c)


# ---------------------------------------------------------------------------
# the constructed family


def test_construct_cover_errors():
    with pytest.raises(DomainError, match="degree-1"):
        construct_cover(2, 1)
    with pytest.raises(DomainError):
        construct_cover(2, 0)
    with pytest.raises(DomainError):
        construct_cover(1, 3)


def test_construct_cover_refuses_a_result_past_the_output_limit():
    # 2g - 2 branch permutations plus a and b, each of degree d
    with pytest.raises(DomainError, match="more than 1000000 integers"):
        construct_cover(2, 250001)


def test_cover_invariants_refuse_a_wrong_period_lattice(monkeypatch):
    c = construct_cover(2, 4)
    cases = [
        ([GaussianRational(1, 0), GaussianRational(0, "1/2")], "integer covolume"),
        ([GaussianRational(3, 0), GaussianRational(0, 1)], "degree 4 vs covolume 3"),
    ]
    for basis, message in cases:
        monkeypatch.setattr(covers, "period_lattice_of_cover", lambda c, b=basis: PlanarLattice(b))
        with pytest.raises(DomainError, match=message):
            cover_class_invariants(c)


def test_origami_genus_refuses_an_odd_excess(monkeypatch):
    o = Origami(Permutation([1, 0]), Permutation([0, 1]))
    # a transposition as the commutator leaves one vertex on two squares
    monkeypatch.setattr(covers, "commutator", lambda h, v: Permutation([1, 0]))
    with pytest.raises(DomainError, match="commutator is always even"):
        genus_of_origami(o)


def test_branched_cover_genus_refuses_an_odd_branching_total(monkeypatch):
    c = construct_cover(2, 4)
    # the two simple branch points counted with 3 and 2 cycles
    counts = iter([3, 2])
    monkeypatch.setattr(Permutation, "cycle_count", lambda self: next(counts))
    with pytest.raises(DomainError, match="branching parity is forced by the relation"):
        genus_of_branched_cover(c)


def test_period_lattice_refuses_a_disconnected_monodromy_graph(monkeypatch):
    c = construct_cover(2, 4)
    # every sheet mapped to itself: no edge leaves sheet 0
    monkeypatch.setattr(Permutation, "__call__", lambda self, x: x)
    with pytest.raises(DomainError, match="connectivity was checked at construction"):
        period_lattice_of_cover(c)


def test_construct_cover_grid():
    for g in range(2, 6):
        for d in range(2, 9):
            c = construct_cover(g, d)
            assert is_connected([c.a, c.b, *c.branch])
            assert len(c.branch) == 2 * g - 2
            assert genus_of_branched_cover(c) == g
            assert branched_euler_genus(c) == g
            genus, cover_area, covol, det = cover_class_invariants(c)
            assert (genus, cover_area, covol, det) == (g, d, 1, d)
            lat = period_lattice_of_cover(c)
            assert [z.to_pair() for z in lat.basis] == [["1", "0"], ["0", "1"]]


def test_trivial_cover_invariants():
    trivial = BranchedTorusCover(Permutation.identity(1), Permutation.identity(1))
    assert cover_class_invariants(trivial) == (1, 1, 1, 1)


def test_unramified_double_cover_factors():
    dbl = BranchedTorusCover(Permutation.from_cycle(2, (0, 1)), Permutation.identity(2))
    lat = period_lattice_of_cover(dbl)
    assert [z.to_pair() for z in lat.basis] == [["2", "0"], ["0", "1"]]
    assert lat.covolume() == 2
    assert cover_class_invariants(dbl) == (1, 2, 2, 1)


def test_period_lattice_integrality_randomized():
    rng = random.Random(31)
    for _ in range(40):
        c = random_cover(rng.randint(1, 6), rng.randint(1, 3), rng)
        lat = period_lattice_of_cover(c)
        assert lat.rank == 2
        for z in lat.basis:
            assert z.re.denominator == 1 and z.im.denominator == 1
        covol = lat.covolume()
        assert covol.denominator == 1 and covol > 0
        genus, cover_area, covol2, det = cover_class_invariants(c)
        assert covol2 == covol
        assert det * covol == cover_area == c.degree


# ---------------------------------------------------------------------------
# invariance and cross-module consistency


def relabel(perm, sigma):
    return sigma.compose(perm).compose(sigma.inverse())


def test_relabeling_invariance():
    rng = random.Random(41)
    for _ in range(25):
        d = rng.randint(2, 6)
        c = random_cover(d, rng.randint(1, 3), rng)
        sigma = Permutation(rng.sample(range(d), d))
        relabeled = BranchedTorusCover(
            relabel(c.a, sigma),
            relabel(c.b, sigma),
            [relabel(ci, sigma) for ci in c.branch],
        )
        assert genus_of_branched_cover(relabeled) == genus_of_branched_cover(c)
        lat1 = period_lattice_of_cover(c)
        lat2 = period_lattice_of_cover(relabeled)
        assert [z.to_pair() for z in lat1.basis] == [z.to_pair() for z in lat2.basis]
        assert cover_class_invariants(relabeled) == cover_class_invariants(c)


def test_cover_certificates_realizable():
    # a cover of determinant d certifies a class of determinant d; the
    # line decision must accept exactly the same range d >= 2
    for g in (2, 3):
        for d in (2, 3, 5):
            c = construct_cover(g, d)
            genus, cover_area, covol, det = cover_class_invariants(c)
            periods = [GaussianRational(0, 0)] * (2 * g)
            periods[0] = GaussianRational(1, 0)
            periods[1] = GaussianRational(0, det)
            periods[2] = GaussianRational(0, 1)
            verdict = is_realizable_line(CohomologyClass(g, periods))
            assert verdict.realizable
            assert verdict.det == det
            assert verdict.area == cover_area / covol

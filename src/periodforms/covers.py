"""Branched covers of the square torus encoded by sheet permutations.

A degree-d cover branched over k points is the data (a, b, c_1..c_k) subject
to [a,b]*c_1*...*c_k = id, where a and b are the monodromies of the two torus
loops and each c_i is the monodromy around a branch point.  Square-tiled
surfaces are the unbranched-off-one-point case (a, b) alone.  These covers
are the cheapest certificates that a class with determinant d >= 2 really
comes from a differential.
"""

from __future__ import annotations

from .errors import DomainError, check_output_size, integer
from .exact import GaussianRational
from .intlinalg import row_hnf


class Permutation:
    """A bijection of {0..d-1} stored as its image list."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(integer(x, "a permutation image") for x in images)
        d = len(images)
        if d == 0:
            raise DomainError("permutation needs positive degree")
        if sorted(images) != list(range(d)):
            raise DomainError("not a permutation of 0..%d: %r" % (d - 1, list(images)))
        object.__setattr__(self, "images", images)

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    @staticmethod
    def identity(degree) -> "Permutation":
        return Permutation(range(degree))

    @staticmethod
    def from_cycle(degree, cycle) -> "Permutation":
        """The cycle (c0 c1 ... cm) extended by fixed points."""
        images = list(range(degree))
        cycle = list(cycle)
        for i, x in enumerate(cycle):
            images[x] = cycle[(i + 1) % len(cycle)]
        return Permutation(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, x) -> int:
        return self.images[x]

    def compose(self, other: "Permutation") -> "Permutation":
        """Left action: (self * other)(x) = self(other(x))."""
        if self.degree != other.degree:
            raise DomainError("degree mismatch: %d vs %d" % (self.degree, other.degree))
        return Permutation(self.images[other.images[x]] for x in range(self.degree))

    def inverse(self) -> "Permutation":
        images = [0] * self.degree
        for x, y in enumerate(self.images):
            images[y] = x
        return Permutation(images)

    def is_identity(self) -> bool:
        return all(self.images[x] == x for x in range(self.degree))

    def cycle_count(self) -> int:
        seen = [False] * self.degree
        count = 0
        for x in range(self.degree):
            if seen[x]:
                continue
            count += 1
            while not seen[x]:
                seen[x] = True
                x = self.images[x]
        return count

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return "Permutation(%r)" % (list(self.images),)


def commutator(p: Permutation, q: Permutation) -> Permutation:
    return p.compose(q).compose(p.inverse()).compose(q.inverse())


def is_connected(perms) -> bool:
    """Whether the group generated by the permutations is transitive."""
    perms = list(perms)
    if not perms:
        raise DomainError("need at least one permutation")
    d = perms[0].degree
    if any(p.degree != d for p in perms):
        raise DomainError("permutations have mixed degrees")
    parent = list(range(d))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in perms:
        for x in range(d):
            rx, ry = find(x), find(p(x))
            if rx != ry:
                parent[rx] = ry
    return sum(1 for x in range(d) if find(x) == x) == 1


class Origami:
    """A square-tiled surface: d unit squares glued by two permutations."""

    __slots__ = ("degree", "h", "v")

    def __init__(self, h: Permutation, v: Permutation):
        if h.degree != v.degree:
            raise DomainError("degree mismatch: %d vs %d" % (h.degree, v.degree))
        if not is_connected([h, v]):
            raise DomainError("origami monodromy is not transitive")
        object.__setattr__(self, "degree", h.degree)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "v", v)

    def __setattr__(self, name, value):
        raise AttributeError("Origami is immutable")

    def __repr__(self):
        return "Origami(h=%r, v=%r)" % (self.h, self.v)


class BranchedTorusCover:
    """Monodromy data (a, b, c_1..c_k) with [a,b]*c_1*...*c_k = id."""

    __slots__ = ("degree", "a", "b", "branch")

    def __init__(self, a: Permutation, b: Permutation, branch=()):
        branch = tuple(branch)
        d = a.degree
        if b.degree != d or any(c.degree != d for c in branch):
            raise DomainError("degree mismatch in monodromy data")
        word = commutator(a, b)
        for c in branch:
            word = word.compose(c)
        if not word.is_identity():
            raise DomainError("monodromy relation violated")
        if not is_connected([a, b, *branch]):
            raise DomainError("cover is not connected")
        object.__setattr__(self, "degree", d)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "branch", branch)

    def __setattr__(self, name, value):
        raise AttributeError("BranchedTorusCover is immutable")

    def __repr__(self):
        return "BranchedTorusCover(a=%r, b=%r, branch=%r)" % (
            self.a,
            self.b,
            list(self.branch),
        )


def genus_of_origami(o: Origami) -> int:
    """Genus from the cycle count of the commutator of the two gluings."""
    d = o.degree
    vertices = commutator(o.h, o.v).cycle_count()
    excess = d - vertices
    if excess % 2:
        raise DomainError("commutator is always even")
    return 1 + excess // 2

def genus_of_branched_cover(c: BranchedTorusCover) -> int:
    d = c.degree
    total = sum(d - ci.cycle_count() for ci in c.branch)
    if total % 2:
        raise DomainError("branching parity is forced by the relation")
    return 1 + total // 2


def construct_cover(g, d) -> BranchedTorusCover:
    """Deterministic degree-d cover of genus g: a d-cycle plus 2g-2 simple
    branch points.

    Degree 1 is refused for g >= 2: a bijective cover cannot raise genus,
    which is exactly why determinant-1 classes are not representable.
    """
    g, d = integer(g, "genus"), integer(d, "degree")
    if g < 2:
        raise DomainError("genus must be at least 2, got %d" % g)
    if d <= 0:
        raise DomainError("degree must be positive, got %d" % d)
    if d == 1:
        raise DomainError("no degree-1 cover of higher genus")
    check_output_size(2 * g * d)
    a = Permutation.from_cycle(d, range(d))
    b = Permutation.identity(d)
    swap = Permutation.from_cycle(d, (0, 1))
    return BranchedTorusCover(a, b, [swap] * (2 * g - 2))


def period_lattice_of_cover(c: BranchedTorusCover) -> PlanarLattice:
    """Subgroup of Z+Zi generated by the weights of monodromy-graph cycles.

    Sheets are vertices; each a-edge carries weight (1,0), each b-edge (0,1)
    and branch edges (0,0).  The weight of a fundamental cycle is the total
    displacement of the corresponding loop on the torus, so the group they
    generate is the image of the cover's homology under integration.
    """
    # here, so that building a cover or counting its genus loads no lattice code
    from .realizability import PlanarLattice

    d = c.degree
    edges = []
    for perm, w in [(c.a, (1, 0)), (c.b, (0, 1))]:
        edges.extend((x, perm(x), w) for x in range(d))
    for ci in c.branch:
        edges.extend((x, ci(x), (0, 0)) for x in range(d))
    adj = {x: [] for x in range(d)}
    for u, v, w in edges:
        adj[u].append((v, w, 1))
        adj[v].append((u, w, -1))
    pot = {0: (0, 0)}
    queue = [0]
    while queue:
        u = queue.pop()
        for v, w, sgn in adj[u]:
            if v not in pot:
                pot[v] = (pot[u][0] + sgn * w[0], pot[u][1] + sgn * w[1])
                queue.append(v)
    if len(pot) != d:
        raise DomainError("connectivity was checked at construction")
    # most weights repeat or vanish; a set of them spans the same group,
    # and the Hermite form of a group is canonical
    gens = {(pot[u][0] + w[0] - pot[v][0], pot[u][1] + w[1] - pot[v][1]) for u, v, w in edges}
    return PlanarLattice(GaussianRational(x, y) for x, y in row_hnf(sorted(gens)))


def cover_class_invariants(c: BranchedTorusCover):
    """(genus, area, covolume, det) with area = degree and det = area/covolume."""
    genus = genus_of_branched_cover(c)
    lattice = period_lattice_of_cover(c)
    covol = lattice.covolume()
    # explicit checks of the certificate, so they still run under python -O
    if covol.denominator != 1:
        raise DomainError("integer lattice has integer covolume")
    covol = covol.numerator
    # the developing map factors through the smaller torus, so this divides
    if c.degree % covol != 0:
        raise DomainError("degree %d vs covolume %d" % (c.degree, covol))
    return genus, c.degree, covol, c.degree // covol

"""The `periods` workload: verdicts, Sp(2g, Z) maps, lattice invariants and
cover certificates, in one fixed-order mix per round.

An op is a tuple (kind, call, check, reject): `call()` runs the library on
generated data and returns its result, `check(result)` returns None or a
message saying what is wrong, and `reject` names the exception type an
expected rejection raises (None when the call must succeed).  Only `call`
is timed.  Library functions are looked up on their modules at call time,
so a traced run sees the tracer's wrappers.
"""

from periodforms import covers, realizability, symplectic_lattice
from periodforms.exact import GaussianRational
from periodforms.realizability import CohomologyClass
from periodforms.symplectic_lattice import Sublattice

import gen
import ref

def _class(genus, periods):
    return CohomologyClass(genus, [GaussianRational(x, y) for x, y in periods])


def line_op(rng, genus):
    periods, area, covol = gen.line_class(rng, genus)

    def call():
        return realizability.is_realizable_line(_class(genus, periods))

    def check(v):
        if v.area != area or v.covolume != covol:
            return "area/covolume %s/%s, expected %s/%s" % (v.area, v.covolume, area, covol)
        if v.det * covol != area or v.identity_ok is not True:
            return "area %s != det %s x covolume %s" % (area, v.det, covol)
        if v.realizable != (v.det >= 2):
            return "realizable=%s at det %s" % (v.realizable, v.det)
        return None

    return ("line", call, check, None), periods


def pair_op(rng, genus, d):
    a, b = gen.block_pair(rng, genus, d)

    def call():
        return realizability.is_realizable_elliptic_pair(_class(genus, a), _class(genus, b), assume_simple=False)

    def check(v):
        if v.det != 2 * d or v.det_even is not True or v.det_bound != (2 * d >= 2 * genus - 2):
            return "pair det %s / flags %s %s for block d=%d" % (v.det, v.det_even, v.det_bound, d)
        if v.witness is None:
            expected = 2 * d >= 2 * genus - 2
            return None if v.realizable == expected else "realizable=%s" % v.realizable
        if v.realizable is not None or v.reason != "criterion not applicable":
            return "witness returned with verdict %s" % v.realizable
        plane = v.witness["plane"]
        span = [[x for x, _ in a], [y for _, y in a], [x for x, _ in b], [y for _, y in b]]
        if len(plane) != 2 or ref.omega(plane[0], plane[1]) == 0:
            return "witness plane is not symplectic"
        if ref.rank(span + plane) != 4:
            return "witness plane leaves the real span"
        return None

    return ("pair", call, check, None), (a, b)


def _map_check(genus, source, target):
    j = ref.standard_gram(genus)

    def check(m):
        e = m.entries
        if ref.mat_mul(ref.mat_mul(ref.transpose(e), j), e) != j:
            return "map is not symplectic"
        image = [[sum(row[k] * v[k] for k in range(len(v))) for row in e] for v in source]
        if not ref.same_lattice(image, target):
            return "map does not carry source onto target"
        return None

    return check


def map_op(rng, kind, genus, d):
    make = gen.complete_rank2 if kind == "map2" else gen.complete_rank4
    mapper = "map_rank2_sublattice" if kind == "map2" else "map_rank4_sublattice"
    source = make(rng, genus, d)
    target = make(rng, genus, d)

    def call():
        return getattr(symplectic_lattice, mapper)(Sublattice(source), Sublattice(target))

    return (kind, call, _map_check(genus, source, target), None), (source, target)


def lattice_ops(rng, rank, genus):
    vectors, gram_det = gen.dense_sublattice(rng, rank, genus)

    def det_call():
        return symplectic_lattice.determinant(Sublattice(vectors))

    def det_check(value):
        return None if value > 0 and value * value == gram_det else "det %s, gram det %s" % (value, gram_det)

    def nf_call():
        return symplectic_lattice.alternating_normal_form(Sublattice(vectors))

    def nf_check(nf):
        ds = list(nf.divisors)
        if any(x <= 0 for x in ds) or any(b % a for a, b in zip(ds, ds[1:])):
            return "divisors %s are not a positive chain" % ds
        prod = 1
        for x in ds:
            prod *= x
        if prod * prod != gram_det:
            return "divisor product %s, gram det %s" % (prod, gram_det)
        basis = [list(v) for v in nf.basis.vectors]
        if basis != ref.mat_mul(nf.change, vectors) or abs(ref.det(nf.change)) != 1:
            return "change matrix is not a unimodular basis change"
        block = [[0] * rank for _ in range(rank)]
        for i, x in enumerate(ds):
            block[2 * i][2 * i + 1] = x
            block[2 * i + 1][2 * i] = -x
        return None if ref.gram(basis) == block else "basis gram is not in normal form"

    return [("det", det_call, det_check, None), ("normal_form", nf_call, nf_check, None)], vectors


def cover_op(genus, d):
    def call():
        cover = covers.construct_cover(genus, d)
        return covers.cover_class_invariants(cover), covers.period_lattice_of_cover(cover)

    def check(result):
        invariants, lattice = result
        if tuple(invariants) != (genus, d, 1, d):
            return "cover invariants %s for (g, d) = (%d, %d)" % (invariants, genus, d)
        if [(z.re, z.im) for z in lattice.basis] != [(1, 0), (0, 1)]:
            return "cover period lattice is not Z[i]"
        return None

    return ("cover", call, check, None), (genus, d)


def make_round(rng, smoke=False):
    """One round of the fixed-order mix; returns (ops, inputs) where inputs
    is plain data for the digest."""
    top = 3 if smoke else 8
    ops, inputs = [], []

    def add(item):
        op, data = item
        ops.append(op)
        inputs.append((op[0], data))

    for genus in range(2, top + 1):
        for _ in range(1 if smoke else 3):
            add(line_op(rng, genus))
    for genus in range(3, min(top, 7) + 1):
        add(pair_op(rng, genus, rng.randint(1, 10)))
    for genus in range(2, top + 1):
        add(map_op(rng, "map2", genus, rng.randint(1, 20)))
    for genus in range(3, min(top, 6) + 1):
        add(map_op(rng, "map4", genus, rng.randint(1, 20)))
    # rank 14 twice: the dense Pfaffian is the slowest op, and two a round
    # keep the ten samples beyond latency_tail_ms among them
    for rank in [2, 4, 6] if smoke else [2, 4, 6, 8, 10, 12, 14, 14]:
        pair, data = lattice_ops(rng, rank, min(8, rank // 2 + 1))
        ops.extend(pair)
        inputs.append(("lattice", data))
    for genus in range(2, top + 1):
        add(cover_op(genus, rng.randint(2, 12)))
    return ops, inputs


def warmup_round(rng):
    """One op of each kind at the smallest sizes."""
    ops = [line_op(rng, 2)[0], pair_op(rng, 3, 2)[0], map_op(rng, "map2", 2, 3)[0],
           map_op(rng, "map4", 3, 2)[0]]
    ops.extend(lattice_ops(rng, 2, 2)[0])
    ops.append(cover_op(2, 2)[0])
    return ops

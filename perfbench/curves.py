"""The `curves` workload: plane quartics built once and queried many times,
plus hyperelliptic multiplication invariants, residues and section values.

Ops are (kind, call, check, reject) tuples as in periods.py.  Queries on a
quartic share the object its build op made, through a per-instance dict.  Library functions are looked up on their
module at call time, so a traced run sees the tracer's wrappers.
"""

from fractions import Fraction

from periodforms import curve_algebra as ca
from periodforms.curve_algebra import (
    COPRIME,
    LINKED,
    Differential,
    HyperellipticCurve,
    PlaneQuartic,
    QuadDifferential,
    TauSubspace,
)
from periodforms.errors import DomainError
from periodforms.polynomials import Polynomial

import gen
import ref

HEIGHTS = (30, 300, 3000)
TOLERANCE = 1e-9


def quartic_ops(rng):
    """Build op plus the queries on the built quartic."""
    table = gen.smooth_quartic(rng)
    state = {}
    alpha, beta, gamma = gen.cross_ratio_lines(rng, table)
    c = Fraction(rng.randint(1, 3), rng.randint(1, 2))
    moves = [
        ([b + c * a for a, b in zip(alpha, beta)], [g + c * a for a, g in zip(alpha, gamma)]),
        ([c * b for b in beta], [c * g for g in gamma]),
        (beta, [g + c * b for b, g in zip(beta, gamma)]),
        (gamma, beta),
    ]
    pair = gen.independent_lines(rng, 2)
    triple = gen.independent_lines(rng, 3)

    def build():
        state["quartic"] = PlaneQuartic(table)
        return state["quartic"]

    def cross_ratio():
        state["ratio"] = ca.quartic_cross_ratio(state["quartic"], alpha, beta, gamma)
        return state["ratio"]

    def check_ratio(result):
        return ref.ratio_problem(*result, tolerance=TOLERANCE)

    def moved(new_beta, new_gamma):
        def call():
            return ca.quartic_cross_ratio(state["quartic"], alpha, new_beta, new_gamma)

        def check(result):
            if "ratio" not in state:
                return "no base cross-ratio"
            drift = abs(result[0] - state["ratio"][0])
            return None if result[2] and drift < TOLERANCE else "basis move shifted the ratio by %g" % drift

        return ("cross_ratio_move", call, check, None)

    def classify_lines(lines):
        def call():
            q = state["quartic"]
            return ca.classify(TauSubspace([Differential(q, tuple(l)) for l in lines]))

        return call

    def is_coprime(result):
        return None if result == COPRIME else "line span classified %s" % result

    ops = [("quartic", build, lambda q: None, None), ("cross_ratio", cross_ratio, check_ratio, None)]
    ops.extend(moved(b, g) for b, g in moves)
    ops.append(("classify_quartic", classify_lines(pair), is_coprime, None))
    ops.append(("classify_quartic", classify_lines(triple), is_coprime, None))
    ops.append(("noether", lambda: ca.noether_image_dim(state["quartic"]),
                lambda n: None if n == 6 else "noether image %s on a quartic" % n, None))
    return ops, (table, alpha, beta, gamma, c, pair, triple)


def singular_quartic_op(rng):
    table = gen.singular_quartic(rng)
    return ("quartic_singular", lambda: PlaneQuartic(table), None, DomainError), table


def hyperelliptic_ops(rng, genus):
    f, _ = gen.hyperelliptic_f(rng, genus)
    p1, p2 = gen.differential_pair(rng, genus)
    h = ref.poly_gcd(p1, p2)
    q1, q2 = ref.poly_divmod(p1, h)[0], ref.poly_divmod(p2, h)[0]
    kernel_dim = max(0, genus - max(ref.deg(q1), ref.deg(q2)))
    expected_class = COPRIME if kernel_dim == 1 else LINKED
    overlap = 2 * ref.deg(h) + 2 * (genus - 1 - max(ref.deg(p1), ref.deg(p2)))
    state = {}

    def build_and_classify():
        curve = HyperellipticCurve(Polynomial(f))
        d1, d2 = Differential(curve, Polynomial(p1)), Differential(curve, Polynomial(p2))
        state["tau"] = TauSubspace([d1, d2])
        return ca.classify(state["tau"])

    def check_kernel(kernel):
        if len(kernel) != kernel_dim:
            return "kernel dimension %d, expected %d" % (len(kernel), kernel_dim)
        for v in kernel:
            total = ref.poly_add(ref.poly_mul(p1, list(v[:genus])), ref.poly_mul(p2, list(v[genus:])))
            if total:
                return "kernel vector is not annihilated"
        return None

    ops = [
        ("classify_hyper", build_and_classify,
         lambda r: None if r == expected_class else "classified %s, expected %s" % (r, expected_class), None),
        ("obscurant", lambda: ca.obscurant_kernel(state["tau"]), check_kernel, None),
        ("overlap", lambda: ca.overlap_degree(*state["tau"].differentials),
         lambda r: None if r == overlap else "overlap %s, expected %s" % (r, overlap), None),
        ("isoperiodic", lambda: ca.isoperiodic_deformation_dim(state["tau"]),
         lambda r: None if r == genus - 3 + kernel_dim else "isoperiodic dim %s" % r, None),
    ]
    return ops, (f, p1, p2)


def zero_locus_ops(rng, genus, height):
    """residues_of_quotient and section_values at the zeros of alpha, whose
    roots are known by construction."""
    f, f_roots = gen.hyperelliptic_f(rng, genus)
    alpha, roots = gen.alpha_with_height(rng, genus, height, f_roots)
    q = [gen.rng_fraction(rng, 9, 4) for _ in range(2 * genus - 1)]
    r = [gen.rng_fraction(rng, 9, 4) for _ in range(max(0, genus - 2))]
    while True:
        beta = gen.differential(rng, rng.randint(0, genus - 1))
        if all(ref.poly_eval(beta, x) != 0 for x in roots):
            break
    gamma = gen.differential(rng, rng.randint(0, genus - 1))
    slope = ref.poly_derivative(alpha)
    expected_residues = []
    for x in roots:
        disc = ref.poly_eval(f, x)
        rational = ref.poly_eval(r, x) / ref.poly_eval(slope, x)
        radical = ref.poly_eval(q, x) / (disc * ref.poly_eval(slope, x))
        for b in (radical, -radical):
            expected_residues.append((rational, b, disc if b != 0 else 0))
    expected_values = []
    for x in roots:
        v = ref.poly_eval(gamma, x) / ref.poly_eval(beta, x)
        expected_values.extend([v, v])
    state = {}

    def residues():
        curve = HyperellipticCurve(Polynomial(f))
        state["curve"] = curve
        omega = QuadDifferential(curve, Polynomial(q), Polynomial(r))
        return ca.residues_of_quotient(omega, Differential(curve, Polynomial(alpha)))

    def check_residues(values):
        got = [(v.a, v.b, v.disc) for v in values]
        if got != expected_residues:
            return "residues differ from the closed form"
        total = sum(v.a for v in values)
        by_disc = {}
        for v in values:
            by_disc[v.disc] = by_disc.get(v.disc, 0) + v.b
        if total != 0 or any(by_disc.values()):
            return "residue sum is not zero"
        return None

    def sections():
        curve = state["curve"]
        return ca.section_values(Differential(curve, Polynomial(gamma)), Differential(curve, Polynomial(beta)),
                              Differential(curve, Polynomial(alpha)))

    return [
        ("residues", residues, check_residues, None),
        ("sections", sections,
         lambda vs: None if list(vs) == expected_values else "section values differ", None),
    ], (f, alpha, q, r, beta, gamma)


def make_round(rng, smoke=False):
    ops, inputs = [], []

    def add(item):
        more, data = item
        ops.extend(more)
        inputs.append(data)

    for _ in range(1 if smoke else 3):
        add(quartic_ops(rng))
    op, data = singular_quartic_op(rng)
    ops.append(op)
    inputs.append(data)
    top = 3 if smoke else 6
    for genus in range(2, top + 1):
        add(hyperelliptic_ops(rng, genus))
    for height in HEIGHTS[:1] if smoke else HEIGHTS:
        for genus in range(2, top + 1):
            add(zero_locus_ops(rng, genus, height))
    return ops, inputs


def warmup_round(rng):
    ops = quartic_ops(rng)[0]
    ops.append(singular_quartic_op(rng)[0])
    ops.extend(hyperelliptic_ops(rng, 2)[0])
    ops.extend(zero_locus_ops(rng, 2, 30)[0])
    return ops

"""Decides which cohomology classes are representable by abelian differentials.

A class is given by its 2g periods on the standard symplectic basis of
homology.  With exact Gaussian-rational periods the period group is always
discrete, so the area-versus-covolume criterion is decidable; the equivalent
integer form is that the determinant of the saturated real span is at least 2.
Float inputs only ever get a heuristic answer and are labeled as such.

Each decision clears denominators once: a class keeps den * Re c and
den * Im c over the lcm den of its periods' denominators, and every check,
invariant and witness of a verdict reads those integer rows, brought to
one common denominator when a verdict takes two classes.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import DomainError, check_output_size, integer
from .exact import GaussianRational, format_rational


class CohomologyClass:
    """A degree-one complex class on a genus-g surface, stored by periods."""

    __slots__ = ("genus", "periods", "_rows")

    def __init__(self, genus, periods):
        genus = integer(genus, "genus")
        if genus < 1:
            raise DomainError("genus must be positive, got %d" % genus)
        periods = tuple(
            p if isinstance(p, GaussianRational) else GaussianRational.parse(p)
            for p in periods
        )
        if len(periods) != 2 * genus:
            raise DomainError(
                "expected %d periods for genus %d, got %d"
                % (2 * genus, genus, len(periods))
            )
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "periods", periods)
        object.__setattr__(self, "_rows", None)

    def __setattr__(self, name, value):
        raise AttributeError("CohomologyClass is immutable")

    def re_vector(self):
        return [p.re for p in self.periods]

    def im_vector(self):
        return [p.im for p in self.periods]

    def _integer_rows(self):
        """((den * Re c, den * Im c), den) with den > 0 the lcm of the
        periods' denominators, cleared on first use and kept; callers share
        the lists and never change them."""
        if self._rows is None:
            from .intlinalg import clear_denominators
            object.__setattr__(self, "_rows", clear_denominators([self.re_vector(), self.im_vector()]))
        return self._rows

    def is_zero(self):
        return all(p.is_zero() for p in self.periods)

    def conjugate(self):
        return CohomologyClass(self.genus, [p.conjugate() for p in self.periods])

    def scale(self, factor):
        return CohomologyClass(self.genus, [p * factor for p in self.periods])

    def __eq__(self, other):
        return (
            isinstance(other, CohomologyClass)
            and self.genus == other.genus
            and self.periods == other.periods
        )

    def __hash__(self):
        return hash((self.genus, self.periods))

    def __repr__(self):
        return "CohomologyClass(%d, %r)" % (self.genus, [p.to_pair() for p in self.periods])


class PlanarLattice:
    """The subgroup of the plane generated by a class's periods."""

    __slots__ = ("basis", "rank")

    def __init__(self, basis):
        basis = tuple(basis)
        if len(basis) > 2:
            raise DomainError("a discrete subgroup of the plane has rank <= 2")
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "rank", len(basis))

    def __setattr__(self, name, value):
        raise AttributeError("PlanarLattice is immutable")

    def covolume(self) -> Fraction:
        if self.rank < 2:
            raise DomainError("degenerate period group")
        z1, z2 = self.basis
        vol = z1.re * z2.im - z2.re * z1.im
        return abs(vol)

    def __repr__(self):
        return "PlanarLattice(%r)" % ([z.to_pair() for z in self.basis],)


class RealizabilityVerdict:
    """Outcome of a realizability decision with every intermediate quantity.

    realizable is True, False, or None.  None is the pair verdict without
    assume_simple: an exact pair is never simple (its periods lie in Q(i),
    so a rational symplectic plane, the witness, meets its span) and the
    criterion, stated for simple pairs, does not apply.
    """

    __slots__ = (
        "kind",
        "genus",
        "realizable",
        "reason",
        "area",
        "covolume",
        "det",
        "identity_ok",
        "det_even",
        "det_bound",
        "witness",
        "heuristic",
    )

    def __init__(
        self,
        kind,
        genus,
        realizable,
        reason,
        area=None,
        covolume=None,
        det=None,
        identity_ok=None,
        det_even=None,
        det_bound=None,
        witness=None,
        heuristic=False,
    ):
        self.kind = kind
        self.genus = genus
        self.realizable = realizable
        self.reason = reason
        self.area = area
        self.covolume = covolume
        self.det = det
        self.identity_ok = identity_ok
        self.det_even = det_even
        self.det_bound = det_bound
        self.witness = witness
        self.heuristic = heuristic

    def to_dict(self):
        out = {
            "kind": self.kind,
            "genus": self.genus,
            "realizable": self.realizable,
            "reason": self.reason,
        }
        if self.kind == "line":
            out["area"] = None if self.area is None else format_rational(self.area)
            if self.covolume is not None:
                out["covolume"] = format_rational(self.covolume)
            else:
                out["covolume"] = "n/a" if self.heuristic else "degenerate"
            out["det"] = "n/a" if self.det is None else self.det
            if self.identity_ok is not None:
                out["identity_area_eq_det_covolume"] = self.identity_ok
            if self.heuristic:
                out["heuristic"] = True
        else:
            out["det"] = self.det
            out["det_even"] = self.det_even
            out["det_at_least_2g_minus_2"] = self.det_bound
            if self.witness is not None:
                out["witness"] = self.witness
        return out

    def __repr__(self):
        return "RealizabilityVerdict(%r)" % (self.to_dict(),)


def _cleared(classes):
    """([(re, im), ...], den): the integer rows of each class brought to
    one common denominator den, the lcm of the classes' own."""
    rows = [c._integer_rows() for c in classes]
    den = lcm(*(d for _, d in rows))
    return [pair if d == den else [[x * (den // d) for x in v] for v in pair]
            for pair, d in rows], den


def area(c: CohomologyClass) -> Fraction:
    """Signed area omega(Re c, Im c); positive for holomorphic orientation.

    The pairing runs on the integer rows den * Re c, den * Im c of one
    common denominator, and the area is that pairing over den^2.
    """
    from .symplectic_lattice import omega
    (re, im), den = c._integer_rows()
    return Fraction(omega(re, im), den * den)


def period_group(c: CohomologyClass) -> PlanarLattice:
    """The Hermite basis of the nonzero periods' integer rows, over den."""
    from .intlinalg import row_hnf
    (re, im), den = c._integer_rows()
    rows = [[x, y] for x, y in zip(re, im) if x or y]
    basis = [
        GaussianRational(Fraction(x, den), Fraction(y, den))
        for x, y in row_hnf(rows)
    ]
    return PlanarLattice(basis)


def line_determinant(c: CohomologyClass) -> int:
    """Determinant of the saturated integral span of Re c and Im c."""
    from .symplectic_lattice import Sublattice, determinant, saturate
    return determinant(saturate(Sublattice(c._integer_rows()[0])))


def is_realizable_line(c: CohomologyClass) -> RealizabilityVerdict:
    if c.genus < 2:
        raise DomainError("realizability needs genus >= 2, got %d" % c.genus)
    if c.is_zero():
        raise DomainError("zero class")
    a = area(c)
    group = period_group(c)
    if a <= 0:
        # rank < 2 forces zero area, so this branch also covers all the
        # degenerate period groups
        covol = group.covolume() if group.rank == 2 else None
        det = None
        identity = None
        try:
            det = line_determinant(c)
        except DomainError:
            pass
        if det is not None and covol is not None:
            identity = abs(a) == det * covol
        return RealizabilityVerdict(
            "line", c.genus, False, "area<=0", a, covol, det, identity
        )
    covol = group.covolume()
    det = line_determinant(c)
    identity = a == det * covol
    # explicit checks of the certificate, so they still run under python -O
    if not identity:
        raise DomainError("area %s != det %d x covolume %s" % (a, det, covol))
    if a > covol:
        if det < 2:
            raise DomainError("area > covolume but det %d < 2" % det)
        return RealizabilityVerdict(
            "line", c.genus, True, "area>covolume", a, covol, det, identity
        )
    if det != 1:
        raise DomainError("area <= covolume but det %d != 1" % det)
    return RealizabilityVerdict(
        "line", c.genus, False, "area<=covolume", a, covol, det, identity
    )


# float periods are snapped to rationals with at most this denominator
_MAX_DENOMINATOR = 10**4


def line_verdict_from_floats(genus, periods, tolerance=1e-9) -> RealizabilityVerdict:
    """Heuristic decision for float periods.

    Each period is snapped to the nearest rational with denominator at most
    _MAX_DENOMINATOR; if all of them land within tolerance the exact decision
    runs on the reconstruction.  Otherwise the group is presumed dense and
    the verdict says so rather than posing as a decision.  A NaN or
    negative tolerance is refused: every comparison with NaN is false, so
    it would pass any snap off as exact.
    """
    if not tolerance >= 0:
        raise DomainError("tolerance must be a nonnegative number, got %s" % tolerance)
    if genus < 2:
        raise DomainError("realizability needs genus >= 2, got %d" % genus)
    values = [complex(z) for z in periods]
    if len(values) != 2 * genus:
        raise DomainError(
            "expected %d periods for genus %d, got %d"
            % (2 * genus, genus, len(values))
        )
    recon = []
    exact = True
    for z in values:
        re = Fraction(z.real).limit_denominator(_MAX_DENOMINATOR)
        im = Fraction(z.imag).limit_denominator(_MAX_DENOMINATOR)
        if abs(float(re) - z.real) > tolerance or abs(float(im) - z.imag) > tolerance:
            exact = False
            break
        recon.append(GaussianRational(re, im))
    if exact:
        return is_realizable_line(CohomologyClass(genus, recon))
    return RealizabilityVerdict(
        "line", genus, True, "presumed dense (heuristic)", heuristic=True
    )


def hodge_riemann_check(taus) -> bool:
    """Positive definiteness of h_jk = i * omega(tau_j, conj tau_k), on
    integer rows.

    Clearing the denominators of Re tau_j, Im tau_j scales h by a positive
    factor, which changes no rank and no sign of a minor.  With the
    cleared rows tau_j = r_j + i s_j, set p = (r, -s) and q = (s, r): the
    rows p_a | q_a are tau_j and i tau_j as real vectors, so the classes
    are dependent over C exactly when these 2k rows have rank below 2k.
    For t = sum (x_j + i y_j) tau_j, Re t = sum w_a p_a and
    Im t = sum w_a q_a with w = (x, y), so

        h(t, t) = 2 omega(Re t, Im t) = w^T S w,  S_ab = omega(p_a, q_b) + omega(p_b, q_a),

    and h is positive definite exactly when S is: by Sylvester's
    criterion, when every leading principal minor of S is positive.
    """
    from .intlinalg import integer_det, integer_rank
    from .symplectic_lattice import omega
    taus = list(taus)
    if not 1 <= len(taus) <= 3:
        raise DomainError("expected between 1 and 3 classes, got %d" % len(taus))
    genus = taus[0].genus
    if any(t.genus != genus for t in taus):
        raise DomainError("classes live on surfaces of different genus")
    k = len(taus)
    rows, _ = _cleared(taus)
    r, s = [re for re, _ in rows], [im for _, im in rows]
    p, q = r + [[-x for x in v] for v in s], s + r
    if integer_rank([u + v for u, v in zip(p, q)]) < 2 * k:
        raise DomainError("classes are linearly dependent")
    pq = list(zip(p, q))
    sym = [[omega(pa, qb) + omega(pb, qa) for pb, qb in pq] for pa, qa in pq]
    return all(integer_det([row[:m] for row in sym[:m]]) > 0 for m in range(1, 2 * k + 1))


def isotropy_check(a: CohomologyClass, b: CohomologyClass) -> bool:
    """omega(a, b) = 0, read off its real and imaginary parts, on the four
    rows cleared with one common denominator, which scales every pairing
    by the same positive factor."""
    from .symplectic_lattice import omega
    if a.genus != b.genus:
        raise DomainError("classes live on surfaces of different genus")
    ((are, aim), (bre, bim)), _ = _cleared([a, b])
    return omega(are, bre) == omega(aim, bim) and omega(are, bim) == -omega(aim, bre)


def elliptic_pair_criterion(det, genus):
    """Numeric criterion for a simple pair: det even and at least 2g-2.

    Split out so the two failure modes can be exercised directly; the full
    decision below never produces an odd determinant on genuine input.
    """
    even = det % 2 == 0
    bound = det >= 2 * genus - 2
    if not even:
        return False, "odd determinant", even, bound
    if not bound:
        return False, "det < 2g-2", even, bound
    return True, "det even and >= 2g-2", even, bound


def _splitting_witness(a, b, lattice):
    """A rational symplectic plane through the span of (a, b).

    Take v, the last Hermite row of the saturated real span U.  It is
    v = 2 Re t = t + conj(t) for a unique t in the complex span tau of
    (a, b); set w = 2 Im t = -i (t - conj(t)), again rational because the
    periods lie in Q(i).  As omega is alternating,

        omega(v, w) = 2i omega(t, conj t) = 2 h(t, t),

    with h the Hermitian form of hodge_riemann_check, which the caller has
    already found positive definite; v != 0 forces t != 0, so the pairing
    is positive and span(v, w) is a symplectic plane whose complexification
    contains t.  So an exact pair is never simple.  "coefficients" are
    those of v in the basis of U.

    All of it runs on the integer rows R = den * (Re a, Im a, Re b, Im b):
    the system in R solved for den * v has the same solution, e clears its
    denominators, and the integer w' = den * e * w gives the pairing
    omega(v, w') / (den * e) and, as a positive scale changes no
    saturation, the same plane.
    """
    from .intlinalg import clear_denominators, rational_solve
    from .symplectic_lattice import Sublattice, omega, saturate
    ((are, aim), (bre, bim)), den = _cleared([a, b])
    # unknowns (xr, xi, yr, yi) for t = (xr + i xi) a + (yr + i yi) b,
    # with v = 2 Re t; the sign pattern below is Re of the product
    system = [[2 * p, -2 * q, 2 * r, -2 * s] for p, q, r, s in zip(are, aim, bre, bim)]
    v = list(lattice.vectors[-1])
    x = rational_solve(system, [den * t for t in v])
    ((xr, xi, yr, yi),), e = clear_denominators([x])
    w = [2 * (xi * p + xr * q + yi * r + yr * s) for p, q, r, s in zip(are, aim, bre, bim)]
    value = Fraction(omega(v, w), den * e)
    if value <= 0:
        raise DomainError("splitting witness has non-positive pairing %s" % value)
    # independent: the pairing of v and w is positive (see Sublattice)
    plane = saturate(Sublattice._trusted([v, w], a.genus))
    return {
        "coefficients": [0, 0, 0, 1],
        "vector": v,
        "plane": [list(row) for row in plane.vectors],
        "pairing": format_rational(value),
    }


def is_realizable_elliptic_pair(
    a: CohomologyClass, b: CohomologyClass, assume_simple
) -> RealizabilityVerdict:
    from .symplectic_lattice import Sublattice, determinant, saturate
    if a.genus != b.genus:
        raise DomainError("classes live on surfaces of different genus")
    genus = a.genus
    if genus < 2:
        raise DomainError("realizability needs genus >= 2, got %d" % genus)
    if not isotropy_check(a, b):
        raise DomainError("pair is not isotropic")
    if not hodge_riemann_check([a, b]):
        raise DomainError("pair is not positive")
    (re_a, im_a), (re_b, im_b) = _cleared([a, b])[0]
    # independent: the two checks above prove rank 4 (see Sublattice)
    lattice = saturate(Sublattice._trusted([re_a, im_a, re_b, im_b], genus))
    det = 2 * determinant(lattice)
    ok, reason, even, bound = elliptic_pair_criterion(det, genus)
    if not assume_simple:
        return RealizabilityVerdict(
            "pair",
            genus,
            None,
            "criterion not applicable",
            det=det,
            det_even=even,
            det_bound=bound,
            witness=_splitting_witness(a, b, lattice),
        )
    return RealizabilityVerdict(
        "pair", genus, ok, reason, det=det, det_even=even, det_bound=bound
    )


def severi_range(det):
    """Genus and node-count pairs for nodal degenerations at determinant det."""
    det = integer(det, "determinant")
    if det <= 0:
        raise DomainError("determinant must be positive, got %d" % det)
    if det % 2 != 0:
        raise DomainError("determinant must be even, got %d" % det)
    check_output_size(det)
    n = det // 2
    return [(g, n + 1 - g) for g in range(2, n + 2)]


def polyperiod_dimension_gap(g, k) -> int:
    """Dimension of the isoperiodic Grassmannian minus its image's dimension.

    Positive values certify that the derivative of the k-tuple period map is
    never surjective at the given (g, k).
    """
    g, k = integer(g, "genus"), integer(k, "k")
    if not 1 <= k <= g:
        raise DomainError("need 1 <= k <= genus, got k=%d, g=%d" % (k, g))
    source = 2 * g * k - (3 * k * k - k) // 2
    target = 3 * g - 3 + k * (g - k)
    return source - target

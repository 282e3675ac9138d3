"""JSON shapes for the objects the command line reads and writes.

Decoders validate structure and raise FormatError on anything malformed;
mathematical preconditions stay in the constructors, which keep raising
DomainError.  Encoders emit plain dict/list/str data so json.dumps with
sorted keys gives byte-identical output for equal inputs.

Shapes:

    rational        "p/q" or "n" (a bare int also works)
    gaussian        [re, im], both rationals
    class           {"genus": g, "periods": [gaussian x 2g]}
    sublattice      {"genus": g, "vectors": [[int x 2g], ...]}
    permutation     [images of 0..d-1]
    origami         {"horizontal": permutation, "vertical": permutation}
    cover           {"a": permutation, "b": permutation,
                     "branch": [permutation, ...]}       ("branch" optional)
    curve           {"kind": "hyperelliptic", "f": [rational, ...]}
                    {"kind": "quartic",
                     "coefficients": [[i, j, k, rational], ...]}
    differential    [rational, ...]   ascending coefficients of p(x) on a
                                      hyperelliptic curve; [a, b, c] of the
                                      linear form on a quartic
    quadratic diff  {"q": [rational, ...], "r": [rational, ...]}
                                      ("r" optional, anti-invariant part)

Hyperelliptic polynomial coefficient lists are ascending: [c0, c1, ...]
encodes c0 + c1*x + ...

Each decoder imports the layer whose objects it builds, so decoding one
shape loads no other layer; the encoders only read attributes.
"""

from __future__ import annotations

from fractions import Fraction
from math import isfinite

from .errors import DomainError, FormatError
from .exact import GaussianRational, format_rational, parse_rational


def _expect(condition, message):
    if not condition:
        raise FormatError(message)


def as_mapping(obj, what):
    _expect(isinstance(obj, dict), "%s must be a JSON object, got %r" % (what, type(obj).__name__))
    return obj


def as_sequence(obj, what):
    _expect(isinstance(obj, list), "%s must be a JSON array, got %r" % (what, type(obj).__name__))
    return obj


def require_field(obj, key, what):
    obj = as_mapping(obj, what)
    _expect(key in obj, "%s is missing the %r key" % (what, key))
    return obj[key]


def as_int(obj, what):
    _expect(isinstance(obj, int) and not isinstance(obj, bool), "%s must be an integer, got %r" % (what, obj))
    return obj


def decode_rational(obj, what="rational") -> Fraction:
    _expect(isinstance(obj, (str, int)) and not isinstance(obj, bool), "%s must be a \"p/q\" string or integer, got %r" % (what, obj))
    try:
        return parse_rational(obj)
    except DomainError as exc:
        raise FormatError("%s: %s" % (what, exc)) from exc


encode_rational = format_rational


def decode_gaussian(obj, what="period") -> GaussianRational:
    pair = as_sequence(obj, what)
    _expect(len(pair) == 2, "%s must be an [re, im] pair, got %d entries" % (what, len(pair)))
    return GaussianRational(decode_rational(pair[0], what), decode_rational(pair[1], what))


def encode_gaussian(z: GaussianRational):
    return z.to_pair()


def decode_class(obj) -> CohomologyClass:
    from .realizability import CohomologyClass

    genus = as_int(require_field(obj, "genus", "class"), "genus")
    periods = [decode_gaussian(p) for p in as_sequence(require_field(obj, "periods", "class"), "periods")]
    return CohomologyClass(genus, periods)


def decode_float_periods(obj):
    """(genus, [complex...]) for numeric period data.

    Any float inside any pair switches the whole class to numeric mode;
    strings and ints stay exact and belong in decode_class.
    """
    genus = as_int(require_field(obj, "genus", "class"), "genus")
    values = []
    for entry in as_sequence(require_field(obj, "periods", "class"), "periods"):
        pair = as_sequence(entry, "period")
        _expect(len(pair) == 2, "period must be an [re, im] pair, got %d entries" % len(pair))
        parts = []
        for part in pair:
            _expect(isinstance(part, (int, float)) and not isinstance(part, bool), "numeric period parts must be numbers, got %r" % (part,))
            try:
                parts.append(float(part))
            except OverflowError:
                raise FormatError("numeric period part has %d bits, too large for a float" % part.bit_length()) from None
            _expect(isfinite(parts[-1]), "numeric period parts must be finite, got %r" % (part,))
        values.append(complex(parts[0], parts[1]))
    return genus, values


def periods_are_numeric(obj) -> bool:
    """True when any period entry carries a float."""
    periods = as_sequence(require_field(obj, "periods", "class"), "periods")
    for entry in periods:
        for part in as_sequence(entry, "period"):
            if isinstance(part, float):
                return True
    return False


def decode_int_vector(obj, what="vector"):
    return tuple(as_int(x, what + " entry") for x in as_sequence(obj, what))


def decode_sublattice(obj) -> Sublattice:
    from .symplectic_lattice import Sublattice

    genus = as_int(require_field(obj, "genus", "sublattice"), "genus")
    vectors = [decode_int_vector(v) for v in as_sequence(require_field(obj, "vectors", "sublattice"), "vectors")]
    return Sublattice(vectors, genus=genus)


def encode_sublattice(lattice: Sublattice):
    return {"genus": lattice.genus, "vectors": [list(v) for v in lattice.hnf()]}


def decode_permutation(obj, what="permutation") -> Permutation:
    from .covers import Permutation

    images = [as_int(x, what + " image") for x in as_sequence(obj, what)]
    _expect(images, "%s must be nonempty" % what)
    _expect(sorted(images) == list(range(len(images))), "%s must list the images of 0..%d exactly once" % (what, len(images) - 1))
    return Permutation(images)


def encode_permutation(p: Permutation):
    return list(p.images)


def decode_origami(obj) -> Origami:
    from .covers import Origami

    h = decode_permutation(require_field(obj, "horizontal", "origami"), "horizontal")
    v = decode_permutation(require_field(obj, "vertical", "origami"), "vertical")
    return Origami(h, v)


def decode_cover(obj) -> BranchedTorusCover:
    from .covers import BranchedTorusCover

    a = decode_permutation(require_field(obj, "a", "cover"), "a")
    b = decode_permutation(require_field(obj, "b", "cover"), "b")
    branch_obj = as_mapping(obj, "cover").get("branch", [])
    branch = [decode_permutation(c, "branch permutation") for c in as_sequence(branch_obj, "branch")]
    return BranchedTorusCover(a, b, branch)


def encode_cover(cover: BranchedTorusCover):
    return {
        "a": encode_permutation(cover.a),
        "b": encode_permutation(cover.b),
        "branch": [encode_permutation(c) for c in cover.branch],
    }


def decode_curve(obj):
    from .curve_algebra import HyperellipticCurve, PlaneQuartic
    from .polynomials import Polynomial, TernaryForm

    kind = require_field(obj, "kind", "curve")
    if kind == "hyperelliptic":
        coeffs = [decode_rational(c, "f coefficient") for c in as_sequence(require_field(obj, "f", "curve"), "f")]
        return HyperellipticCurve(Polynomial(coeffs))
    if kind == "quartic":
        entries = as_sequence(require_field(obj, "coefficients", "curve"), "coefficients")
        coeffs = {}
        for entry in entries:
            row = as_sequence(entry, "coefficient entry")
            _expect(len(row) == 4, "quartic coefficient entries are [i, j, k, value], got %r" % (row,))
            key = tuple(as_int(e, "exponent") for e in row[:3])
            coeffs[key] = coeffs.get(key, Fraction(0)) + decode_rational(row[3], "coefficient")
        try:
            form = TernaryForm(4, coeffs)
        except DomainError as exc:
            raise FormatError(str(exc)) from exc
        return PlaneQuartic(form)
    raise FormatError("curve kind must be \"hyperelliptic\" or \"quartic\", got %r" % (kind,))


def decode_differential(curve, obj, what="differential") -> Differential:
    from .curve_algebra import Differential, PlaneQuartic
    from .polynomials import Polynomial

    coeffs = [decode_rational(c, what + " coefficient") for c in as_sequence(obj, what)]
    if isinstance(curve, PlaneQuartic):
        _expect(len(coeffs) == 3, "%s on a quartic is [a, b, c] of a linear form, got %d entries" % (what, len(coeffs)))
        return Differential(curve, tuple(coeffs))
    return Differential(curve, Polynomial(coeffs))


def decode_quad_differential(curve, obj) -> QuadDifferential:
    from .curve_algebra import QuadDifferential
    from .polynomials import Polynomial

    q = [decode_rational(c, "q coefficient") for c in as_sequence(require_field(obj, "q", "quadratic differential"), "q")]
    r_obj = as_mapping(obj, "quadratic differential").get("r", [])
    r = [decode_rational(c, "r coefficient") for c in as_sequence(r_obj, "r")]
    return QuadDifferential(curve, Polynomial(q), Polynomial(r))


def encode_matrix(matrix: SpMatrix):
    return {"genus": matrix.genus, "entries": [list(row) for row in matrix.entries]}


def encode_normal_form(nf: NormalForm):
    return {
        "divisors": list(nf.divisors),
        "basis": [list(row) for row in nf.basis.vectors],
        "change": [list(row) for row in nf.change],
    }


def encode_planar_lattice(lattice: PlanarLattice):
    return [encode_gaussian(z) for z in lattice.basis]


def encode_quadratic_number(value: QuadraticNumber):
    return {
        "rational": encode_rational(value.a),
        "radical": encode_rational(value.b),
        "disc": encode_rational(value.disc),
    }


def encode_complex(z) -> list:
    z = complex(z)
    return [z.real, z.imag]

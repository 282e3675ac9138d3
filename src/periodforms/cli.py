"""Batch command line front end.

Every subcommand reads JSON (file, stdin, or an inline literal), runs one
library call, and prints the result to stdout.  Exit codes: 0 on success,
1 when a mathematical precondition fails (DomainError), 2 when the input
itself is malformed.  Output bytes are deterministic for fixed input and
flags: JSON is dumped with sorted keys and no locale-dependent pieces.

Each handler reads its input first and then imports the layer it runs,
so a call loads no other layer and malformed JSON is refused before any
layer loads.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import DomainError, FormatError


def _read_payload(args):
    """Load the JSON document named by --input.

    "-" reads stdin; a value starting with "{" or "[" is taken as inline
    JSON; anything else is a file path.
    """
    source = args.input
    if source == "-":
        text = sys.stdin.read()
        origin = "stdin"
    elif source.lstrip()[:1] in ("{", "["):
        text = source
        origin = "inline JSON"
    else:
        try:
            with open(source, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise FormatError("cannot read %s: %s" % (source, exc)) from exc
        origin = source
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(
            "invalid JSON from %s at line %d column %d: %s"
            % (origin, exc.lineno, exc.colno, exc.msg)
        ) from exc
    except ValueError as exc:
        # an integer literal longer than the interpreter's digit limit
        raise FormatError("invalid JSON from %s: %s" % (origin, exc)) from exc


def _render(result, fmt):
    """The whole output as one string, so a failure prints nothing.

    An integer past the interpreter's int-to-str digit limit is refused
    with a DomainError naming the limit; the limit itself stays in place,
    since it guards against quadratic-time conversion.
    """
    try:
        if fmt != "table":
            lines = [json.dumps(result, sort_keys=True)]
        elif isinstance(result, dict):
            lines = ["%s\t%s" % (key, json.dumps(result[key], sort_keys=True)) for key in sorted(result)]
        elif isinstance(result, list):
            lines = [json.dumps(row, sort_keys=True) for row in result]
        else:
            lines = [str(result)]
    except ValueError:
        raise DomainError(
            "an output integer has more than %d digits, the interpreter's limit"
            " for int-to-str conversion" % sys.get_int_max_str_digits()
        ) from None
    return "".join(line + "\n" for line in lines)


def _encode_kernel(tau):
    from . import curve_algebra, jsonio
    return [
        [jsonio.encode_rational(x) for x in vec]
        for vec in curve_algebra.obscurant_kernel(tau)
    ]


# --- realizable ---------------------------------------------------------


def _cmd_realizable_line(args):
    payload = _read_payload(args)
    from . import jsonio, realizability
    if jsonio.periods_are_numeric(payload):
        genus, values = jsonio.decode_float_periods(payload)
        verdict = realizability.line_verdict_from_floats(
            genus, values, tolerance=args.tolerance
        )
    else:
        verdict = realizability.is_realizable_line(jsonio.decode_class(payload))
    return verdict.to_dict()


def _cmd_realizable_pair(args):
    payload = _read_payload(args)
    from . import jsonio, realizability
    a = jsonio.decode_class(jsonio.require_field(payload, "a", "pair input"))
    b = jsonio.decode_class(jsonio.require_field(payload, "b", "pair input"))
    verdict = realizability.is_realizable_elliptic_pair(
        a, b, assume_simple=args.assume_simple
    )
    return verdict.to_dict()


# --- lattice ------------------------------------------------------------


def _cmd_lattice_det(args):
    payload = _read_payload(args)
    from . import jsonio, symplectic_lattice
    lattice = jsonio.decode_sublattice(payload)
    return {"determinant": symplectic_lattice.determinant(lattice)}


def _cmd_lattice_saturate(args):
    payload = _read_payload(args)
    from . import jsonio, symplectic_lattice
    lattice = jsonio.decode_sublattice(payload)
    return jsonio.encode_sublattice(symplectic_lattice.saturate(lattice))


def _cmd_lattice_normal_form(args):
    payload = _read_payload(args)
    from . import jsonio, symplectic_lattice
    lattice = jsonio.decode_sublattice(payload)
    return jsonio.encode_normal_form(symplectic_lattice.alternating_normal_form(lattice))


def _cmd_lattice_extend(args):
    payload = _read_payload(args)
    from . import jsonio, symplectic_lattice
    genus = jsonio.as_int(jsonio.require_field(payload, "genus", "extend input"), "genus")
    vector = jsonio.decode_int_vector(jsonio.require_field(payload, "vector", "extend input"))
    matrix = symplectic_lattice.extend_to_symplectic_basis(vector, genus=genus)
    return jsonio.encode_matrix(matrix)


def _map_payload(args):
    payload = _read_payload(args)
    from . import jsonio
    source = jsonio.decode_sublattice(jsonio.require_field(payload, "source", "map input"))
    target = jsonio.decode_sublattice(jsonio.require_field(payload, "target", "map input"))
    return source, target


def _cmd_lattice_map2(args):
    source, target = _map_payload(args)
    from . import jsonio, symplectic_lattice
    return jsonio.encode_matrix(symplectic_lattice.map_rank2_sublattice(source, target))


def _cmd_lattice_map4(args):
    source, target = _map_payload(args)
    from . import jsonio, symplectic_lattice
    return jsonio.encode_matrix(symplectic_lattice.map_rank4_sublattice(source, target))


# --- cover --------------------------------------------------------------


def _cmd_cover_build(args):
    from . import covers, jsonio
    cover = covers.construct_cover(args.genus, args.degree)
    return jsonio.encode_cover(cover)


def _cmd_cover_analyze(args):
    payload = _read_payload(args)
    from . import covers, jsonio
    cover = jsonio.decode_cover(payload)
    genus, degree, covol, det = covers.cover_class_invariants(cover)
    lattice = covers.period_lattice_of_cover(cover)
    return {
        "genus": genus,
        "degree": degree,
        "covolume": covol,
        "det": det,
        "period_lattice": jsonio.encode_planar_lattice(lattice),
    }


def _cmd_cover_origami_genus(args):
    payload = _read_payload(args)
    from . import covers, jsonio
    origami = jsonio.decode_origami(payload)
    return {"genus": covers.genus_of_origami(origami)}


# --- curve --------------------------------------------------------------


def _tau_payload(args):
    payload = _read_payload(args)
    from . import curve_algebra, jsonio
    curve = jsonio.decode_curve(jsonio.require_field(payload, "curve", "curve input"))
    raw = jsonio.as_sequence(
        jsonio.require_field(payload, "differentials", "curve input"), "differentials"
    )
    differentials = [jsonio.decode_differential(curve, d) for d in raw]
    return curve_algebra.TauSubspace(differentials)


def _cmd_curve_classify(args):
    tau = _tau_payload(args)
    from . import curve_algebra
    kernel = _encode_kernel(tau)
    return {
        "classification": curve_algebra.classify(tau),
        "obscurant_dim": len(kernel),
        "rank": curve_algebra.multiplication_rank(tau),
        "kernel": kernel,
    }


def _cmd_curve_obscurant(args):
    tau = _tau_payload(args)
    from . import curve_algebra
    kernel = _encode_kernel(tau)
    return {
        "obscurant_dim": len(kernel),
        "rank": curve_algebra.multiplication_rank(tau),
        "kernel": kernel,
    }


def _cmd_curve_overlap(args):
    payload = _read_payload(args)
    from . import curve_algebra, jsonio
    curve = jsonio.decode_curve(jsonio.require_field(payload, "curve", "overlap input"))
    alpha = jsonio.decode_differential(
        curve, jsonio.require_field(payload, "alpha", "overlap input"), "alpha"
    )
    beta = jsonio.decode_differential(
        curve, jsonio.require_field(payload, "beta", "overlap input"), "beta"
    )
    return {"overlap_degree": curve_algebra.overlap_degree(alpha, beta)}


def _cmd_curve_noether(args):
    payload = _read_payload(args)
    from . import curve_algebra, jsonio
    curve = jsonio.decode_curve(jsonio.require_field(payload, "curve", "noether input"))
    return {"noether_image_dim": curve_algebra.noether_image_dim(curve)}


def _cmd_curve_residues(args):
    payload = _read_payload(args)
    from . import curve_algebra, jsonio
    from .exact import quadratic_sum
    curve = jsonio.decode_curve(jsonio.require_field(payload, "curve", "residues input"))
    omega = jsonio.decode_quad_differential(
        curve, jsonio.require_field(payload, "omega", "residues input")
    )
    alpha = jsonio.decode_differential(
        curve, jsonio.require_field(payload, "alpha", "residues input"), "alpha"
    )
    if args.numeric:
        values = curve_algebra.residues_of_quotient(omega, alpha, numeric=True)
        total = sum(values)
        return {
            "residues": [jsonio.encode_complex(v) for v in values],
            "sum": jsonio.encode_complex(total),
        }
    values = curve_algebra.residues_of_quotient(omega, alpha)
    total = quadratic_sum(values)
    return {
        "residues": [jsonio.encode_quadratic_number(v) for v in values],
        "sum": jsonio.encode_rational(total),
    }


def _cmd_curve_sections(args):
    payload = _read_payload(args)
    from . import curve_algebra, jsonio
    curve = jsonio.decode_curve(jsonio.require_field(payload, "curve", "sections input"))
    gamma = jsonio.decode_differential(
        curve, jsonio.require_field(payload, "gamma", "sections input"), "gamma"
    )
    beta = jsonio.decode_differential(
        curve, jsonio.require_field(payload, "beta", "sections input"), "beta"
    )
    alpha = jsonio.decode_differential(
        curve, jsonio.require_field(payload, "alpha", "sections input"), "alpha"
    )
    if args.numeric:
        values = curve_algebra.section_values(gamma, beta, alpha, numeric=True)
        return {"values": [jsonio.encode_complex(v) for v in values]}
    values = curve_algebra.section_values(gamma, beta, alpha)
    return {"values": [jsonio.encode_rational(v) for v in values]}


def _cmd_curve_cross_ratio(args):
    payload = _read_payload(args)
    from . import curve_algebra, jsonio
    curve = jsonio.decode_curve(jsonio.require_field(payload, "curve", "cross-ratio input"))
    names = ("alpha", "beta", "gamma")
    lines = [
        jsonio.decode_differential(
            curve, jsonio.require_field(payload, n, "cross-ratio input"), n
        )
        for n in names
    ]
    forms_ratio, points_ratio, matches = curve_algebra.quartic_cross_ratio(curve, *lines)
    return {
        "forms_cross_ratio": jsonio.encode_complex(forms_ratio),
        "points_cross_ratio": jsonio.encode_complex(points_ratio),
        "matches": matches,
    }


# --- dims / severi ------------------------------------------------------


def _cmd_dims_gap(args):
    from . import realizability
    return realizability.polyperiod_dimension_gap(args.g, args.k)


def _cmd_severi(args):
    from . import realizability
    return [[g, nodes] for g, nodes in realizability.severi_range(args.det)]


# --- parser -------------------------------------------------------------


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="periodforms",
        description="Exact realizability, lattice, cover, and curve computations.",
    )
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument(
        "--format", choices=("json", "table"), default="json", help="output format"
    )
    io = argparse.ArgumentParser(add_help=False, parents=[fmt])
    io.add_argument(
        "--input",
        default="-",
        metavar="FILE|-",
        help="JSON input: a path, - for stdin, or an inline literal",
    )
    top = parser.add_subparsers(dest="command", required=True)

    realizable = top.add_parser("realizable", help="realizability decisions")
    sub = realizable.add_subparsers(dest="subcommand", required=True)
    p = sub.add_parser("line", parents=[io], help="single-class decision")
    p.add_argument(
        "--tolerance", type=float, default=1e-9, help="numeric-path tolerance"
    )
    p.set_defaults(handler=_cmd_realizable_line)
    p = sub.add_parser("pair", parents=[io], help="elliptic-pair decision")
    p.add_argument(
        "--assume-simple",
        action="store_true",
        help="take simplicity as given instead of reporting a splitting witness",
    )
    p.set_defaults(handler=_cmd_realizable_pair)

    lattice = top.add_parser("lattice", help="integral symplectic lattice algorithms")
    sub = lattice.add_subparsers(dest="subcommand", required=True)
    for name, handler, text in (
        ("det", _cmd_lattice_det, "determinant of a complete sublattice"),
        ("saturate", _cmd_lattice_saturate, "saturation, in Hermite form"),
        ("normal-form", _cmd_lattice_normal_form, "alternating normal form"),
        ("map2", _cmd_lattice_map2, "symplectic matrix sending one rank-2 sublattice to another"),
        ("map4", _cmd_lattice_map4, "symplectic matrix sending one rank-4 sublattice to another"),
        ("extend", _cmd_lattice_extend, "extend an indivisible vector to a symplectic basis"),
    ):
        p = sub.add_parser(name, parents=[io], help=text)
        p.set_defaults(handler=handler)

    cover = top.add_parser("cover", help="branched torus covers")
    sub = cover.add_subparsers(dest="subcommand", required=True)
    p = sub.add_parser("build", parents=[fmt], help="construct a cover certificate")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(handler=_cmd_cover_build)
    p = sub.add_parser("analyze", parents=[io], help="genus and lattice invariants")
    p.set_defaults(handler=_cmd_cover_analyze)
    p = sub.add_parser("origami-genus", parents=[io], help="genus of a square-tiled surface")
    p.set_defaults(handler=_cmd_cover_origami_genus)

    curve = top.add_parser("curve", help="differential multiplication invariants")
    sub = curve.add_subparsers(dest="subcommand", required=True)
    p = sub.add_parser("classify", parents=[io], help="coprime or linked")
    p.set_defaults(handler=_cmd_curve_classify)
    p = sub.add_parser("obscurant", parents=[io], help="kernel of the multiplication map")
    p.set_defaults(handler=_cmd_curve_obscurant)
    p = sub.add_parser("overlap", parents=[io], help="degree of the shared zero divisor")
    p.set_defaults(handler=_cmd_curve_overlap)
    p = sub.add_parser("noether", parents=[io], help="dimension of the Sym^2 image")
    p.set_defaults(handler=_cmd_curve_noether)
    p = sub.add_parser("residues", parents=[io], help="residues of omega/alpha")
    p.add_argument("--numeric", action="store_true", help="allow irrational zero loci")
    p.set_defaults(handler=_cmd_curve_residues)
    p = sub.add_parser("cross-ratio", parents=[io], help="quartic cross-ratio law")
    p.set_defaults(handler=_cmd_curve_cross_ratio)
    p = sub.add_parser("sections", parents=[io], help="section values of gamma/beta at zeroes of alpha")
    p.add_argument("--numeric", action="store_true", help="allow irrational zero loci")
    p.set_defaults(handler=_cmd_curve_sections)

    dims = top.add_parser("dims", help="dimension bookkeeping")
    sub = dims.add_subparsers(dest="subcommand", required=True)
    p = sub.add_parser("gap", parents=[fmt], help="isoperiodic Grassmannian dimension gap")
    p.add_argument("--g", type=int, required=True, help="genus")
    p.add_argument("--k", type=int, required=True, help="number of classes")
    p.set_defaults(handler=_cmd_dims_gap)

    p = top.add_parser("severi", parents=[fmt], help="nodal degeneration range for a determinant")
    p.add_argument("--det", type=int, required=True)
    p.set_defaults(handler=_cmd_severi)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        text = _render(args.handler(args), args.format)
    except FormatError as exc:
        print("malformed input: %s" % exc, file=sys.stderr)
        return 2
    except DomainError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())

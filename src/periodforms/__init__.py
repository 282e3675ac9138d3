"""Exact tools for period geometry on translation surfaces and curves.

Four layers, each usable on its own:

- symplectic_lattice: constructive algorithms on sublattices of the
  standard integral symplectic lattice (saturation, determinants,
  alternating normal form, transitivity maps).
- realizability: decides when a cohomology class, or an isotropic pair,
  is realized by an abelian differential; exact rational arithmetic.
- covers: branched covers of the square torus as explicit certificates
  for the realizability verdicts.
- curve_algebra: multiplication of 1-forms on hyperelliptic and plane
  quartic curves (obscurant subspaces, coprime/linked classification,
  residue and cross-ratio laws).

The cli module exposes all of it as `periodforms` subcommands, and each
subcommand loads only the layer it runs.  In the same way `import
periodforms` loads no layer: each public name below is resolved from its
module on first access (PEP 562), so `from periodforms import X` loads
only the layer that defines X.
"""

from importlib import import_module

__version__ = "0.1.0"

# each public name and the module that defines it
_EXPORTS = {
    "BranchedTorusCover": "covers",
    "Origami": "covers",
    "Permutation": "covers",
    "construct_cover": "covers",
    "Differential": "curve_algebra",
    "HyperellipticCurve": "curve_algebra",
    "PlaneQuartic": "curve_algebra",
    "QuadDifferential": "curve_algebra",
    "TauSubspace": "curve_algebra",
    "classify": "curve_algebra",
    "dividend_dim": "curve_algebra",
    "isoperiodic_deformation_dim": "curve_algebra",
    "multiplication_rank": "curve_algebra",
    "noether_image_dim": "curve_algebra",
    "obscurant_dim": "curve_algebra",
    "obscurant_kernel": "curve_algebra",
    "overlap_degree": "curve_algebra",
    "quartic_cross_ratio": "curve_algebra",
    "residues_of_quotient": "curve_algebra",
    "section_values": "curve_algebra",
    "DomainError": "errors",
    "FormatError": "errors",
    "GaussianRational": "exact",
    "QuadraticNumber": "exact",
    "Polynomial": "polynomials",
    "CohomologyClass": "realizability",
    "PlanarLattice": "realizability",
    "is_realizable_elliptic_pair": "realizability",
    "is_realizable_line": "realizability",
    "line_verdict_from_floats": "realizability",
    "polyperiod_dimension_gap": "realizability",
    "severi_range": "realizability",
    "Sublattice": "symplectic_lattice",
    "alternating_normal_form": "symplectic_lattice",
    "determinant": "symplectic_lattice",
    "extend_to_symplectic_basis": "symplectic_lattice",
    "map_rank2_sublattice": "symplectic_lattice",
    "map_rank4_sublattice": "symplectic_lattice",
    "saturate": "symplectic_lattice",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError("module %r has no attribute %r" % (__name__, name)) from None
    value = getattr(import_module("." + module, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))

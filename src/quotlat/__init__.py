"""Exact integral cohomology lattices of prime-order quotients.

Given a compact complex manifold X with an automorphism group G of prime
order p, this package computes, in exact integer arithmetic, the lattice
structure of the torsion-free integral cohomology of X/G: pushforward
(quotient) lattices, normality certificates for the pushforward map in
each degree, Beauville-Bogomolov forms with their Fujiki constants for
fourfold quotients, and the toric weights of isolated fixed points that
enter the middle-degree counts.  A bundled scenario catalog records the
standard K3, torus, and Hilbert-square quotients and `verify-paper`
recomputes every row.
"""

from .gmodule import (
    CohomologyProfile,
    JordanProfile,
    PrimeOrderAction,
    a_invariant,
    conjugate,
    free_quotient_cohomology,
    group_cohomology,
    jordan_profile,
    k3_order5_action,
    reiner_action,
    sym2_action,
    sym2_profile,
)
from .hilb2_ring import (
    SIGMA,
    H2Class,
    H4Class,
    HilbertSquare,
    h2_primitivity_certificate,
    s_lattice_gram,
)
from .lattice_core import (
    ATOM_GRAMS,
    DiscriminantGroup,
    GramLattice,
    LatticeInvariants,
    binary_reduce,
    direct_sum,
    discriminant_group,
    dual_rescaled,
    invariant_summary,
    overlattice_divide,
    parse_lattice_expr,
    rescale,
    smith_normal_form,
)
from .normality import (
    FixedComponent,
    FixedLocusSummary,
    FixedPointLocal,
    IsolatedPoints,
    NormalityReport,
    betti_quotient,
    check_maintori,
    check_simple_criteria,
    check_surface,
    check_th3,
    check_theorem_main,
    isolated_points,
    propagate_power,
    weight_solve,
)
from .quotient_lattice import (
    GlueSpec,
    QuotientResult,
    bb_quotient,
    find_glue,
    lattices_match,
    quotient_middle_lattice,
)
from .scenario import (
    Scenario,
    catalog_verify,
    find_scenario,
    load_catalog,
    load_scenario,
    run_normality,
    verify_scenario,
)
from .toric_weight import (
    WeightValue,
    canonical_exponents,
    hj_expand,
    point_type,
    weight_dim2,
    weight_lookup,
)

__version__ = "0.1.0"

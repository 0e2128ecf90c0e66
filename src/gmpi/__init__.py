"""Generalized mixed product ideals: construction, minimal multigraded free
resolutions via a double complex of tensor-product resolutions, and exact
verification of the structural identities against independent oracles."""

from .monomials import (
    ContextMismatchError,
    MonomialIdeal,
    VariableContext,
    divides,
    ideal,
    lcm,
    minimalize,
    simple_context,
)
from .complexes import (
    BettiTable,
    ChainMap,
    FreeComplex,
    MonomialMatrix,
    SizeCapError,
    betti_table,
    exactness_check,
    ideal_resolution,
    inexact_positions,
    is_linear_resolution,
    lift_chain_map,
    lyubeznik_complex,
    minimalize_complex,
    projective_dimension,
    regularity,
    taylor_complex,
)
from .builder import (
    ConstructionError,
    Factors,
    FamilyValidationError,
    GmpiInstance,
    SubstitutionFamily,
    build_factors,
    build_star_complex,
    certify_factors,
    factored_table,
    minimal_total_table,
    resolution_table,
    star_acyclicity,
    total_complex,
    validate_family,
)
from .families import (
    lex_segment_stable,
    mixed_product_instance,
    path_ideal_complete_multipartite,
    power_of_maximal,
    random_instance,
    squarefree_veronese,
    veronese_type,
)
from .verify import (
    koszul_betti,
    linear_quotients_betti,
    oracle_betti,
    run_instance_checks,
    run_suite,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

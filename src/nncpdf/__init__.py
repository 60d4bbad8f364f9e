"""Achievable-rate bounds for finite-alphabet single-source multicast
relay networks: direct evaluation, special-case reductions, scheme
optimization, and a mechanized symbolic re-derivation of the region."""

from .bounds import (
    BoundReport,
    CutRecord,
    CutSpec,
    FeasibilityEntry,
    admissible_cuts,
    cutset_max_grid,
    cutset_value,
    ddf_bound,
    feasibility_check,
    induced_input_dist,
    is_feasible,
    nnc_bound,
    nncpdf_bound,
    random_feasible_scheme,
    term_values,
    theorem7_bound,
)
from .derivation import (
    BlockLayout,
    Constraint,
    asymptotic_system,
    atom_values,
    build_unfolded_joint,
    constraint_for_compression,
    constraint_for_decoding,
    derive_constraint_families,
    derive_p2p_region,
    derive_region,
    derive_symbolic_families,
    evaluate_unfolded_atom,
    generate_constraints,
    reduce_constraints,
    simplify_constraint,
    simplify_info_term,
)
from .errors import NncpdfError
from .network import (
    Network,
    SchemeDistribution,
    assemble_joint,
    load_network,
    load_network_file,
    load_scheme,
    load_scheme_file,
    make_ddf_scheme,
    make_nnc_scheme,
    network_to_document,
    random_network,
    random_scheme,
    scheme_to_document,
)
from .omega import (
    CodeId,
    IndexId,
    OmegaParameters,
    UnfoldedNetwork,
    build_nncpdf_omega,
    build_p2p_omega,
    unfold_network,
    validate_omega,
)
from .optimize import SearchConfig, coordinate_ascent, embed_scheme, grid_search
from .probability import (
    InfoAtom,
    JointDistribution,
    Var,
    binary_entropy,
    entropy,
    joint,
    marginalize,
    mi,
    mutual_information,
    product_compose,
    validate_pmf,
)
from .symbolic import (
    AffB,
    SymbolicInequality,
    SymbolicRegion,
    eliminate_variable,
    evaluate_region,
    format_region,
    parse_inequality,
    parse_region,
    project_to_R,
)

__version__ = "0.1.0"

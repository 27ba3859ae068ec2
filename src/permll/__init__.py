"""Log-linear models for random permutations.

Dense distribution tables over S_n, product-partition generator families with
exact subspace dimensions, decomposability checks, IPFP and explicit maximum
likelihood fitting, classic ranking-model constructors, and relabelling search.
"""

import types

from .classic import ClassicKind, ClassicSpec, classic_distribution, sample, spec_from_json
from .decompose import (
    DEFAULT_TOL,
    DecomposabilityReport,
    IndependenceMode,
    LambdaDecomposition,
    canonical_lambda,
    check_block_independence,
    check_conditional_independence,
    decomposability_report,
    distribution_from_lambda,
    inverse_distribution,
    is_decomposable,
    markovianize,
)
from .errors import (
    InternalCheckError,
    InvalidLambdaError,
    ParseError,
    PermllError,
    SizeError,
    SupportMismatchError,
    ValidationError,
)
from .fit import (
    EmpiricalData,
    FitOptions,
    FitReport,
    SearchSide,
    empirical,
    explicit_L_mle,
    fit_family,
    gof_report,
    ipfp_fit,
    right_invariance_group,
    search_relabelling,
)
from .perms import (
    ConsecutiveSections,
    DistributionTable,
    Perm,
    ProductPartition,
    SetPartition,
    all_consecutive_sections,
    compose,
    enumerate_permutations,
    identity,
    inverse,
    perm_index,
    relabel_distribution,
)
from .subspaces import (
    FAMILIES,
    BasisKind,
    BasisVector,
    DimensionReport,
    FamilyKind,
    FamilySpec,
    SectionKind,
    basis_vector,
    bold_cross_section,
    dimension_report,
    formula_dimension,
    generators,
    mu_vectors,
    nontrivial_pairs,
    nu_basis_labels,
    parse_family_kind,
    rank_dimension,
    rho5_basis_labels,
    section_partition,
    stats_aq,
    subspace_intersection_dim,
    thin_cross_section,
)

__all__ = [
    name for name in dir() if not name.startswith("_") and not isinstance(globals()[name], types.ModuleType)
]

__version__ = "0.1.0"

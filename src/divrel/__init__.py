"""divrel: exact divisor-set relation counts and their analytic bounds."""

from .analytic import (
    ALPHA_STAR,
    DELTA2,
    DELTA2_CONJECTURED,
    R_STAR,
    AnalyticParams,
    SplitResult,
    XiCertificate,
    a_mean,
    beta_for,
    delta_j,
    ell_alpha,
    f_alpha,
    h_value,
    lemma45_scan,
    lemma7_order,
    optimize_constants,
    pair_exponent_gain,
    s_bounds,
    standard_params,
    tail_check,
    thm4_split,
    u_weight,
    verify_xi_range,
    xi,
)
from .errors import DomainError, ResourceLimitError
from .factorcore import (
    ArithStats,
    DivisorContext,
    Factorization,
    arith_stats,
    coprime_tuples,
    divisors,
    factor,
    kappa,
)
from .records import BoundCheckRecord, make_record
from .regmaps import (
    BUILTIN_KINDS,
    MapTable,
    RegularityReport,
    bound_check,
    build_builtin,
    builtin_midpoint_map,
    builtin_successor_map,
    builtin_sum_map,
    check_regularity,
    exact_E,
    f_value,
    map_from_json,
    map_to_json,
    map_violations,
)
from .relations import (
    C_EXP,
    ENERGY_BASE,
    ENERGY_SPLIT_ETA,
    SHIFTED_TRIPLE_BASE,
    EnergyDecomposition,
    ResidueProfile,
    additive_energy,
    count_sum_triples,
    energy_decomposition,
    hooley_delta,
    inequality_report,
    residue_profile,
)

__version__ = "0.1.0"

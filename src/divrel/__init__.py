"""divrel: exact divisor-set relation counts and their analytic bounds.

The public names below load their module on first use (PEP 562), so
`import divrel` loads no submodule and a command pays only for the modules
it runs.
"""

import importlib

# module -> the public names it defines
_EXPORTS = {
    "analytic": "ALPHA_STAR DELTA2_CONJECTURED R_STAR AnalyticParams SplitResult XiCertificate "
    "a_mean beta_for delta_j ell_alpha f_alpha h_value lemma45_scan lemma7_order optimize_constants "
    "pair_exponent_gain s_bounds standard_params tail_check thm4_split u_weight verify_xi_range xi",
    "errors": "DomainError ResourceLimitError",
    "factorcore": "ArithStats DivisorContext Factorization arith_stats coprime_tuples divisors "
    "factor kappa",
    "records": "DELTA2 BoundCheckRecord make_record",
    "regmaps": "BUILTIN_KINDS MapTable RegularityReport bound_check build_builtin "
    "builtin_midpoint_map builtin_successor_map builtin_sum_map check_regularity exact_E f_value "
    "map_from_json map_to_json map_violations",
    "relations": "C_EXP ENERGY_BASE ENERGY_SPLIT_ETA SHIFTED_TRIPLE_BASE EnergyDecomposition "
    "ResidueProfile additive_energy count_sum_triples energy_decomposition hooley_delta "
    "inequality_report residue_profile",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    # Submodule names are not looked up here: `from divrel import analytic`
    # falls through to the import system.  The value is read from its module
    # on every access and never stored here, so a rebinding of it there (a
    # tracer's wrapper, or its removal) is what divrel.<name> returns.
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

"""Statistics, bound evaluators, regression, and report rendering."""

from .stats import Summary, summarize, bootstrap_ci, success_rate, wilson_interval
from .chernoff import (
    chernoff_upper_tail,
    binomial_tail_exact,
    per_edge_exceedance,
    lemma22_failure_bound,
    predicted_max_set_congestion_quantile,
    empirical_exceedance_rate,
)
from .bounds import (
    trivial_lower_bound,
    polylog_factor,
    BoundsComparison,
    compare_with_bounds,
    effective_polylog_exponent,
    theory_constants_table,
)
from .fitting import AffineFit, fit_affine
from .report import format_table, format_kv, format_bar, print_table

__all__ = [
    "Summary",
    "summarize",
    "bootstrap_ci",
    "success_rate",
    "wilson_interval",
    "chernoff_upper_tail",
    "binomial_tail_exact",
    "per_edge_exceedance",
    "lemma22_failure_bound",
    "predicted_max_set_congestion_quantile",
    "empirical_exceedance_rate",
    "trivial_lower_bound",
    "polylog_factor",
    "BoundsComparison",
    "compare_with_bounds",
    "effective_polylog_exponent",
    "theory_constants_table",
    "AffineFit",
    "fit_affine",
    "format_table",
    "format_kv",
    "format_bar",
    "print_table",
]

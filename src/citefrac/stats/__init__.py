"""Statistics kernel: correlations, omnibus tests, post-hoc comparisons.

Each test of units takes them by name, as `{unit: values}`. Each entry point
raises a StatsError that says why it cannot run: too few units or a unit
too small (`results.check_groups`), values all tied or a constant column,
or a value beyond `results.MAX_MAGNITUDE`.
"""
from .correlation import correlation_matrix, pearson, rankdata, spearman
from .distributions import (
    chi2_sf,
    f_sf,
    studentized_range_cdf,
    studentized_range_quantile,
    t_two_tailed,
)
from .omnibus import kruskal_wallis, levene, one_way_anova
from .posthoc import dunnett_c
from .results import PairwiseDecision, TestResult

__all__ = [
    "PairwiseDecision",
    "TestResult",
    "chi2_sf",
    "correlation_matrix",
    "dunnett_c",
    "f_sf",
    "kruskal_wallis",
    "levene",
    "one_way_anova",
    "pearson",
    "rankdata",
    "spearman",
    "studentized_range_cdf",
    "studentized_range_quantile",
    "t_two_tailed",
]

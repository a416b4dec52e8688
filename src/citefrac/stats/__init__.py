"""Statistics kernel: correlations, omnibus tests, post-hoc comparisons."""
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

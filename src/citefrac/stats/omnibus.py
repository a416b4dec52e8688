"""Omnibus k-sample tests: Kruskal-Wallis, Levene, one-way ANOVA, all
three on one split of the sum of squares into between and within groups."""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..errors import AllValuesTied, TooFewGroups
from .correlation import rankdata
from .distributions import chi2_sf, f_sf
from .results import TestResult, check_magnitude

Groups = Sequence[Sequence[float]]


def _check_groups(groups: Groups, min_group_size: int = 1) -> float:
    """max|x| over every value of the groups. Raise TooFewGroups for fewer
    than 2 groups or a group smaller than `min_group_size`, and
    ValueTooLarge for a value beyond `MAX_MAGNITUDE`."""
    if len(groups) < 2:
        raise TooFewGroups(f"need at least 2 groups, got {len(groups)}")
    largest = 0.0
    for i, g in enumerate(groups):
        if len(g) < min_group_size:
            raise TooFewGroups(
                f"group {i} has {len(g)} values, need at least {min_group_size}"
            )
        largest = max(largest, check_magnitude(f"group {i}", g))
    return largest


def _sums_of_squares(groups: Groups) -> tuple[float, float]:
    """Between-group (SSB) and within-group (SSW) sums of squares."""
    arrays = [np.asarray(g, dtype=float) for g in groups]
    means = [float(np.mean(a)) for a in arrays]
    grand = float(np.sum([np.sum(a) for a in arrays])) / sum(map(len, arrays))
    ssb = sum(len(a) * (m - grand) ** 2 for a, m in zip(arrays, means))
    ssw = sum(float(np.sum((a - m) ** 2)) for a, m in zip(arrays, means))
    return ssb, ssw


def kruskal_wallis(groups: Groups) -> TestResult:
    """Kruskal-Wallis H test on mid-ranks, tie-corrected.

    H = (N - 1)·SSB/(SSB + SSW) of the pooled sample's mid-ranks, which
    equals the classic 12/(N(N+1))·Σ Rᵢ²/nᵢ - 3(N+1) divided by the tie
    correction 1 - Σ(t³ - t)/(N³ - N); df = k - 1; p from the chi-square
    survival function. Values that are all one raise AllValuesTied, which
    names that value.
    """
    _check_groups(groups)
    sizes = [len(g) for g in groups]
    n_total = sum(sizes)
    if n_total < 3:
        raise TooFewGroups(f"pooled sample must have N >= 3, got {n_total}")
    ranks = rankdata([v for g in groups for v in g])
    ssb, ssw = _sums_of_squares(np.split(ranks, np.cumsum(sizes)[:-1]))
    if ssb + ssw == 0.0:
        raise AllValuesTied(
            f"every paper has the value {groups[0][0]:g}, the tests need 2 distinct values"
        )
    h = (n_total - 1) * ssb / (ssb + ssw)
    df = len(groups) - 1
    return TestResult(statistic=h, df=df, p_value=chi2_sf(h, df))


def levene(groups: Groups) -> TestResult:
    """Levene's homogeneity-of-variance test, classic mean-centered: the
    one-way ANOVA of each value's absolute deviation from its group mean.
    The deviations carry the rounding of the values they come from."""
    magnitude = _check_groups(groups, min_group_size=2)
    arrays = [np.asarray(g, dtype=float) for g in groups]
    return _f_test([np.abs(a - np.mean(a)) for a in arrays], magnitude)


def one_way_anova(groups: Groups) -> TestResult:
    """One-way fixed-effects ANOVA F test. With zero within-group spread,
    F is 0 (p = 1) when the group means agree too, else inf (p = 0)."""
    return _f_test(groups, _check_groups(groups))


# A sum of squares over N values is rounding, not spread, when its root mean
# square is at most this many times eps·max|x|: each value's deviation from
# a mean computed in floating point is off by a few eps·max|x|, where max|x|
# is the largest magnitude of the values the deviations come from.
_ROUNDING_EPS = 8


def _f_test(groups: Groups, magnitude: float) -> TestResult:
    """The ANOVA F test of the groups, whose values have their rounding
    from values of at most `magnitude`. A sum of squares at rounding level
    counts as zero."""
    n_total = sum(len(g) for g in groups)
    k = len(groups)
    if n_total <= k:
        raise TooFewGroups("need N > k observations in total")
    ssb, ssw = _sums_of_squares(groups)
    df = (k - 1, n_total - k)
    rounding = _ROUNDING_EPS * np.finfo(float).eps * magnitude
    if math.sqrt(ssw / n_total) <= rounding:
        if math.sqrt(ssb / n_total) <= rounding:
            return TestResult(
                statistic=0.0, df=df, p_value=1.0, note="degenerate: all values equal"
            )
        return TestResult(
            statistic=float("inf"), df=df, p_value=0.0,
            note="zero within-group variance",
        )
    f = (ssb / df[0]) / (ssw / df[1])
    return TestResult(statistic=f, df=df, p_value=f_sf(f, *df))

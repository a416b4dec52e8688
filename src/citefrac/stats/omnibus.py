"""Omnibus k-sample tests: Kruskal-Wallis, Levene, one-way ANOVA."""
from __future__ import annotations

from collections import Counter
from typing import Sequence

import numpy as np

from ..errors import AllValuesTied, DegenerateGroups, TooFewGroups
from .correlation import rankdata
from .distributions import chi2_sf, f_sf
from .results import TestResult

Groups = Sequence[Sequence[float]]


def _check_groups(groups: Groups, min_group_size: int = 1) -> None:
    if len(groups) < 2:
        raise TooFewGroups(f"need at least 2 groups, got {len(groups)}")
    for i, g in enumerate(groups):
        if len(g) < min_group_size:
            raise TooFewGroups(
                f"group {i} has {len(g)} values, need at least {min_group_size}"
            )


def kruskal_wallis(groups: Groups) -> TestResult:
    """Kruskal-Wallis H test on average ranks with tie correction.

    H = [12 / (N(N+1))] * sum R_i^2 / n_i - 3(N+1), divided by
    1 - sum(t^3 - t) / (N^3 - N); df = k - 1; p from the chi-square
    survival function.
    """
    _check_groups(groups)
    pooled = [float(v) for g in groups for v in g]
    n_total = len(pooled)
    if n_total < 3:
        raise TooFewGroups(f"pooled sample must have N >= 3, got {n_total}")
    ranks = rankdata(pooled)
    h = 0.0
    offset = 0
    for g in groups:
        r_sum = float(np.sum(ranks[offset : offset + len(g)]))
        h += r_sum * r_sum / len(g)
        offset += len(g)
    h = 12.0 / (n_total * (n_total + 1)) * h - 3.0 * (n_total + 1)
    tie_sum = sum(t**3 - t for t in Counter(pooled).values())
    correction = 1.0 - tie_sum / (n_total**3 - n_total)
    if correction == 0.0:
        raise AllValuesTied("all pooled values are identical")
    h /= correction
    h = max(0.0, h)  # guard tiny negative rounding noise
    df = len(groups) - 1
    return TestResult(statistic=h, df=df, p_value=chi2_sf(h, df))


def levene(groups: Groups) -> TestResult:
    """Levene's homogeneity-of-variance test, classic mean-centered."""
    _check_groups(groups, min_group_size=2)
    z = [np.abs(np.asarray(g, dtype=float) - float(np.mean(g))) for g in groups]
    n_total = sum(len(g) for g in groups)
    k = len(groups)
    z_means = [float(np.mean(zi)) for zi in z]
    z_grand = float(np.sum([np.sum(zi) for zi in z])) / n_total
    numer = sum(len(g) * (zm - z_grand) ** 2 for g, zm in zip(groups, z_means))
    denom = sum(float(np.sum((zi - zm) ** 2)) for zi, zm in zip(z, z_means))
    df = (k - 1, n_total - k)
    if denom == 0.0:
        if numer == 0.0:
            # All absolute deviations identical: no evidence against
            # homogeneity.
            return TestResult(
                statistic=0.0, df=df, p_value=1.0,
                note="degenerate: all deviations equal",
            )
        raise DegenerateGroups("within-group deviation spread is zero")
    w = (n_total - k) / (k - 1) * numer / denom
    return TestResult(statistic=w, df=df, p_value=f_sf(w, *df))


def one_way_anova(groups: Groups) -> TestResult:
    """One-way fixed-effects ANOVA F test."""
    _check_groups(groups)
    n_total = sum(len(g) for g in groups)
    k = len(groups)
    if n_total <= k:
        raise TooFewGroups("need N > k observations in total")
    grand = float(np.sum([np.sum(g) for g in groups])) / n_total
    ssb = sum(len(g) * (float(np.mean(g)) - grand) ** 2 for g in groups)
    ssw = sum(
        float(np.sum((np.asarray(g, dtype=float) - np.mean(g)) ** 2)) for g in groups
    )
    df = (k - 1, n_total - k)
    if ssw == 0.0:
        if ssb == 0.0:
            return TestResult(statistic=0.0, df=df, p_value=1.0)
        return TestResult(
            statistic=float("inf"), df=df, p_value=0.0,
            note="zero within-group variance",
        )
    f = (ssb / df[0]) / (ssw / df[1])
    return TestResult(statistic=f, df=df, p_value=f_sf(f, *df))

"""Dunnett's C post-hoc pairwise comparisons for unequal variances.

For groups i, j with v = s^2/n and q(df) the upper studentized-range
critical value at the group's own degrees of freedom:

    critical_diff = sqrt((v_i + v_j) / 2)
                    * (q(n_i - 1) * v_i + q(n_j - 1) * v_j) / (v_i + v_j)

A pair is significantly different iff |mean_i - mean_j| exceeds its
critical difference. The q(df) of all groups share alpha and k, so they are
solved once per distinct df, from the largest down. Each solve starts on
the df = inf asymptote q_inf + c/df, corrected by the residuals of the
roots already found, extrapolated in 1/df.
"""
from __future__ import annotations

import math
from itertools import combinations
from typing import Mapping, Sequence

import numpy as np

from ..errors import TooFewGroups
from .distributions import _range_cdf, studentized_range_quantile
from .results import PairwiseDecision, check_magnitude

# Newton steps on the df = inf CDF, and the relative step that ends them.
_ASYMPTOTE_STEPS = 30
_ASYMPTOTE_TOL = 1e-9


def _asymptote(alpha: float, k: int) -> tuple[float, float]:
    """(q_inf, c): the df = inf quantile and its first-order term in 1/df.

    With s = chi_df / sqrt(df), E[s] = 1 - 1/(4 df) and Var(s) = 1/(2 df)
    to first order, so q(df) = q_inf + c/df + O(1/df^2) with
    c = q_inf/4 * (1 - q_inf F''/F'), F the range CDF (df = inf). F' and
    F'' are central differences of that CDF, which also drive the Newton
    steps to q_inf; one call covers three points of one 96-point z grid.
    c is NaN when F' is not positive.
    """
    target = 1.0 - alpha
    q = 4.0
    for _ in range(_ASYMPTOTE_STEPS):
        h = 1e-3 * q
        f_lo, f, f_hi = map(float, _range_cdf(np.array([q - h, q, q + h]), k))
        slope = (f_hi - f_lo) / (2.0 * h)
        curve = (f_hi - 2.0 * f + f_lo) / (h * h)
        if not slope > 0.0:
            break
        q_next = min(max(q - (f - target) / slope, 0.5 * q), 2.0 * q)
        done = abs(q_next - q) <= _ASYMPTOTE_TOL * q_next
        q = q_next
        if done:
            break
    c = 0.25 * q * (1.0 - q * curve / slope) if slope > 0.0 else math.nan
    return q, c


def _extrapolate(points: Sequence[tuple[float, float]], x: float) -> float:
    """Value at x of the polynomial through `points` (0.0 through none)."""
    total = 0.0
    for i, (xi, yi) in enumerate(points):
        weight = 1.0
        for j, (xj, _) in enumerate(points):
            if j != i:
                weight *= (x - xj) / (xi - xj)
        total += yi * weight
    return total


def _critical_values(alpha: float, k: int, dfs: set[int]) -> dict[int, float]:
    """q(df) for each df, solved from the largest df down.

    A solve starts at q_inf + c/df (see `_asymptote`) plus the residual
    q - (q_inf + c/df) of the nearest (up to three) roots already found,
    extrapolated in 1/df by the polynomial through them. A start that is
    not finite or lies below q_inf/2 falls back to the plain q_inf + c/df,
    and failing that to q_inf. A start only changes how many CDF
    evaluations a solve makes, never the quantile.
    """
    q_inf, c = _asymptote(alpha, k)
    roots: dict[int, float] = {}
    residuals: list[tuple[float, float]] = []  # (1/df, root - line)
    for df in sorted(dfs, reverse=True):
        x = 1.0 / df
        line = q_inf + c * x
        near = line + _extrapolate(residuals[-3:], x)
        if not (math.isfinite(near) and near >= 0.5 * q_inf):
            near = line if math.isfinite(line) and line >= 0.5 * q_inf else q_inf
        roots[df] = studentized_range_quantile(alpha, k, df, near=near)
        residuals.append((x, roots[df] - line))
    return roots


def dunnett_c(
    groups: Mapping[str, Sequence[float]], alpha: float = 0.05
) -> list[PairwiseDecision]:
    """All-pairs comparisons of the units `groups` holds, each a sample of
    per-paper values; output ordered by sorted (name_i, name_j).

    Raises TooFewGroups unless there are at least 2 units, each of at least
    2 papers, and ValueTooLarge for a value beyond `MAX_MAGNITUDE`; either
    names the unit at fault.
    """
    if len(groups) < 2:
        kept = f"only unit {next(iter(groups))!r}" if groups else "no unit"
        raise TooFewGroups(f"{kept} kept, the tests need at least 2 units")
    for name, g in groups.items():
        if len(g) < 2:
            raise TooFewGroups(f"unit {name!r} has {len(g)} paper(s), the tests need at least 2")
    k = len(groups)
    stats = {}
    for name, g in groups.items():
        a = np.asarray(g, dtype=float)
        check_magnitude(f"unit {name!r}", a)
        stats[name] = (float(a.mean()), float(a.var(ddof=1)) / len(a), len(a))
    # A quantile is needed unless every variance is zero (then no pair has one).
    q = {}
    if any(v > 0.0 for _, v, _ in stats.values()):
        q = _critical_values(alpha, k, {n - 1 for _, _, n in stats.values()})

    decisions: list[PairwiseDecision] = []
    for name_i, name_j in combinations(sorted(groups), 2):
        mean_i, v_i, n_i = stats[name_i]
        mean_j, v_j, n_j = stats[name_j]
        mean_diff = mean_i - mean_j
        if v_i + v_j == 0.0:
            # No sampling variance at all: any mean difference is real.
            decisions.append(
                PairwiseDecision(name_i, name_j, mean_diff, 0.0, mean_diff != 0.0)
            )
            continue
        q_i, q_j = q[n_i - 1], q[n_j - 1]
        critical = (
            np.sqrt((v_i + v_j) / 2.0) * (q_i * v_i + q_j * v_j) / (v_i + v_j)
        )
        decisions.append(
            PairwiseDecision(
                name_i, name_j, mean_diff, float(critical),
                abs(mean_diff) > critical,
            )
        )
    return decisions

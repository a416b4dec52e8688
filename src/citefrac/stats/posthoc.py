"""Dunnett's C post-hoc pairwise comparisons for unequal variances.

For groups i, j with v = s^2/n and q(df) the upper studentized-range
critical value at the group's own degrees of freedom:

    critical_diff = sqrt((v_i + v_j) / 2)
                    * (q(n_i - 1) * v_i + q(n_j - 1) * v_j) / (v_i + v_j)

A pair is significantly different iff |mean_i - mean_j| exceeds its
critical difference. The q(df) of all groups share alpha and k, so they are
solved once per distinct df, in ascending order, each started near the
roots already found.
"""
from __future__ import annotations

from itertools import combinations
from typing import Mapping, Sequence

import numpy as np

from ..errors import TooFewGroups
from .distributions import studentized_range_quantile
from .results import PairwiseDecision


def _critical_values(alpha: float, k: int, dfs: set[int]) -> dict[int, float]:
    """q(df) for each df, solved in ascending order.

    The quantile is close to linear in 1/df, so from the third df on a solve
    starts on the line through the last two roots (held at or above half
    the last root, as a start must be positive); the second starts at the
    first root. A start only changes how many CDF evaluations a solve
    makes, never the quantile.
    """
    roots: dict[int, float] = {}
    for df in sorted(dfs):
        last = list(roots.items())[-2:]
        near = last[-1][1] if last else None
        if len(last) == 2:
            (d0, q0), (d1, q1) = last
            slope = (q1 - q0) / (1.0 / d1 - 1.0 / d0)
            near = max(q1 + slope * (1.0 / df - 1.0 / d1), 0.5 * q1)
        roots[df] = studentized_range_quantile(alpha, k, df, near=near)
    return roots


def dunnett_c(
    groups: Mapping[str, Sequence[float]], alpha: float = 0.05
) -> list[PairwiseDecision]:
    """All-pairs comparisons; output ordered by sorted (name_i, name_j)."""
    if len(groups) < 2:
        raise TooFewGroups(f"need at least 2 groups, got {len(groups)}")
    for name, g in groups.items():
        if len(g) < 2:
            raise TooFewGroups(f"group {name!r} has {len(g)} values, need >= 2")
    k = len(groups)
    stats = {}
    for name, g in groups.items():
        a = np.asarray(g, dtype=float)
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

"""Pearson and Spearman correlation with t-based significance."""
from __future__ import annotations

import math
from itertools import combinations
from typing import Mapping, Sequence

import numpy as np

from ..errors import ConstantInput, LengthMismatch
from .distributions import t_two_tailed
from .results import TestResult, check_magnitude


def rankdata(values: Sequence[float]) -> np.ndarray:
    """1-based ranks with ties given the mean of their rank positions."""
    # A run of t tied values ending at 1-based position c has mid-rank c - (t - 1)/2.
    _, inverse, counts = np.unique(
        np.asarray(values, dtype=float), return_inverse=True, return_counts=True
    )
    return (np.cumsum(counts) - (counts - 1) / 2)[inverse]


def _corr_p(r: float, n: int) -> float:
    if abs(r) >= 1.0:
        return 0.0
    t = r * math.sqrt((n - 2) / (1.0 - r * r))
    return t_two_tailed(t, n - 2)


def pearson(x: Sequence[float], y: Sequence[float]) -> TestResult:
    """Pearson product-moment correlation with a two-tailed t p-value; a
    value beyond `MAX_MAGNITUDE` raises ValueTooLarge."""
    if len(x) != len(y):
        raise LengthMismatch(f"lengths differ: {len(x)} vs {len(y)}")
    n = len(x)
    if n < 3:
        raise LengthMismatch(f"need at least 3 observations, got {n}")
    check_magnitude("x", x)
    check_magnitude("y", y)
    a = np.asarray(x, dtype=float) - np.mean(x)
    b = np.asarray(y, dtype=float) - np.mean(y)
    # Each root apart, so that the product stays finite up to MAX_MAGNITUDE.
    denom = math.sqrt(float(np.sum(a * a))) * math.sqrt(float(np.sum(b * b)))
    if denom == 0.0:
        raise ConstantInput("correlation undefined for constant input")
    r = float(np.sum(a * b)) / denom
    r = max(-1.0, min(1.0, r))
    return TestResult(statistic=r, df=n - 2, p_value=_corr_p(r, n))


def spearman(x: Sequence[float], y: Sequence[float]) -> TestResult:
    """Spearman rank correlation: Pearson on average-ranked data."""
    return pearson(rankdata(x), rankdata(y))


def correlation_matrix(
    columns: Mapping[str, Sequence[float]],
) -> dict[tuple[str, str], tuple[TestResult, TestResult]]:
    """Pearson and Spearman correlation of every pair of named columns.

    Keys are (earlier label, later label) in column order; each column is
    ranked once. A pair with a constant column raises ConstantInput naming
    the pair and that column, and a column with a value beyond
    `MAX_MAGNITUDE` raises ValueTooLarge naming the column.
    """
    labels = list(columns)
    data = [list(map(float, columns[name])) for name in labels]
    n = len(data[0]) if data else 0
    for name, col in zip(labels, data):
        if len(col) != n:
            raise LengthMismatch(f"column {name!r} has length {len(col)}, expected {n}")
        check_magnitude(f"column {name!r}", col)
    ranks = [rankdata(col) for col in data]
    pairs = {}
    for (a, x, rx), (b, y, ry) in combinations(zip(labels, data, ranks), 2):
        try:
            pairs[a, b] = (pearson(x, y), pearson(rx, ry))
        except ConstantInput:
            constant = a if min(x) == max(x) else b
            raise ConstantInput(
                f"correlation of {a} and {b} undefined: {constant} is constant"
            ) from None
    return pairs

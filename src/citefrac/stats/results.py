"""Result values of the statistics kernel: plain data, no numpy."""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TestResult:
    statistic: float
    df: float | tuple[float, float]
    p_value: float
    note: str | None = None

    def __post_init__(self):
        if not 0.0 <= self.p_value <= 1.0:
            raise ValueError(f"p-value {self.p_value} outside [0, 1]")


@dataclass(frozen=True)
class PairwiseDecision:
    """One pairwise verdict of the post-hoc comparison."""

    unit_i: str
    unit_j: str
    mean_diff: float
    critical_diff: float
    significant: bool

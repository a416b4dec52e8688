"""Result values of the statistics kernel, and the one bound on the values
it takes: plain data, no numpy."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..errors import ValueTooLarge

# The largest magnitude of a value the tests take. The squares and sums of
# squares they form of values this large stay finite, so every test either
# computes or raises, and no float overflows on the way.
MAX_MAGNITUDE = 1e100


def check_magnitude(name: str, values: Iterable[float]) -> None:
    """Raise ValueTooLarge, naming `name`, at the first of `values` that is
    beyond MAX_MAGNITUDE in magnitude or is not a number."""
    for value in values:
        if not abs(value) <= MAX_MAGNITUDE:
            raise ValueTooLarge(
                f"{name} has the value {value:g}, the tests need |value| <= {MAX_MAGNITUDE:g}"
            )


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

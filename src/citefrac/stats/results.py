"""Result values of the statistics kernel, and its checks of the values and
units it takes: plain data, no numpy."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from ..errors import TooFewGroups, ValueTooLarge

# Units by name, each with its sample of values: what every test of units takes.
Groups = Mapping[str, Sequence[float]]

# The largest magnitude of a value the tests take. The squares and sums of
# squares they form of values this large stay finite, so every test either
# computes or raises, and no float overflows on the way.
MAX_MAGNITUDE = 1e100


def check_magnitude(name: str, values: Iterable[float]) -> float:
    """The largest magnitude of `values` (0.0 for none). Raise ValueTooLarge,
    naming `name`, at the first of them that is beyond MAX_MAGNITUDE in
    magnitude or is not a number."""
    largest = 0.0
    for value in values:
        size = abs(value)
        if not size <= MAX_MAGNITUDE:
            raise ValueTooLarge(
                f"{name} has the value {value:g}, the tests need |value| <= {MAX_MAGNITUDE:g}"
            )
        if size > largest:
            largest = size
    return float(largest)


def check_groups(groups: Groups, min_size: int) -> float:
    """max|x| over the units' values, each unit checked by `check_magnitude`
    once every size is checked, in the mapping's order: raise TooFewGroups,
    naming the unit, for fewer than 2 units or one of under `min_size` values."""
    if len(groups) < 2:
        kept = f"only unit {next(iter(groups))!r}" if groups else "no unit"
        raise TooFewGroups(f"{kept} kept, the tests need at least 2 units")
    for name, values in groups.items():
        if len(values) < min_size:
            raise TooFewGroups(
                f"unit {name!r} has {len(values)} paper(s), the tests need at least {min_size}"
            )
    return max(check_magnitude(f"unit {name!r}", values) for name, values in groups.items())


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

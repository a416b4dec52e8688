"""The kernel's one bound on the values it takes: every entry point raises
ValueTooLarge for a value beyond `MAX_MAGNITUDE` before it forms a sum, so
no float overflows and no numpy warning escapes, and a value at the bound
still computes, to what the same values scaled down give."""
import math

import pytest

from citefrac.errors import ValueTooLarge
from citefrac.stats import (
    correlation_matrix, dunnett_c, kruskal_wallis, levene, one_way_anova, pearson, spearman,
)
from citefrac.stats.results import MAX_MAGNITUDE, check_magnitude

pytestmark = pytest.mark.filterwarnings("error")


def _groups(scale: float) -> dict[str, list[float]]:
    """Three units whose largest magnitude is `scale`."""
    base = {"A": [0.1, 0.2, 0.4], "B": [1.0, -1.0, 0.0, 0.25], "C": [0.3, 0.35, 0.5]}
    return {name: [scale * v for v in g] for name, g in base.items()}


# Entry point -> (a call on the values _groups holds, its result as numbers).
ENTRY_POINTS = {
    "pearson": (lambda g: pearson(g["A"] + g["C"][:1], g["B"]), lambda r: [r.statistic, r.p_value]),
    "spearman": (
        lambda g: spearman(g["A"] + g["C"][:1], g["B"]), lambda r: [r.statistic, r.p_value]
    ),
    "correlation_matrix": (
        lambda g: correlation_matrix({"a": g["A"] + g["C"][:1], "b": g["B"]}),
        lambda pairs: [r.statistic for pair in pairs.values() for r in pair],
    ),
    "kruskal_wallis": (kruskal_wallis, lambda r: [r.statistic, r.p_value]),
    "levene": (levene, lambda r: [r.statistic, r.p_value]),
    "one_way_anova": (one_way_anova, lambda r: [r.statistic, r.p_value]),
    "dunnett_c": (
        dunnett_c,
        lambda ds: [x for d in ds for x in (d.mean_diff, d.critical_diff, d.significant)],
    ),
}


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("big", [1e154, 1e200, 1e308, math.inf, math.nan])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_value_beyond_the_bound_raises(entry, big, sign):
    call, _ = ENTRY_POINTS[entry]
    with pytest.raises(ValueTooLarge, match=r"the tests need \|value\| <= 1e\+100$"):
        call(_groups(sign * big))


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_value_at_the_bound_computes(entry):
    call, numbers = ENTRY_POINTS[entry]
    at_bound = numbers(call(_groups(MAX_MAGNITUDE)))
    assert all(math.isfinite(x) for x in at_bound)
    # Scaling every value leaves each statistic and p-value as it was, and
    # scales each difference of means and each critical difference alike.
    unscaled = numbers(call(_groups(1.0)))
    if entry == "dunnett_c":
        unscaled = [x * MAX_MAGNITUDE if type(x) is float else x for x in unscaled]
    assert at_bound == pytest.approx(unscaled, rel=1e-9)


def test_check_magnitude_returns_the_largest():
    assert check_magnitude("x", [0.5, -3.0, 2, MAX_MAGNITUDE / 2]) == MAX_MAGNITUDE / 2
    assert check_magnitude("x", [-7, 2.5]) == 7.0
    assert check_magnitude("x", []) == 0.0
    assert type(check_magnitude("x", [1, -2])) is float


def test_check_magnitude_raises_on_nan_after_a_number():
    with pytest.raises(ValueTooLarge, match=r"^x has the value nan, the tests need"):
        check_magnitude("x", [1.0, math.nan])

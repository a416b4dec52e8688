"""Every test of units takes them by name and checks them by one rule,
`results.check_groups`: too few units, a unit too small and a value beyond
±1e100 each raise one exception class with one message, which names the
unit at fault. Every unit's size is checked before any value."""
import pytest

from citefrac.errors import TooFewGroups, ValueTooLarge
from citefrac.stats import dunnett_c, kruskal_wallis, levene, one_way_anova

# Test of units -> the fewest values it takes of a unit.
MIN_SIZE = {kruskal_wallis: 1, one_way_anova: 1, levene: 2, dunnett_c: 2}
TESTS = pytest.mark.parametrize("test", MIN_SIZE, ids=lambda test: test.__name__)


@TESTS
@pytest.mark.parametrize(
    "groups, error, message",
    [
        ({}, TooFewGroups, "no unit kept, the tests need at least 2 units"),
        ({"A": [1.0, 2.0]}, TooFewGroups, "only unit 'A' kept, the tests need at least 2 units"),
        (
            {"A": [1.0, 2.0], "B": [3.0, -1e101]},
            ValueTooLarge, "unit 'B' has the value -1e+101, the tests need |value| <= 1e+100",
        ),
    ],
    ids=["no_unit", "one_unit", "value_too_large"],
)
def test_units_are_checked_by_one_rule(test, groups, error, message):
    with pytest.raises(error) as info:
        test(groups)
    assert str(info.value) == message


@TESTS
def test_a_unit_too_small_is_named_before_any_value(test):
    need = MIN_SIZE[test]
    groups = {"A": [1e200, 2.0], "B": [3.0] * (need - 1), "C": [4.0, 5.0]}
    with pytest.raises(TooFewGroups) as info:
        test(groups)
    assert str(info.value) == f"unit 'B' has {need - 1} paper(s), the tests need at least {need}"

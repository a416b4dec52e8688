import math
import random

import pytest

from citefrac.errors import AllValuesTied, TooFewGroups
from citefrac.stats import kruskal_wallis, levene, one_way_anova


class TestKruskalWallis:
    def test_identical_groups(self):
        result = kruskal_wallis([[1, 2, 3], [1, 2, 3]])
        assert result.statistic == pytest.approx(0.0, abs=1e-12)
        assert result.p_value == pytest.approx(1.0)

    def test_hand_computed_three_groups(self):
        # Ranks 1..6, rank sums {3, 7, 11}: H = 12/42 * 89.5/2 ... = 32/7.
        result = kruskal_wallis([[1, 2], [3, 4], [5, 6]])
        assert result.statistic == pytest.approx(32 / 7, abs=1e-12)
        assert result.df == 2
        assert result.p_value == pytest.approx(math.exp(-16 / 7), abs=1e-12)

    def test_tie_correction_matches_reference(self):
        # Frozen from an independent implementation (mean ranks + tie term):
        # scipy 1.17.1's scipy.stats.kruskal.
        groups = [[1.0, 2.0, 2.0], [2.0, 3.0], [1.0, 3.0, 3.0]]
        result = kruskal_wallis(groups)
        assert result.statistic == pytest.approx(1.617777777777776, abs=1e-12)
        assert result.p_value == pytest.approx(0.44535262766866723, abs=1e-12)

    def test_rank_invariance_under_monotone_transform(self):
        rng = random.Random(8)
        for _ in range(30):
            groups = [
                [rng.uniform(0, 5) for _ in range(rng.randint(3, 8))]
                for _ in range(3)
            ]
            base = kruskal_wallis(groups).statistic
            transformed = [[math.exp(v) for v in g] for g in groups]
            assert kruskal_wallis(transformed).statistic == pytest.approx(base)

    def test_too_few_groups(self):
        with pytest.raises(TooFewGroups):
            kruskal_wallis([[1, 2, 3]])

    def test_all_values_tied(self):
        with pytest.raises(AllValuesTied):
            kruskal_wallis([[5, 5], [5, 5]])


class TestLevene:
    def test_equal_spread_translated_groups(self):
        result = levene([[1, 2, 3], [4, 5, 6]])
        assert result.statistic == pytest.approx(0.0, abs=1e-12)
        assert result.p_value == pytest.approx(1.0)

    def test_hand_computed_w(self):
        # Groups [[0,0,0],[0,10,20]]: Z means {0, 20/3}, W = 4.
        result = levene([[0, 0, 0], [0, 10, 20]])
        assert result.statistic == pytest.approx(4.0, abs=1e-12)
        assert result.df == (1, 4)
        assert result.p_value == pytest.approx(0.11611652351681559, abs=1e-10)

    def test_scale_invariance_of_p(self):
        rng = random.Random(9)
        for _ in range(20):
            groups = [
                [rng.gauss(0, s) for _ in range(6)] for s in (1.0, 2.5, 0.5)
            ]
            base = levene(groups)
            scaled = levene([[7.3 * v for v in g] for g in groups])
            assert scaled.statistic == pytest.approx(base.statistic)
            assert scaled.p_value == pytest.approx(base.p_value)

    def test_translation_invariance_of_p(self):
        groups = [[1.0, 4.0, 2.0], [0.0, 9.0, 3.5, 1.0]]
        base = levene(groups)
        shifted = levene([[v + 100.0 for v in g] for g in groups])
        assert shifted.p_value == pytest.approx(base.p_value)

    def test_degenerate_all_deviations_equal(self):
        result = levene([[1, 1], [2, 2]])
        assert result.p_value == 1.0
        assert result.note is not None

    def test_rounding_level_spread_is_zero(self):
        # Each group's deviations are equal (1/7, 5/14, 1/7), but float
        # rounding leaves a within-group sum of squares of about 6e-33.
        result = levene([[6 / 7, 4 / 7], [5 / 7, 0.0], [0.0, 2 / 7]])
        assert result.statistic == float("inf")
        assert result.p_value == 0.0
        assert result.note == "zero within-group variance"


class TestAnova:
    def test_identical_groups(self):
        result = one_way_anova([[1, 2, 3], [1, 2, 3]])
        assert result.statistic == pytest.approx(0.0, abs=1e-12)
        assert result.p_value == pytest.approx(1.0)

    def test_hand_sums_of_squares(self):
        # SSB = 1.5, SSW = 4 -> F = (1.5/1)/(4/4) = 1.5.
        result = one_way_anova([[1, 2, 3], [2, 3, 4]])
        assert result.statistic == pytest.approx(1.5, abs=1e-12)
        assert result.df == (1, 4)
        assert result.p_value == pytest.approx(0.2878641347266907, abs=1e-10)

    def test_translation_invariance(self):
        groups = [[1.0, 3.0, 2.0], [4.0, 6.0, 5.0], [1.5, 2.5]]
        base = one_way_anova(groups)
        shifted = one_way_anova([[v - 42.0 for v in g] for g in groups])
        assert shifted.statistic == pytest.approx(base.statistic)
        assert shifted.p_value == pytest.approx(base.p_value)

    def test_zero_within_variance_flagged(self):
        result = one_way_anova([[1, 1], [2, 2]])
        assert result.p_value == 0.0
        assert result.note is not None

    def test_small_spread_above_rounding_is_kept(self):
        # SSW = 1e-12 is far above rounding at this scale: F stays finite.
        result = one_way_anova([[1, 1 + 1e-6], [2, 2 + 1e-6]])
        assert math.isfinite(result.statistic) and result.note is None
        assert result.statistic == pytest.approx(2e12, rel=1e-6)

    def test_rounding_level_spread_on_both_sides_is_degenerate(self):
        # Means and values agree up to rounding: F = 0, as for equal values.
        result = one_way_anova([[0.1 + 0.2, 0.3], [0.3, 0.3]])
        assert result.statistic == 0.0 and result.p_value == 1.0
        assert result.note == "degenerate: all values equal"

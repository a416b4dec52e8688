import csv
import io
import math
import random

import pytest

from citefrac.errors import ConstantInput, LengthMismatch
from citefrac.report import format_correlation_csv
from citefrac.stats import correlation_matrix, pearson, rankdata, spearman
from citefrac.stats.distributions import t_two_tailed


def test_rankdata_average_ties():
    assert list(rankdata([1, 1, 2])) == [1.5, 1.5, 3.0]
    assert list(rankdata([3, 1, 2])) == [3.0, 1.0, 2.0]
    assert list(rankdata([5, 5, 5, 5])) == [2.5] * 4


class TestPearson:
    def test_perfect_linearity(self):
        assert pearson([1, 2, 3], [2, 4, 6]).statistic == pytest.approx(1.0)

    def test_perfect_anti_linearity(self):
        assert pearson([1, 2, 3, 4], [4, 3, 2, 1]).statistic == pytest.approx(-1.0)

    def test_p_value_matches_t_formula(self):
        x = [1.0, 2.0, 4.0, 4.5, 7.0, 9.0]
        y = [2.0, 1.0, 5.0, 6.0, 6.5, 9.5]
        result = pearson(x, y)
        r = result.statistic
        t = r * math.sqrt((len(x) - 2) / (1 - r * r))
        assert result.p_value == pytest.approx(t_two_tailed(t, len(x) - 2))

    def test_constant_input(self):
        with pytest.raises(ConstantInput):
            pearson([1, 1, 1], [2, 2, 2])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            pearson([1, 2, 3], [1, 2])

    def test_too_short(self):
        with pytest.raises(LengthMismatch):
            pearson([1, 2], [3, 4])

    def test_table1_icp_pair(self, table1_rows):
        icp3 = [float(r.icp3) for r in table1_rows]
        icp5 = [float(r.icp5) for r in table1_rows]
        assert pearson(icp3, icp5).statistic == pytest.approx(0.967, abs=0.02)


class TestSpearman:
    def test_monotone_invariance(self):
        x = [1.0, 2.0, 5.0, 9.0]
        y = [math.exp(v) for v in x]
        assert spearman(x, y).statistic == pytest.approx(1.0)

    def test_hand_ranked_tie_case(self):
        # ranks of x = [1.5, 1.5, 3], ranks of y = [1, 3, 2]; Pearson on
        # these ranks is exactly 0.
        assert spearman([1, 1, 2], [3, 5, 4]).statistic == pytest.approx(0.0)

    def test_table1_icp_pair(self, table1_rows):
        icp3 = [float(r.icp3) for r in table1_rows]
        icp5 = [float(r.icp5) for r in table1_rows]
        assert spearman(icp3, icp5).statistic == pytest.approx(0.942, abs=0.02)

    def test_invariant_under_increasing_transform(self):
        rng = random.Random(17)
        for _ in range(50):
            x = [rng.uniform(0, 10) for _ in range(12)]
            y = [rng.uniform(0, 10) for _ in range(12)]
            base = spearman(x, y).statistic
            fx = [math.atan(v) + v**3 for v in x]
            gy = [math.exp(0.3 * v) for v in y]
            assert spearman(fx, gy).statistic == pytest.approx(base)

    def test_bounded(self):
        rng = random.Random(18)
        for _ in range(100):
            x = [rng.gauss(0, 1) for _ in range(8)]
            y = [rng.gauss(0, 1) for _ in range(8)]
            assert -1.0 <= spearman(x, y).statistic <= 1.0
            assert -1.0 <= pearson(x, y).statistic <= 1.0


def _stars(pairs) -> dict[tuple[str, str], str]:
    """(row, col) -> the stars `format_correlation_csv` gives that cell."""
    rows = csv.DictReader(io.StringIO(format_correlation_csv(pairs)))
    return {(r["row"], r["col"]): r["stars"] for r in rows}


class TestCorrelationMatrix:
    def test_identical_columns(self):
        m = correlation_matrix({"a": [1, 2, 3, 4, 5], "b": [1, 2, 3, 4, 5]})
        pear, spear = m["a", "b"]
        assert pear.statistic == pytest.approx(1.0)
        assert spear.statistic == pytest.approx(1.0)
        assert _stars(m)["b", "a"] == "**"  # Pearson, below the diagonal

    def test_pairs_in_column_order(self):
        columns = {"a": [1, 2, 3], "b": [3, 1, 2], "c": [2, 3, 1]}
        m = correlation_matrix(columns)
        assert list(m) == [("a", "b"), ("a", "c"), ("b", "c")]
        for (x, y), (pear, spear) in m.items():
            assert pear == pearson(columns[x], columns[y])
            assert spear == spearman(columns[x], columns[y])
        assert ("a", "a") not in _stars(m)

    def test_no_star_below_critical_r(self):
        # Two-tailed critical r at n = 27, alpha = 0.05, via the t CDF:
        # find r with p(r) = 0.05 by bisection on the p-value function.
        n = 27
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = (lo + hi) / 2
            t = mid * math.sqrt((n - 2) / (1 - mid * mid))
            if t_two_tailed(t, n - 2) > 0.05:
                lo = mid
            else:
                hi = mid
        critical = (lo + hi) / 2
        assert critical == pytest.approx(0.3809, abs=1e-3)
        rng = random.Random(4)
        for _ in range(40):
            x = [rng.gauss(0, 1) for _ in range(n)]
            y = [rng.gauss(0, 1) for _ in range(n)]
            m = correlation_matrix({"x": x, "y": y})
            below = abs(m["x", "y"][0].statistic) < critical
            assert below == (_stars(m)["y", "x"] == "")

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            correlation_matrix({"a": [1, 2, 3], "b": [1, 2]})

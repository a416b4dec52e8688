import csv
import dataclasses
import json
import math
import random
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from citefrac.errors import ConvergenceFailure, TooFewGroups
from citefrac.stats import (
    distributions,
    dunnett_c,
    posthoc,
    studentized_range_cdf,
    studentized_range_quantile,
)
from helpers import (
    reference_studentized_range_cdf,
    reference_studentized_range_quantile,
)

DATA = Path(__file__).parent / "data"
# The paper's 27 departments: P per department (25 distinct sizes).
with open(DATA / "table1.csv", newline="", encoding="utf-8") as _fh:
    TABLE1_SIZES = [int(row["P"]) for row in csv.DictReader(_fh)]
TABLE1_DFS = sorted({p - 1 for p in TABLE1_SIZES})


@pytest.fixture(scope="module")
def bisection_roots():
    """(alpha, df) -> the plain bisection's root at k = 27, every step a
    CDF call on the package's kernel."""
    return {
        (alpha, df): reference_studentized_range_quantile(
            alpha, 27, df, cdf=studentized_range_cdf
        )
        for alpha in (0.05, 0.01)
        for df in TABLE1_DFS
    }


class TestStudentizedRange:
    def test_k2_infinite_df_closed_form(self):
        # For k = 2 the range of two standard normals is sqrt(2) times a
        # standard normal in absolute value, so q = sqrt(2) * z_{1-alpha/2}.
        q = studentized_range_quantile(0.05, 2, math.inf)
        assert q == pytest.approx(math.sqrt(2) * 1.959963984540054, abs=1e-3)

    def test_k3_df10(self):
        assert studentized_range_quantile(0.05, 3, 10) == pytest.approx(
            3.877, abs=0.005
        )

    def test_against_table_values(self):
        # Classic critical-value table entries (alpha, k, df) -> q.
        table = [
            (0.05, 3, 10, 3.877),
            (0.05, 4, 20, 3.958),
            (0.05, 5, 30, 4.102),
            (0.01, 3, 10, 5.270),
            (0.05, 10, 60, 4.646),
            (0.05, 2, 5, 3.635),
        ]
        for alpha, k, df, expected in table:
            q = studentized_range_quantile(alpha, k, df)
            assert q == pytest.approx(expected, rel=5e-3)

    def test_cdf_inverts_quantile(self):
        for alpha, k, df in [(0.05, 3, 10), (0.01, 5, 25), (0.10, 8, 7)]:
            q = studentized_range_quantile(alpha, k, df)
            assert studentized_range_cdf(q, k, df) == pytest.approx(
                1 - alpha, abs=1e-5
            )

    def test_monotonicity_grid(self):
        for df in (5, 15, 60):
            qs = [studentized_range_quantile(0.05, k, df) for k in (2, 3, 5, 9)]
            assert qs == sorted(qs)
        for k in (3, 6):
            qs = [studentized_range_quantile(0.05, k, df) for df in (3, 8, 30, 200)]
            assert qs == sorted(qs, reverse=True)

    def test_cdf_bounds(self):
        assert studentized_range_cdf(0.0, 4, 10) == 0.0
        assert studentized_range_cdf(100.0, 4, 10) == pytest.approx(1.0, abs=1e-9)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            studentized_range_quantile(1.5, 3, 10)
        with pytest.raises(ValueError):
            studentized_range_quantile(0.05, 1, 10)

    def test_nan_arguments_rejected(self):
        nan = float("nan")
        with pytest.raises(ValueError):
            studentized_range_cdf(nan, 3, 10)
        with pytest.raises(ValueError):
            studentized_range_cdf(2.0, 3, nan)
        with pytest.raises(ValueError):
            studentized_range_quantile(0.05, 3, nan)

    def test_unbracketable_quantile_raises(self):
        # The root lies beyond the bracket's last doubling of hi.
        with pytest.raises(ConvergenceFailure, match="could not bracket"):
            studentized_range_quantile(1e-17, 27, 10)

    @pytest.mark.parametrize("near", [0.0, -1.0, math.nan, math.inf])
    def test_bad_start_rejected(self, near):
        with pytest.raises(ValueError, match="near must be positive"):
            studentized_range_quantile(0.05, 3, 10, near=near)

    @pytest.mark.parametrize("df", [4, 42, 542])
    @pytest.mark.parametrize("alpha", [0.05, 0.01])
    def test_any_start_gives_the_bisection_float(self, alpha, df, bisection_roots):
        # A start far below the root, far above it, at the root of the other
        # alpha and at the root itself: the replay returns the same float.
        root = bisection_roots[alpha, df]
        other = bisection_roots[{0.05: 0.01, 0.01: 0.05}[alpha], df]
        for near in (1e-300, 1e300, other, root, None):
            got = studentized_range_quantile(alpha, 27, df, near=near)
            assert got == root, near

    @pytest.mark.parametrize(
        "alpha,k,df",
        [
            (0.05, 2, math.inf),
            (0.05, 3, 1),
            (0.05, 27, 10),
            (0.05, 27, 49),
            (0.01, 27, 4),
            (0.05, 27, 542),
            (0.01, 40, 20),
            (0.10, 5, 7),
        ],
    )
    def test_quantile_bit_identical_to_scalar_oracle(self, alpha, k, df):
        # Bisection only compares CDF values with 1 - alpha, so a kernel a
        # few ulps from the oracle takes the same branches and returns the
        # same float, which keeps every critical_diff byte-identical.
        assert studentized_range_quantile(alpha, k, df) == (
            reference_studentized_range_quantile(alpha, k, df)
        )

    def test_cdf_matches_scalar_oracle(self):
        rng = random.Random(20100103)
        for _ in range(12):
            q = rng.uniform(0.05, 9.0)
            k = rng.randint(2, 40)
            df = rng.choice([math.inf, rng.uniform(1.0, 120.0)])
            got = studentized_range_cdf(q, k, df)
            want = reference_studentized_range_cdf(q, k, df)
            assert abs(got - want) <= 1e-14, (q, k, df)


class TestDunnettC:
    @pytest.mark.parametrize("order", ["sorted", "shuffled"])
    @pytest.mark.parametrize("alpha", [0.05, 0.01])
    def test_table1_quantiles_bit_identical(
        self, alpha, order, bisection_roots, monkeypatch
    ):
        # The paper's shape: 27 groups with table1's sizes. Each distinct
        # df is solved once, from the largest down whatever the group
        # order, and each quantile is the plain bisection's float.
        sizes = sorted(TABLE1_SIZES)
        if order == "shuffled":
            random.Random(27).shuffle(sizes)
        rng = random.Random(5)
        groups = {
            f"u{i:02d}": [rng.gauss(0.0, 1.0) for _ in range(n)]
            for i, n in enumerate(sizes)
        }
        solved = []

        def recording(alpha, k, df, **kwargs):
            q = studentized_range_quantile(alpha, k, df, **kwargs)
            solved.append((df, q))
            return q

        monkeypatch.setattr(posthoc, "studentized_range_quantile", recording)
        dunnett_c(groups, alpha=alpha)
        assert [df for df, _ in solved] == TABLE1_DFS[::-1]
        for df, q in solved:
            assert q == bisection_roots[alpha, df], df

    @pytest.mark.parametrize("alpha", [0.10, 0.001])
    @pytest.mark.parametrize("k", [2, 60])
    def test_critical_values_match_oracle_on_extreme_shapes(self, alpha, k):
        # Starts extrapolated from df = 10**7 down to df = 1 (where q is
        # far off the asymptote) still give the plain bisection's floats.
        dfs = {1, 2, 3, 7, 542, 10**7}
        got = posthoc._critical_values(alpha, k, dfs)
        assert got == {
            df: reference_studentized_range_quantile(
                alpha, k, df, cdf=studentized_range_cdf
            )
            for df in dfs
        }

    def test_start_falls_back_to_the_anchor(self, monkeypatch):
        # A flat df = inf CDF leaves F' = 0, so c, every line value and
        # every extrapolated start are NaN: each solve starts at q_inf.
        flat = lambda w, k: np.full(np.shape(w), 0.5)  # noqa: E731
        monkeypatch.setattr(posthoc, "_range_cdf", flat)
        starts = []

        def recording(alpha, k, df, near):
            starts.append(near)
            return studentized_range_quantile(alpha, k, df, near=near)

        monkeypatch.setattr(posthoc, "studentized_range_quantile", recording)
        dfs = {3, 10, 49}
        got = posthoc._critical_values(0.05, 27, dfs)
        assert len(starts) == 3 and len(set(starts)) == 1
        assert math.isfinite(starts[0]) and starts[0] > 0.0
        assert got == {
            df: reference_studentized_range_quantile(
                0.05, 27, df, cdf=studentized_range_cdf
            )
            for df in dfs
        }

    @pytest.mark.parametrize(
        "sizes,alpha,budget",
        [
            (TABLE1_SIZES, 0.05, 115),
            (TABLE1_SIZES, 0.01, 110),
            ([50] + [34] * 2 + [24] * 4 + [16] * 8 + [11] * 12, 0.05, 25),
        ],
        ids=["table1-0.05", "table1-0.01", "paper27"],
    )
    def test_cdf_call_budget(self, sizes, alpha, budget, monkeypatch):
        # Full studentized-range CDF calls made by one Dunnett's C run at
        # k = 27: the solves start near their roots (128, 141 and 38 calls
        # when each solve started from the last two roots in ascending df).
        calls = []
        cdf = distributions.studentized_range_cdf

        def counting(q, k, df):
            calls.append(df)
            return cdf(q, k, df)

        monkeypatch.setattr(distributions, "studentized_range_cdf", counting)
        rng = random.Random(7)
        groups = {
            f"u{i:02d}": [rng.gauss(0.0, 1.0) for _ in range(n)]
            for i, n in enumerate(sizes)
        }
        dunnett_c(groups, alpha=alpha)
        assert len(calls) <= budget

    def test_identical_groups_not_significant(self):
        decisions = dunnett_c({"a": [1.0, 2.0, 3.0], "b": [1.0, 2.0, 3.0]})
        (d,) = decisions
        assert d.mean_diff == 0.0
        assert not d.significant

    def test_separated_groups_significant(self):
        rng = random.Random(1)
        a = [0.0 + rng.gauss(0, 0.1) for _ in range(30)]
        b = [100.0 + rng.gauss(0, 0.1) for _ in range(30)]
        (d,) = dunnett_c({"a": a, "b": b})
        assert d.significant

    def test_zero_variance_pair(self):
        decisions = dunnett_c({"a": [1.0, 1.0], "b": [2.0, 2.0]})
        (d,) = decisions
        assert d.critical_diff == 0.0
        assert d.significant

    def test_significance_iff_exceeds_critical(self):
        rng = random.Random(2)
        groups = {
            name: [rng.gauss(mu, 1.0) for _ in range(8)]
            for name, mu in (("a", 0.0), ("b", 0.5), ("c", 3.0))
        }
        for d in dunnett_c(groups):
            assert d.significant == (abs(d.mean_diff) > d.critical_diff)

    def test_scale_invariance_of_verdicts(self):
        rng = random.Random(3)
        groups = {
            name: [rng.gauss(mu, s) for _ in range(7)]
            for name, mu, s in (("a", 0.0, 1.0), ("b", 1.0, 2.0), ("c", 4.0, 0.5))
        }
        base = dunnett_c(groups)
        scaled = dunnett_c({k: [13.7 * v for v in g] for k, g in groups.items()})
        assert [d.significant for d in base] == [d.significant for d in scaled]
        for d0, d1 in zip(base, scaled):
            assert d1.mean_diff == pytest.approx(13.7 * d0.mean_diff)
            assert d1.critical_diff == pytest.approx(13.7 * d0.critical_diff)

    def test_too_few_groups(self):
        with pytest.raises(TooFewGroups):
            dunnett_c({"a": [1.0, 2.0]})
        with pytest.raises(TooFewGroups):
            dunnett_c({"a": [1.0, 2.0], "b": [1.0]})

    def test_verdicts_match_reference_fixture(self):
        # 20 random datasets with verdicts precomputed by an independent
        # implementation of the same pairwise formula.
        cases = json.loads((DATA / "stats_cases.json").read_text())
        for case in cases:
            groups = {f"g{i}": g for i, g in enumerate(case["groups"])}
            decisions = dunnett_c(groups)
            got = {f"{d.unit_i}|{d.unit_j}": d.significant for d in decisions}
            assert got == case["dunnett"]

    def test_output_ordering(self):
        groups = {"z": [1.0, 2.0], "a": [1.0, 2.0], "m": [1.0, 2.0]}
        decisions = dunnett_c(groups)
        pairs = [(d.unit_i, d.unit_j) for d in decisions]
        assert pairs == list(combinations(sorted(groups), 2))

    def test_decisions_are_plain_values(self):
        # Each decision holds a Python float and bool, so that a library
        # caller can test `significant is True` and write a decision as JSON.
        # C and D have no variance: their pair takes the other branch.
        groups = {"A": [1, 2], "B": [3, 5], "C": [4.0, 4.0], "D": [4.0, 4.0]}
        decisions = dunnett_c(groups)
        assert len(decisions) == 6
        for d in decisions:
            assert type(d.significant) is bool
            assert type(d.mean_diff) is float and type(d.critical_diff) is float
            json.dumps(dataclasses.asdict(d))

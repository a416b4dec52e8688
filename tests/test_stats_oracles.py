"""The omnibus kernel against its textbook oracles on random tied samples:
Kruskal-Wallis as (N - 1)·SSB/SST of the mid-ranks, Levene as the ANOVA of
absolute deviations, and mid-ranks from np.unique run counts."""
import random

import numpy as np
import pytest

from citefrac.stats import kruskal_wallis, levene, rankdata
from helpers import reference_kruskal_wallis, reference_levene, reference_rankdata

# Value grids with many ties; thirds and sevenths give group means and
# deviations that a float cannot hold exactly.
GRIDS = [
    [i / 2 for i in range(7)],
    [i / 3 for i in range(7)],
    [i / 7 for i in range(10)],
    [0.0, 1.0, 2.0],
]


def random_tied_groups(rng: random.Random) -> list[list[float]]:
    grid = rng.choice(GRIDS)
    return [
        [rng.choice(grid) for _ in range(rng.randint(2, 8))]
        for _ in range(rng.randint(2, 5))
    ]


def test_omnibus_matches_oracles_on_tied_samples():
    rng = random.Random(16)
    for _ in range(500):
        groups = random_tied_groups(rng)
        named = {f"u{i}": g for i, g in enumerate(groups)}  # sorted as listed
        pooled = [v for g in groups for v in g]
        assert np.array_equal(rankdata(pooled), reference_rankdata(pooled))
        pairs = [(levene(named), reference_levene(groups))]
        if len(set(pooled)) > 1:
            pairs.append((kruskal_wallis(named), reference_kruskal_wallis(groups)))
        for got, (statistic, p_value) in pairs:
            # Deviations that are equal but for rounding give W = inf in
            # both: the kernel counts rounding-level spread as zero, and
            # the oracle decides zero spread exactly.
            assert got.statistic == pytest.approx(statistic, rel=1e-12, abs=1e-12), groups
            assert got.p_value == pytest.approx(p_value, abs=1e-12), groups

import math

import numpy as np
import pytest

from citefrac.stats.distributions import chi2_sf, f_sf, t_two_tailed
from citefrac.stats.special import betainc, erfc, gammainc_upper, normal_cdf

# High-precision reference values (30-digit arithmetic), frozen. The gamma
# cases are the lower regularized P(a, x), checked as 1 - Q(a, x); they
# cover both sides of the series/continued-fraction split at x = a + 1.
GAMMA_CASES = [
    (0.5, 0.25, 0.52049987781304654),
    (0.5, 2.0, 0.95449973610364159),
    (1.0, 1.0, 0.63212055882855768),
    (2.5, 1.0, 0.15085496391539036),
    (2.5, 6.0, 0.96521221949375815),
    (5.0, 4.0, 0.37116306482012648),
    (10.0, 12.0, 0.75760783832948765),
    (13.0, 6.5, 0.016026642171248171),
    (30.0, 25.0, 0.18210391597745511),
    (50.0, 60.0, 0.91559331890630817),
    (0.8, 0.1, 0.16283976034129239),
    (100.0, 100.0, 0.51329879827914866),
]

BETA_CASES = [
    (0.5, 0.5, 0.3, 0.36901011956554538),
    (1.0, 3.0, 0.4, 0.78400000000000002),
    (2.0, 2.0, 0.5, 0.5),
    (2.0, 5.0, 0.2, 0.34464000000000003),
    (3.5, 1.5, 0.7, 0.44707961346848348),
    (5.0, 5.0, 0.5, 0.5),
    (10.0, 2.0, 0.9, 0.69735688020000009),
    (13.0, 0.5, 0.95, 0.25269547020389783),
    (0.5, 13.0, 0.01, 0.3873520681510359),
    (25.0, 25.0, 0.45, 0.24029565603805257),
    (1.5, 3.5, 0.35, 0.63981848687301273),
    (60.0, 40.0, 0.6, 0.49456299888440514),
]


@pytest.mark.parametrize("a,x,expected", GAMMA_CASES)
def test_gammainc_lower_grid(a, x, expected):
    assert abs((1.0 - gammainc_upper(a, x)) - expected) < 1e-8


@pytest.mark.parametrize("a,b,x,expected", BETA_CASES)
def test_betainc_grid(a, b, x, expected):
    assert abs(betainc(a, b, x) - expected) < 1e-8


def test_gammainc_bounds_and_edges():
    assert gammainc_upper(2.0, 0.0) == 1.0
    assert abs(gammainc_upper(2.0, 1e6)) < 1e-12
    with pytest.raises(ValueError):
        gammainc_upper(-1.0, 1.0)


def test_betainc_edges():
    assert betainc(2.0, 3.0, 0.0) == 0.0
    assert betainc(2.0, 3.0, 1.0) == 1.0
    with pytest.raises(ValueError):
        betainc(2.0, 3.0, 1.5)


def test_normal_cdf():
    assert abs(normal_cdf(0.0) - 0.5) < 1e-15
    assert abs(normal_cdf(1.959963984540054) - 0.975) < 1e-12
    assert abs(normal_cdf(-1.0) + normal_cdf(1.0) - 1.0) < 1e-15


def test_erfc_matches_math_erfc():
    # Absolute error only: relative error is no gate in the far tail, where
    # erfc(x) is denormal and both sides carry only a few significant bits.
    edges = [-8.0, -1.0, 0.0, -0.0, 1.0, 8.0]
    x = np.concatenate([
        np.linspace(-40.0, 40.0, 160_001),
        edges,
        np.nextafter(edges, np.inf),
        np.nextafter(edges, -np.inf),
    ])
    want = np.array([math.erfc(v) for v in x])
    assert np.max(np.abs(erfc(x) - want)) <= 1e-15
    got_edges = erfc(np.array(edges))
    assert got_edges[2] == 1.0 and got_edges[3] == 1.0


def test_erfc_tails_and_nan():
    got = erfc(np.array([np.inf, -np.inf, 30.0, -30.0, 1e200, -1e200, np.nan]))
    assert got[:6].tolist() == [0.0, 2.0, 0.0, 2.0, 0.0, 2.0]
    assert math.isnan(got[6])


def test_cdfs_monotone_and_bounded():
    prev = 1.0
    for x in [0.1 * i for i in range(1, 200)]:
        sf = chi2_sf(x, 5.0)
        assert 0.0 <= sf <= prev
        prev = sf
    prev = 1.0
    for f in [0.1 * i for i in range(1, 100)]:
        sf = f_sf(f, 3.0, 17.0)
        assert 0.0 <= sf <= prev + 1e-15
        prev = sf


def test_t_two_tailed_symmetric():
    for t in (0.5, 1.3, 2.7):
        assert abs(t_two_tailed(t, 9) - t_two_tailed(-t, 9)) < 1e-14
    assert abs(t_two_tailed(0.0, 9) - 1.0) < 1e-14


def test_chi2_sf_closed_form_df2():
    # For df = 2 the survival function is exp(-x/2).
    for x in (0.5, 1.0, 32 / 7, 10.0):
        assert abs(chi2_sf(x, 2) - math.exp(-x / 2)) < 1e-12

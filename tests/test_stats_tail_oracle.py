"""Frozen bit-exact values of the chi-square and F tails' special functions.

`tests/test_stats_special.py` compares with 30-digit references at 1e-12;
these compare `float.hex` for equality, so any change to the continued
fractions' Lentz loop, or to the order of the operations in a term, shows
here even where it moves a value by one ulp. The values are the kernel's
own: they pin its output, where the 30-digit references pin its accuracy.
"""
import pytest

from citefrac.stats.special import betainc, gammainc_upper

# (a, x, Q(a, x).hex()), a from 0.01 to 800.
GAMMA_SERIES = [  # x < a + 1: 1 - the series for P(a, x)
    (0.01, 1e-10, "0x1.9beeb751f7660p-3"),
    (0.01, 0.5, "0x1.70c14dd5ed900p-8"),
    (0.5, 1e-12, "0x1.ffffda234bf87p-1"),
    (0.5, 0.75, "0x1.c3ef58d4e04e4p-3"),
    (2.5, 3.0, "0x1.399173c0018f6p-2"),
    (13.0, 6.5, "0x1.f7cb5b200503dp-1"),
    (100.0, 100.5, "0x1.de0851f39df96p-2"),
    (800.0, 750.0, "0x1.ed5db2eb31360p-1"),
    (800.0, 800.9, "0x1.ee328d6c492e4p-2"),
]
GAMMA_CF = [  # x >= a + 1: the continued fraction for Q(a, x)
    (0.01, 1.01, "0x1.1daf4d5026432p-9"),
    (0.01, 30.0, "0x1.22112a00d81a6p-55"),
    (0.5, 2.0, "0x1.74bcf82c9d853p-5"),
    (1.0, 2.0, "0x1.152aaa3bf81ccp-3"),
    (2.5, 3.5, "0x1.c3df10d623ed0p-3"),
    (13.0, 40.0, "0x1.c2340f4b7194ap-23"),
    (100.0, 101.0, "0x1.c9d58dd67a1c5p-2"),
    (100.0, 180.0, "0x1.0355b0fcb53bcp-35"),
    (800.0, 801.0, "0x1.ecc17d8cbbf90p-2"),
    (800.0, 900.0, "0x1.54df59607391cp-12"),
    (3.0, 700.0, "0x1.039390f02767fp-992"),
]
# (a, b, x, I_x(a, b).hex()), a and b from 0.01 to 800, x near 0 and near 1.
BETA_DIRECT = [  # x < (a + 1)/(a + b + 2): the fraction at (a, b, x)
    (0.01, 0.01, 1e-10, "0x1.96c31248fa6dbp-2"),
    (0.01, 800.0, 1e-06, "0x1.df799c77b97c6p-1"),
    (0.5, 0.5, 0.3, "0x1.79ddc9edb5507p-2"),
    (2.0, 3.0, 0.2, "0x1.72474538ef349p-3"),
    (10.0, 0.01, 0.9, "0x1.2156f9b3f97cep-9"),
    (13.5, 1.5, 0.5, "0x1.19c0e22872f8cp-12"),
    (800.0, 800.0, 0.49, "0x1.b1e8133dfb2c4p-3"),
    (800.0, 2.0, 0.99, "0x1.7c1be530e35c0p-9"),
    (3.0, 50.0, 1e-12, "0x1.caffc13c15ae5p-106"),
    (0.02, 5.0, 1e-300, "0x1.17c71aa9a64fap-20"),
    (0.01, 800.0, 0.001, "0x1.fe65587a76911p-1"),
]
BETA_SWAPPED = [  # otherwise: 1 - the fraction at (b, a, 1 - x)
    (0.01, 0.01, 0.9999999999, "0x1.349e76d8b0094p-1"),
    (800.0, 0.01, 0.999999999999, "0x1.7990e12daab48p-3"),
    (0.5, 0.5, 0.7, "0x1.43111b092557ep-1"),
    (2.0, 3.0, 0.6, "0x1.a43fe5c91d14fp-1"),
    (800.0, 800.0, 0.51, "0x1.9385fb308134fp-1"),
    (3.0, 50.0, 0.2, "0x1.ff8c03e61e07bp-1"),
    (5.0, 0.5, 0.95, "0x1.f06d1b9695474p-2"),
    (1.5, 13.5, 0.2, "0x1.ca122818ff03ap-1"),
    (400.0, 12.5, 0.975, "0x1.6f7bbc97d43fdp-1"),
]


@pytest.mark.parametrize("a,x,want", GAMMA_SERIES + GAMMA_CF)
def test_gammainc_upper_bits(a, x, want):
    assert gammainc_upper(a, x).hex() == want


@pytest.mark.parametrize("a,b,x,want", BETA_DIRECT + BETA_SWAPPED)
def test_betainc_bits(a, b, x, want):
    assert betainc(a, b, x).hex() == want


def test_cases_cover_both_branches():
    assert all(x < a + 1.0 for a, x, _ in GAMMA_SERIES)
    assert all(x >= a + 1.0 for a, x, _ in GAMMA_CF)
    assert all(x < (a + 1.0) / (a + b + 2.0) for a, b, x, _ in BETA_DIRECT)
    assert all(x >= (a + 1.0) / (a + b + 2.0) for a, b, x, _ in BETA_SWAPPED)

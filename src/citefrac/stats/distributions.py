"""Distribution functions: chi-square, Student-t, F, studentized range.

The studentized-range CDF is evaluated by numerical integration (outer
integral over the scale variable, inner over the range of k standard
normals) and inverted by bracketing plus bisection, replayed around a root
that a secant found first, so that most bisection steps need no CDF call.
One CDF evaluation is a few numpy passes over the whole (scale, z)
Gauss-Legendre grid: Phi comes from the rational `special.erfc` and the
(k-1)th power from repeated squaring, with no Python call per grid point.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from ..errors import ConvergenceFailure
from .special import betainc, erfc, gammainc_upper, normal_cdf


def chi2_sf(x: float, df: float) -> float:
    """Survival function of the chi-square distribution."""
    if x <= 0:
        return 1.0
    return gammainc_upper(df / 2.0, x / 2.0)


def t_two_tailed(t: float, df: float) -> float:
    """Two-tailed p-value for Student's t."""
    return betainc(df / 2.0, 0.5, df / (df + t * t))


def f_sf(f: float, df1: float, df2: float) -> float:
    """Survival function of the F distribution."""
    if f <= 0:
        return 1.0
    return betainc(df2 / 2.0, df1 / 2.0, df2 / (df2 + df1 * f))


# ---------------------------------------------------------------------------
# Studentized range
# ---------------------------------------------------------------------------

# Inner integral: z grid over the effective support of the normal density.
_Z_NODES, _Z_WEIGHTS = np.polynomial.legendre.leggauss(96)
_Z_LO, _Z_HI = -9.0, 9.0
_Z = 0.5 * (_Z_HI - _Z_LO) * _Z_NODES + 0.5 * (_Z_HI + _Z_LO)
_ZW = 0.5 * (_Z_HI - _Z_LO) * _Z_WEIGHTS
_PHI_Z = np.exp(-0.5 * _Z * _Z) / math.sqrt(2.0 * math.pi)
_CDF_Z = np.array([normal_cdf(z) for z in _Z])

_S_NODES, _S_WEIGHTS = np.polynomial.legendre.leggauss(64)


def _int_power(x: np.ndarray, n: int) -> np.ndarray:
    """x**n for an integer n >= 1 by binary exponentiation."""
    result = None
    while True:
        if n & 1:
            result = x if result is None else result * x
        n >>= 1
        if not n:
            return result
        x = x * x


def _range_cdf(w: np.ndarray | float, k: int) -> np.ndarray:
    """P(range of k standard normals <= w), an array over w."""
    w = np.atleast_1d(np.asarray(w, dtype=float))
    # P = k * int phi(z) * [Phi(z) - Phi(z - w)]^(k-1) dz
    lower = 0.5 * erfc(-(_Z[None, :] - w[:, None]) / math.sqrt(2.0))
    inner = _int_power(np.clip(_CDF_Z[None, :] - lower, 0.0, 1.0), k - 1)
    return k * np.sum(_PHI_Z[None, :] * inner * _ZW[None, :], axis=1)


@lru_cache(maxsize=None)
def _chi_scale_grid(df: float) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes/weights for s = chi_df / sqrt(df), density-weighted.

    The integration range is split into panels around the mode (s ~ 1) so a
    fixed Gauss-Legendre rule per panel resolves the density accurately even
    at small df.
    """
    half = df / 2.0
    log_norm = math.log(2.0) + half * math.log(half) - math.lgamma(half)

    def log_density(s: np.ndarray) -> np.ndarray:
        return log_norm + (df - 1.0) * np.log(s) - half * s * s

    spread = 1.0 / math.sqrt(max(df, 1.0))
    hi = 1.0 + 12.0 * spread
    breaks = [1e-10, max(1e-8, 1.0 - 8.0 * spread), 1.0 - 2.0 * spread,
              1.0, 1.0 + 2.0 * spread, 1.0 + 6.0 * spread, hi]
    breaks = sorted({max(b, 1e-10) for b in breaks})
    nodes_all: list[np.ndarray] = []
    weights_all: list[np.ndarray] = []
    for lo, up in zip(breaks[:-1], breaks[1:]):
        s = 0.5 * (up - lo) * _S_NODES + 0.5 * (up + lo)
        w = 0.5 * (up - lo) * _S_WEIGHTS
        nodes_all.append(s)
        weights_all.append(w * np.exp(log_density(s)))
    return np.concatenate(nodes_all), np.concatenate(weights_all)


def studentized_range_cdf(q: float, k: int, df: float) -> float:
    """P(Q_{k, df} <= q) for the studentized range distribution."""
    if math.isnan(q):
        raise ValueError("q must not be NaN")
    if k < 2:
        raise ValueError("k must be >= 2")
    if not df > 0:
        raise ValueError(f"df must be positive, got {df}")
    if q <= 0:
        return 0.0
    if math.isinf(df) or df > 1e6:
        return float(_range_cdf(q, k)[0])
    s, w = _chi_scale_grid(float(df))
    inner = _range_cdf(q * s, k)
    return float(min(1.0, max(0.0, np.sum(w * inner))))


# A secant root r is checked by evaluating the CDF at r * (1 -/+ _BAND). Over
# that distance the CDF moves by about 1e-8, far above the rounding of one
# evaluation (about 1e-15), so the checked ends decide the side of every
# point outside them exactly as a CDF call would.
_BAND = 1e-7
# A secant step shorter than this (relative) lands within _BAND of the root,
# so it is followed by the check rather than by one more step.
_SECANT_STOP = 1e-4
_SECANT_STEPS = 16
# The bisection stops once its bracket is this narrow relative to its middle.
# From the widest start (lo = 1e-8, hi = 4) that takes at most 49 halvings;
# a doubled bracket (hi = 2 lo) takes 20.
_REL_TOL = 1e-6


def _root_band(target: float, k: int, df: float, near: float) -> tuple[float, float]:
    """Points a < b, b - a <= 2 * _BAND * b, with CDF(a) < target <= CDF(b).

    A secant from the two points _BAND either side of `near`; a short step
    is followed by the two points either side of its end, which check the
    root and, should the check fail, give the next secant step. (0, inf)
    when the secant stalls on a flat CDF or runs out of steps.
    """
    def excess(q: float) -> float:
        return studentized_range_cdf(q, k, df) - target

    x0, x1 = near * (1.0 - _BAND), near * (1.0 + _BAND)
    g0, g1 = excess(x0), excess(x1)
    for _ in range(_SECANT_STEPS):
        if g0 < 0.0 <= g1 and 0.0 < x1 - x0 <= 2.0 * _BAND * x1:
            return x0, x1
        if g1 == g0:
            break
        x = min(max(x1 - g1 * (x1 - x0) / (g1 - g0), 0.5 * x1), 2.0 * x1)
        if abs(x - x1) <= _SECANT_STOP * x:
            x0, x1 = x * (1.0 - _BAND), x * (1.0 + _BAND)
            g0, g1 = excess(x0), excess(x1)
        else:
            x0, g0, x1, g1 = x1, g1, x, excess(x)
    return 0.0, math.inf


def studentized_range_quantile(
    alpha: float,
    k: int,
    df: float,
    near: float | None = None,
) -> float:
    """Upper critical value q with P(Q_{k, df} <= q) = 1 - alpha.

    The value is the one bracketing and bisection on the CDF give; the
    relative error of the root is driven well below the 1e-4 contract. A
    secant from `near` (default 4.0, the first bracket end) first finds and
    checks the root (see `_root_band`). The bisection is then replayed step
    for step, but a point outside the checked band takes its side from the
    band without a CDF call. The result is the same float whatever `near`
    is; a start near the root (such as `posthoc`'s asymptotic start) only
    saves CDF evaluations: typically 4 or 5 in place of 22.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if k < 2:
        raise ValueError("k must be >= 2")
    if near is None:
        near = 4.0
    elif not 0.0 < near < math.inf:
        raise ValueError(f"near must be positive and finite, got {near}")
    target = 1.0 - alpha
    band_lo, band_hi = _root_band(target, k, df, near)

    def below(q: float) -> bool:
        """CDF(q) < target, from the band when q lies outside it."""
        if q <= band_lo:
            return True
        if q >= band_hi:
            return False
        return studentized_range_cdf(q, k, df) < target

    lo, hi = 1e-8, 4.0
    it = 0
    while below(hi):
        lo, hi = hi, hi * 2.0
        it += 1
        if it > 60:
            raise ConvergenceFailure("could not bracket studentized-range quantile")
    while True:
        mid = 0.5 * (lo + hi)
        if below(mid):
            lo = mid
        else:
            hi = mid
        if hi - lo <= _REL_TOL * mid:
            return 0.5 * (lo + hi)

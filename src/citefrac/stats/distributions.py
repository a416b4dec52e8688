"""Distribution functions: chi-square, Student-t, F, studentized range.

The studentized-range CDF is evaluated by numerical integration (outer
integral over the scale variable, inner over the range of k standard
normals) and inverted by bracketing plus bisection. One CDF evaluation is a
few numpy passes over the whole (scale, z) Gauss-Legendre grid: Phi comes
from the rational `special.erfc` and the (k-1)th power from repeated
squaring, with no Python call per grid point.
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


def _range_cdf(w: np.ndarray | float, k: int) -> np.ndarray | float:
    """P(range of k standard normals <= w), vectorized over w."""
    w = np.atleast_1d(np.asarray(w, dtype=float))
    # P = k * int phi(z) * [Phi(z) - Phi(z - w)]^(k-1) dz
    lower = 0.5 * erfc(-(_Z[None, :] - w[:, None]) / math.sqrt(2.0))
    inner = _int_power(np.clip(_CDF_Z[None, :] - lower, 0.0, 1.0), k - 1)
    out = k * np.sum(_PHI_Z[None, :] * inner * _ZW[None, :], axis=1)
    return out if out.size > 1 else float(out[0])


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
        if up <= lo:
            continue
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
        return float(_range_cdf(q, k))
    s, w = _chi_scale_grid(float(df))
    inner = _range_cdf(q * s, k)
    return float(min(1.0, max(0.0, np.sum(w * inner))))


def studentized_range_quantile(
    alpha: float, k: int, df: float, rel_tol: float = 1e-6, max_iter: int = 200
) -> float:
    """Upper critical value q with P(Q_{k, df} <= q) = 1 - alpha.

    Inverted by bracketing and bisection on the CDF; relative error of the
    root is driven well below the 1e-4 contract.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if k < 2:
        raise ValueError("k must be >= 2")
    target = 1.0 - alpha
    lo, hi = 1e-8, 4.0
    it = 0
    while studentized_range_cdf(hi, k, df) < target:
        lo, hi = hi, hi * 2.0
        it += 1
        if it > 60:
            raise ConvergenceFailure(
                "could not bracket studentized-range quantile", hi
            )
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if studentized_range_cdf(mid, k, df) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= rel_tol * mid:
            return 0.5 * (lo + hi)
    achieved = (hi - lo) / max(lo, 1e-300)
    raise ConvergenceFailure(
        "studentized-range quantile did not converge", achieved
    )

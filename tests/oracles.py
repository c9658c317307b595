"""Independent reference routes for the test suite.

Everything here is computed from first principles: mpmath for the Erlang
distribution functions and the frozen constants, closed-form CDFs (erf,
atan, log) for the sampler checks. Nothing imports the package under test,
so agreement between the two routes is evidence, not tautology.
"""
from __future__ import annotations

import math

import mpmath as mp
import numpy as np

mp.mp.dps = 30

EULER_GAMMA = 0.5772156649015329

# ---------------------------------------------------------------------------
# Frozen constants (mpmath at 40 digits, rounded to float64).
#
# T on {e, e^2, e^3}: theta_hat = -ln(2/3)/3, spacing = e^3 - e^2,
#   T = ln(3/2)/3 * (e^3 - e^2).
T_STAT_E_E2_E3 = 1.7159933233335359

# Bryson T* on {1, 2, 3}: shift = 3/2, GA = (2.5 * 3.5 * 4.5)^(1/3),
#   T* = mean * max / ((n-1) * GA^2) = 6 / (2 * 39.375^(2/3)).
BRYSON_T_1_2_3 = 0.2592035091791759

# 0.95 quantile of gamma(2, 1): root of 1 - e^(-x)(1 + x) = 0.95.
GAMMA2_Q95 = 4.743864518390578
# ---------------------------------------------------------------------------


def erlang_cdf_ref(x: float, k: int) -> float:
    """Regularized lower incomplete gamma P(k, x) via mpmath."""
    if x <= 0:
        return 0.0
    return float(mp.gammainc(k, 0, mp.mpf(x), regularized=True))


def erlang_quantile_ref(p: float, k: int) -> float:
    """Inverse of erlang_cdf_ref by bisection at mpmath precision."""
    p_ = mp.mpf(p)
    lo, hi = mp.mpf(0), mp.mpf(max(4 * k, 10))
    while mp.gammainc(k, 0, hi, regularized=True) < p_:
        hi *= 2
    for _ in range(200):
        mid = (lo + hi) / 2
        if mp.gammainc(k, 0, mid, regularized=True) < p_:
            lo = mid
        else:
            hi = mid
        if hi - lo < mp.mpf("1e-25"):
            break
    return float((lo + hi) / 2)


def spacing_statistic_ref(values) -> float:
    """T = theta_hat * (X_(n) - X_(n-1)) from the sorted values in plain Python.

    theta_hat = -ln F_n(ln X_(n)) / ln X_(n), F_n counting values strictly
    above ln X_(n); theta_hat is 0 when every value lies above it. Needs
    X_(n) > 0, X_(n) != 1 and at least two values.
    """
    xs = sorted(float(v) for v in values)
    log_max = math.log(xs[-1])
    surv = sum(1 for v in xs if v > log_max) / len(xs)
    theta = 0.0 if surv == 1.0 else -math.log(surv) / log_max
    return theta * (xs[-1] - xs[-2])


def ks_distance(values: np.ndarray, cdf) -> float:
    """Kolmogorov-Smirnov distance between a sample and a CDF callable."""
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    f = np.asarray([cdf(v) for v in x])
    up = np.arange(1, n + 1) / n - f
    down = f - np.arange(0, n) / n
    return float(max(up.max(), down.max()))


def ks_critical(n: int, level: float = 0.999) -> float:
    """Asymptotic two-sided KS critical value c(level)/sqrt(n)."""
    coeff = {0.95: 1.358, 0.99: 1.628, 0.999: 1.949}[level]
    return coeff / math.sqrt(n)


# ---------------------------------------------------------------------------
# Closed-form CDFs, written directly from the defining formulas.
# Each takes a float and returns P(X <= x).
# ---------------------------------------------------------------------------


def cdf_exponential(rate: float):
    return lambda x: -math.expm1(-rate * x) if x > 0 else 0.0


def cdf_uniform01():
    return lambda x: min(1.0, max(0.0, x))


def cdf_weibull(gamma: float):
    return lambda x: -math.expm1(-(x ** gamma)) if x > 0 else 0.0


def cdf_pareto(gamma: float):
    # F-bar(x) = 1 / (1 + x^gamma) on x > 0
    return lambda x: x ** gamma / (1.0 + x ** gamma) if x > 0 else 0.0


def cdf_logistic():
    return lambda x: 1.0 / (1.0 + math.exp(-x))


def cdf_normal():
    return lambda x: 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def cdf_lognormal():
    return lambda x: 0.5 * (1.0 + math.erf(math.log(x) / math.sqrt(2.0))) if x > 0 else 0.0


def cdf_cauchy():
    return lambda x: 0.5 + math.atan(x) / math.pi


def cdf_gumbel_short():
    # upper tail exp(-e^(x - gamma_E)), the mean-zero minima form
    return lambda x: -math.expm1(-math.exp(x - EULER_GAMMA))


def cdf_t3():
    # Student t with 3 degrees of freedom has the closed form
    #   F(x) = 1/2 + (1/pi) * (atan(u) + u / (1 + u^2)), u = x / sqrt(3)
    def f(x):
        u = x / math.sqrt(3.0)
        return 0.5 + (math.atan(u) + u / (1.0 + u * u)) / math.pi

    return f


def cdf_gamma_ref(shape: float):
    """Gamma(shape, 1) CDF via mpmath; slow, use on small samples."""
    return lambda x: float(mp.gammainc(mp.mpf(shape), 0, mp.mpf(x), regularized=True)) if x > 0 else 0.0


def cdf_loggamma_ref(shape: float, scale: float):
    """CDF of exp(G), G ~ gamma(shape, scale); support x > 1."""
    def f(x):
        if x <= 1.0:
            return 0.0
        return float(mp.gammainc(mp.mpf(shape), 0, mp.mpf(math.log(x) / scale), regularized=True))

    return f

"""Independent reference routes for the test suite.

Everything here is computed from first principles: mpmath for the Erlang
distribution functions and the frozen constants, closed-form CDFs (erf,
atan, log) for the sampler checks, and each catalogue law's sampler as one
numpy expression per replicate. Nothing imports the package under test,
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


# Right-tail class of each catalogue family, as the README's table states it.
_TAIL_CLASSES = {
    "exp": "Medium", "logistic": "Medium", "gamma": "Medium",
    "uniform": "Short", "normal": "Short", "gumbel": "Short",
    "lognormal": "Long", "cauchy": "Long", "t": "Long", "pareto": "Long", "loggamma": "Long",
}


def tail_class(family: str, params) -> str:
    """The known tail class of a catalogue law: "Short", "Medium" or "Long". A
    Weibull law's depends on its exponent gamma: Short above 1, Medium at 1, Long below.
    """
    if family == "weibull":
        gamma = params[0]
        return "Short" if gamma > 1 else "Medium" if gamma == 1 else "Long"
    return _TAIL_CLASSES[family]


def erlang_cdf_ref(x: float, k: int) -> float:
    """Regularized lower incomplete gamma P(k, x) via mpmath."""
    if x <= 0:
        return 0.0
    return float(mp.gammainc(k, 0, mp.mpf(x), regularized=True))


def erlang_tails_ref(x: float, k: int) -> tuple[float, float]:
    """P(G <= x) and P(G > x) for G ~ gamma(k, 1), each its own incomplete gamma at
    50 digits: 1 minus the lower tail would cancel the upper one to nothing."""
    with mp.workdps(50):
        x = mp.mpf(x)
        lower = mp.gammainc(k, 0, x, regularized=True)
        return float(lower), float(mp.gammainc(k, x, mp.inf, regularized=True))


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


def erlang_tail_quantile_ref(alpha: float, k: int, upper: bool) -> float:
    """The x with P(G <= x) = alpha, or P(G > x) = alpha if upper, for G ~ gamma(k, 1):
    bisection at mpmath precision on that tail itself, to 1e-25 relative in x, so a
    tiny alpha keeps every digit that 1 - alpha would lose."""
    alpha = mp.mpf(alpha)

    def below_root(x):
        if upper:
            return mp.gammainc(k, x, mp.inf, regularized=True) > alpha
        return mp.gammainc(k, 0, x, regularized=True) < alpha

    lo, hi = mp.mpf(0), mp.mpf(max(4 * k, 10))
    while below_root(hi):
        hi *= 2
    for _ in range(400):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if below_root(mid) else (lo, mid)
        if hi - lo < hi * mp.mpf("1e-25"):
            break
    return float((lo + hi) / 2)


def spacing_statistic_ref(values) -> float:
    """T = theta_hat * (X_(n) - X_(n-1)) from the values sorted by np.sort.

    theta_hat = -ln F_n(ln X_(n)) / ln X_(n), F_n counting values strictly
    above ln X_(n); theta_hat is 0 when every value lies above it. Needs
    X_(n) > 0, X_(n) != 1 and at least two values.
    """
    xs = np.sort(np.asarray(values, dtype=float))
    top = float(xs[-1])
    log_max = math.log(top)
    surv = int(np.count_nonzero(xs > log_max)) / xs.size
    theta = 0.0 if surv == 1.0 else -math.log(surv) / log_max
    return theta * (top - float(xs[-2]))


# The outcome codes of spacing_partition_ref, by name; base.py numbers the package's.
OUTCOMES = ("SCORED", "SHORT", "EQUAL", "REFUSED", "NONFINITE")
_SCORED, _SHORT, _EQUAL, _REFUSED, _NONFINITE = range(len(OUTCOMES))
_MAX_EDGES = np.array([0.0, np.nextafter(1.0, 0.0), 1.0, np.finfo(float).max])
_RULE = {
    "error": np.array([_REFUSED, _REFUSED, _REFUSED, _SCORED, _NONFINITE]),
    "short": np.array([_REFUSED, _SHORT, _SHORT, _SCORED, _NONFINITE]),
    "raw": np.array([_REFUSED, _SCORED, _REFUSED, _SCORED, _NONFINITE]),
}


def spacing_partition_ref(blocks: np.ndarray, smallmax: str):
    """The spacing kernel with np.partition at kth = m - 2, as it stood before the top
    two came from argmax: each row's T, outcome (a name of OUTCOMES), top two
    [X_(n-1), X_(n)], theta_hat and F_n(ln X_(n)); the last two None when no row is
    SCORED. The partition puts X_(n-1) at m - 2 and X_(n) after it, NaNs last; which of
    a tied 0.0 and -0.0 lands on top is the sort kernel's choice.
    """
    m = blocks.shape[1]
    part = np.partition(blocks, m - 2, axis=1)
    second, mx = part[:, -2], part[:, -1]
    code = _RULE[smallmax][np.searchsorted(_MAX_EDGES, mx)]
    if np.count_nonzero(tied := second == mx):
        rows = np.flatnonzero(tied)
        code[rows[part[rows].min(axis=1) == mx[rows]]] = _EQUAL
    names = [OUTCOMES[c] for c in code.tolist()]
    tops = part[:, -2:].copy()
    if not any(scored := (code == _SCORED).tolist()):
        return np.zeros(len(part)), names, tops, None, None
    logs = np.array([math.log(x) if ok else math.nan for x, ok in zip(mx.tolist(), scored)])
    surv = np.maximum((blocks > logs[:, np.newaxis]).sum(axis=1, dtype=np.int32), 1) / m
    with np.errstate(over="ignore", invalid="ignore"):
        theta = 0.0 - np.array(list(map(math.log, surv.tolist()))) / logs
        return theta * (mx - second), names, tops, theta, surv


def bryson_statistic_ref(values) -> float:
    """Bryson's T* of one 1-D sample, one value at a time through numpy and libm.

    T* = mean * max / ((n-1) * GA^2), GA the geometric mean of the values
    shifted up by max/(n-1), taken as exp of the mean log. Needs n >= 2, a
    finite maximum and every shifted value > 0. T* is scale-invariant, so a
    sample whose maximum lies outside [2**-480, 2**495] is scored as values / max,
    where no product overflows or goes subnormal.
    """
    values = np.asarray(values, dtype=float)
    n = values.size
    mx, mn = float(values.max()), float(values.min())
    # max/(n-1) may underflow, so with a nonnegative minimum only a zero maximum is refused
    if n < 2 or not math.isfinite(mx) or (mn + mx / (n - 1) if mn < 0.0 else mx) <= 0.0:
        raise ValueError("T* is undefined for these values")
    if not 2.0**-480 <= mx <= 2.0**495:
        values, mx = values / mx, 1.0
    shift = mx / (n - 1)
    geo = math.exp(float(np.mean(np.log(values + shift))))
    return float(values.mean()) * mx / ((n - 1) * geo * geo)


def block_statistics_ref(values, k: int, smallmax: str):
    """Per-block T of k blocks in a plain loop, each block sorted by np.sort, with the
    small-maximum rule.

    The blocks cut the values in order, the n mod k leading ones one value
    larger. Block by block: all-equal values are refused first, then a
    maximum <= 1 is Short (None) under 'short' when above 0, evaluated
    under 'raw' when inside (0, 1), and refused otherwise; a maximum that is
    not finite is refused last. Returns the list of T, None, or the refusal
    as (error class name, message), the first block to decide winning. A
    zero maximum prints as 0, whichever sign the top zero of the sorted block has.
    """
    xs = np.asarray(values, dtype=float)
    base, extra = divmod(xs.size, k)
    stats, start = [], 0
    for j in range(k):
        block = np.sort(xs[start : start + base + (j < extra)])
        start += block.size
        top = float(block[-1])
        where = f"block {j + 1} of {k}: "
        if float(block[0]) == top:
            return "DegenerateSampleError", where + "all sample values are equal"
        if top <= 1.0:
            if smallmax == "short" and top > 0.0:
                return None
            if not (smallmax == "raw" and 0.0 < top < 1.0):
                return "MaxNotAboveOneError", (
                    f"{where}sample maximum {top + 0.0:g} is not above 1, so ln X_(n) <= 0; "
                    "rescale the data or apply an explicit shift"
                )
        if not math.isfinite(top):
            return "NonFiniteDrawError", f"draw overflowed to {top:g}; sample maximum must be finite"
        stats.append(spacing_statistic_ref(block))
    return stats


def left_to_right_sum(stats) -> float:
    """The block T's added in order, one rounding per addition. Not sum(): from
    Python 3.12 on it compensates, and its last digit can differ."""
    total = 0.0
    for stat in stats:
        total += stat
    return total


_ERRORS = ("DegenerateSampleError", "MaxNotAboveOneError", "NonFiniteDrawError")


def run_row_ref(draws, k: int, lower: float, upper: float, smallmax: str):
    """The engine's row loop as it stood before replicates were scored in
    chunks: one replicate at a time, through block_statistics_ref.

    A replicate called Short by the rule counts as Short; a refused one counts
    under its error's class name, the first of each name noted as (r, message);
    otherwise the sum of its block T's, taken left to right, is Short below
    `lower`, Long above `upper` and Medium on or between them. Every replicate
    is tallied, one whose maximum is not finite too. Returns (the count of each
    outcome, "Short", "Medium", "Long" or an error's class name; each error's
    first replicate and message).
    """
    counts = dict.fromkeys(("Short", "Medium", "Long", *_ERRORS), 0)
    firsts = {}
    for r, values in enumerate(draws):
        out = block_statistics_ref(values, k, smallmax)
        if isinstance(out, tuple):
            name, message = out
            firsts.setdefault(name, (r, message))
        elif out is None:
            name = "Short"
        else:
            total = left_to_right_sum(out)
            name = "Short" if total < lower else "Long" if total > upper else "Medium"
        counts[name] += 1
    return counts, firsts


# The catalogue's samplers as one expression per law, each drawing a 1-D replicate on its
# own: the package's raw fills plus chunk-wide in-place transforms must match them bit for bit.
_SAMPLERS = {
    "exp": lambda g, n, p: g.standard_exponential(n) / p[0],
    "logistic": lambda g, n, p: g.logistic(0.0, 1.0, n),
    "gamma": lambda g, n, p: g.standard_gamma(p[0], n),
    "uniform": lambda g, n, p: g.random(n),
    "normal": lambda g, n, p: g.standard_normal(n),
    "lognormal": lambda g, n, p: np.exp(g.standard_normal(n)),
    "gumbel": lambda g, n, p: EULER_GAMMA - g.gumbel(0.0, 1.0, n),
    "cauchy": lambda g, n, p: g.standard_cauchy(n),
    "t": lambda g, n, p: g.standard_t(p[0], n),
    "pareto": lambda g, n, p: (lambda u: (u / (1.0 - u)) ** (1.0 / p[0]))(g.random(n)),
    "weibull": lambda g, n, p: (-np.log(g.random(n))) ** (1.0 / p[0]),
    "loggamma": lambda g, n, p: np.exp(p[1] * g.standard_gamma(p[0], n)),
}


def sample_ref(family: str, params, n: int, seed: int, r: int) -> np.ndarray:
    """Replicate r of a catalogue law at size n: its sampler on a fresh Philox(key=[seed, r])."""
    stream = np.random.Generator(np.random.Philox(key=np.array([seed, r], dtype=np.uint64)))
    with np.errstate(over="ignore"):
        return _SAMPLERS[family](stream, n, tuple(params))


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

"""Numpy quadrature kernels: the hot sums of every rate.

``sfcar_grid_sums`` averages the symmetric first-order integrands over w1
alone, the w2 integral being closed-form; ``car_grid_sums`` sums a general
CAR field over the half of a 2-D midpoint grid that the point reflection
w -> -w does not map onto itself, in cache-sized row blocks, with the
precision symbol on each block from ``car_symbol``.  Every reduction runs
in a fixed order, so repeated calls are bit-identical.
"""

import math

import numpy as np

from .specfun import midpoint_grid

# Rows per block are chosen so a block never exceeds 32K doubles: each of its
# ~6 temporaries (256 KB) stays in a core's L2 cache, where 2^18 ran 3x slower.
_BLOCK_ELEMS = 1 << 15

#: The w1 rule runs x = log tan(w1/2) down from this value, where
#: pi - w1 ~ 2 exp(-x) leaves out less than 1e-16 of the average.
_X_TOP = 38.0

#: 1/(2k+3)!: sinh(x) - x = x^3 sum_k x^(2k)/(2k+3)!, truncated where the
#: next term is below 1e-19 relative for x < 1.
_SINH_SERIES = tuple(1.0 / math.factorial(2 * k + 3) for k in range(10))


def _tanh_rule(n: int, width: float):
    """sin^2(w1/2) at the n nodes of the tanh rule on (0, pi), and their
    weights, normalized to sum to 1.

    Writing tan(w1/2) = exp(x) gives sin^2(w1/2) = 1/(1 + exp(-2x)) and
    dw1 = sech(x) dx; the integrand is analytic in the strip
    |Im x| < pi/2, so the trapezoid rule in x converges exponentially.
    Nodes are evenly spaced in log w1 below w1 ~ 1, which resolves a peak
    of width ``width`` at w1 = 0 however deep it sits: x runs down to
    log(eps * width), below which the integrand, bounded by its value at
    w1 = 0, adds less than eps relative.  (A tanh-sinh map thins its
    nodes in log w1 toward 0 instead; a peak of width 1e-40 there needs
    thousands of them.)
    """
    x = np.linspace(_X_TOP, math.log(np.finfo(np.float64).eps * width), n)
    ex = np.exp(x)
    e = ex * ex  # underflows harmlessly to sin^2 = 0 deep in the tail
    weight = ex / (1.0 + e)  # sech(x) / 2
    return e / (1.0 + e), weight / np.sum(weight)


def _sinh_minus_x(x: np.ndarray) -> np.ndarray:
    # valid for |x| <= 1
    x2 = x * x
    poly = np.zeros_like(x)
    for coef in reversed(_SINH_SERIES):
        poly = poly * x2 + coef
    return x * x2 * poly


def sfcar_grid_sums(c: float, delta: float, n: int):
    """Averages over (-pi, pi]^2 of (0.5*log1p(s) - 0.5*s/(1+s), 0.5*log1p(s))
    with s = c/(1 - 2 zeta cos w1 - 2 zeta cos w2), delta = 1 - 4 zeta,
    by the w2 integral in closed form and an n-node rule in w1.

    Writing the denominator as A - B cos w2 with
    A - B = delta + (1 - delta) sin^2(w1/2) and A + B = 1 + (1 - delta) sin^2(w1/2),
    free of cancellation as zeta -> 1/4, the w2 averages are

        MI(w1)  = Delta/2,  Delta = L(A + c) - L(A) = log1p((c + r1 - r0)/(A + r0)),
        KLI(w1) = (Delta - c/r1)/2,

    where L(a) = log((a + sqrt(a^2 - B^2))/2) is the w2 average of
    log(a - B cos w2), r0 = sqrt((A - B)(A + B)) and
    r1 = sqrt((A + c - B)(A + c + B)).  For Delta < 1 the KLI is formed as
    ((A + c)/r1) sinh^2(Delta/2) - (sinh Delta - Delta)/2, which does not
    cancel at low SNR.  The peak at w1 = 0 has width sqrt(max(c, delta)),
    capped at 1, which sets the reach of the w1 rule.  Returns
    (kli_mean, mi_mean).
    """
    if n < 1:
        raise ValueError("node count must be >= 1")
    # the smallest positive double keeps the log finite where c = delta = 0
    width = math.sqrt(min(1.0, max(c, delta, math.ulp(0.0))))
    sin2, weight = _tanh_rule(n, width)
    lo = delta + (1.0 - delta) * sin2
    hi = 1.0 + (1.0 - delta) * sin2
    r0 = np.sqrt(lo * hi)
    r1 = np.sqrt(lo + c) * np.sqrt(hi + c)  # no overflow up to c ~ 1e307
    a = 0.5 * (lo + hi)
    # r1 - r0 = c (lo + hi + c)/(r1 + r0)
    gap = np.log1p((c + c * ((lo + hi + c) / (r1 + r0))) / (a + r0))
    small = np.minimum(gap, 1.0)
    kli = np.where(gap < 1.0,
                   (a + c) / r1 * np.sinh(0.5 * small) ** 2 - 0.5 * _sinh_minus_x(small),
                   0.5 * (gap - c / r1))
    return _average(weight, kli), 0.5 * _average(weight, gap)


def _average(weight: np.ndarray, values: np.ndarray) -> float:
    # summed as deviations from the value nearest w1 = pi, so that a constant
    # (zeta = 0) is averaged exactly
    return float(values[0] + weight @ (values - values[0]))


def car_symbol(theta: np.ndarray, oi: np.ndarray, oj: np.ndarray,
               w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """Precision symbol sum_t theta[t]*cos(oi[t]*w1 + oj[t]*w2) on the grid
    w1 x w2, shape (len(w1), len(w2)).

    cos(a + b) = cos a cos b - sin a sin b makes the sum two matrix
    products, (len(w1) x T) @ (T x len(w2)), so only (len(w1) + len(w2)) T
    sines and cosines are taken instead of len(w1) len(w2) T.
    """
    a = np.multiply.outer(w1, oi)
    b = np.multiply.outer(oj, w2)
    return (np.cos(a) * theta) @ np.cos(b) - (np.sin(a) * theta) @ np.sin(b)


def car_grid_sums(theta: np.ndarray, oi: np.ndarray, oj: np.ndarray, sigma2: float, n: int):
    """Midpoint-grid means for den(w) = sum_t theta[t]*cos(oi[t]*w1 + oj[t]*w2),
    s = 1/(sigma2*den).  Returns (kli_mean, mi_mean, min_den).

    The taps must be symmetric, as ``CarCoefficients`` stores them: then
    den(-w) = den(w), and -w_k = w_{n-1-k} on the midpoint grid, so rows
    k < n//2 are summed once with weight 2, odd n adds its middle row
    once, and min_den comes from the same half grid.
    """
    if n < 1:
        raise ValueError("grid side must be >= 1")
    theta = np.asarray(theta, dtype=np.float64)
    oi = np.asarray(oi)
    oj = np.asarray(oj)
    if oi.shape != theta.shape or oj.shape != theta.shape:
        raise ValueError("tap arrays must have equal length")
    w = midpoint_grid(n)
    mult = np.where(np.arange((n + 1) // 2) < n // 2, 2.0, 1.0)
    rows = max(1, min(mult.size, _BLOCK_ELEMS // n))
    kli_parts = []
    mi_parts = []
    min_den = np.inf
    for lo in range(0, mult.size, rows):
        r = mult[lo : lo + rows]
        den = car_symbol(theta, oi, oj, w[lo : lo + r.size], w)
        low = float(den.min())
        min_den = min(min_den, low)
        if low <= 0.0:
            # s = 0 leaves the cells where the symbol is not positive out of the sums
            den = np.where(den > 0.0, den, np.inf)
        s = 1.0 / (sigma2 * den)
        halflog = 0.5 * np.log1p(s)
        mi_parts.append(r @ np.sum(halflog, axis=1))
        kli_parts.append(r @ np.sum(halflog - 0.5 * s / (1.0 + s), axis=1))
    norm = float(n) * float(n)
    return float(np.sum(kli_parts)) / norm, float(np.sum(mi_parts)) / norm, min_den

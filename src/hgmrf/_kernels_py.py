"""Numpy quadrature kernels: the hot sums of every rate.

``sfcar_grid_sums`` averages the symmetric first-order integrands over w1
alone, the w2 integral being closed-form, for many rows of (SNR/scale,
1 - 4 zeta) at once: in blocks of rows of at most 6144 cells, each row
reduced by itself.  ``_weighted_grid_means`` is the one weighted 2-D mean
of a (KLI, MI) integrand pair, in cache-sized row blocks, under one or
more row and column weightings: of a general CAR symbol on the torus grid
w = 2 pi k/n (``car_grid_sums``), of the spacing gaps (``sfcar_gap_sums``)
and of the finite-lattice eigenvalues (``oracle.finite_lattice_rates``).
The quadrature kernels return, beside their n-node means, the means of the
n/2-node rule embedded in their nodes, from the same integrand values:
the error estimate the doubling quadrature compares, one call a round.
Every reduction runs in a fixed order, so repeated calls are bit-identical.
"""

import functools
import math

import numpy as np

# Rows per block are chosen so a block never exceeds 32K doubles: each of its
# ~6 temporaries (256 KB) stays in a core's L2 cache, where 2^18 ran 3x slower.
_BLOCK_ELEMS = 1 << 15

#: The w1 rule runs x = log tan(w1/2) down from this value, where
#: pi - w1 ~ 2 exp(-x) leaves out less than 1e-16 of the average.
_X_TOP = 38.0

_EPS = float(np.finfo(np.float64).eps)
_TINY = math.ulp(0.0)

#: Cells per row block of ``sfcar_grid_sums``: a temporary of a block
#: (48 KB) fits a core's L1 data cache.  On a 2-core Xeon VM, 12 rows took
#: 0.50 ms at n = 512 in one such block (0.63 ms in blocks of 2^12 cells),
#: and 2.0 ms at n = 2048 (2.5 ms in blocks of 2^13, 3.5 ms in one of 2^15,
#: 2.6 ms as 12 calls).
_SFCAR_BLOCK_ELEMS = 3 << 11

#: 1/(2 (2k+3)!): (sinh(x) - x)/2 = x^3 sum_k x^(2k)/(2 (2k+3)!), truncated
#: where the next term is below 1e-19 relative for x < 1.
_HALF_SINH_SERIES = tuple(0.5 / math.factorial(2 * k + 3) for k in range(10))


@functools.lru_cache(maxsize=16)  # a sweep uses a few node counts, 256 * 2^k
def _node_steps(n: int) -> np.ndarray:
    # 1, 2, ..., n in a row: the unit grid the tanh rule's nodes are scaled from
    k = np.arange(1, n + 1, dtype=np.float64).reshape(1, n)
    k.flags.writeable = False
    return k


def _tanh_rule(n: int, stop, step):
    """sin^2(w1/2) at the n nodes of the tanh rule on (0, pi), shape (m, n),
    and the weights of shape (m, 2, n) of the rule and of its embedded rule
    on the odd-indexed nodes (0 on the others), each normalized to sum to 1:
    a row per row of the columns ``stop`` and ``step`` (shape (m, 1), or
    floats for m = 1).  A rule has its nodes at x = _X_TOP + (j + 1) step,
    j = 0..n-1, the last one at ``stop``; for even n, the only counts the
    doubling quadrature compares, its odd-indexed nodes are the n/2-node
    rule of twice the step down to the same ``stop``, so one set of
    integrand values gives both estimates.

    Writing tan(w1/2) = exp(x) gives sin^2(w1/2) = 1/(1 + exp(-2x)) and
    dw1 = sech(x) dx; the integrand is analytic in the strip
    |Im x| < pi/2, so the trapezoid rule in x converges exponentially.
    Nodes are evenly spaced in log w1 below w1 ~ 1, which resolves a peak
    of width w at w1 = 0 however deep it sits: x runs down to
    stop = log(eps * w), below which the integrand, bounded by its value
    at w1 = 0, adds less than eps relative.  (A tanh-sinh map thins
    its nodes in log w1 toward 0 instead; a peak of width 1e-40 there needs
    thousands of them.)  The nodes are scaled from a cached unit grid, the
    last one set to ``stop`` exactly.
    """
    x = _node_steps(n) * step + _X_TOP
    x[:, -1:] = stop
    ex = np.exp(x)
    e = ex * ex  # underflows harmlessly to sin^2 = 0 deep in the tail
    one_plus_e = 1.0 + e
    weights = np.zeros((x.shape[0], 2, n))
    fine, half = weights[:, 0], weights[:, 1, 1::2]
    np.divide(ex, one_plus_e, out=fine)  # sech(x) / 2
    half[...] = fine[:, 1::2]
    half /= half.sum(axis=1, keepdims=True)
    fine /= fine.sum(axis=1, keepdims=True)
    return e / one_plus_e, weights


def _half_sinh_minus_x(x: np.ndarray) -> np.ndarray:
    # (sinh(x) - x)/2, valid for |x| <= 1: Horner's rule in x^2, in place
    x2 = x * x
    poly = x2 * _HALF_SINH_SERIES[-1]
    for coef in _HALF_SINH_SERIES[-2:0:-1]:
        poly += coef
        poly *= x2
    poly += _HALF_SINH_SERIES[0]
    x2 *= x
    x2 *= poly
    return x2


def sfcar_grid_sums(c, delta, n: int):
    """Averages over (-pi, pi]^2 of (0.5*log1p(s) - 0.5*s/(1+s), 0.5*log1p(s))
    with s = c/(1 - 2 zeta cos w1 - 2 zeta cos w2), delta = 1 - 4 zeta,
    by the w2 integral in closed form and an n-node rule in w1, for each
    row of the equal-length 1-D arrays (or scalars) c and delta, together
    with the same averages by the rule's embedded n/2-node rule: every other
    node of the same integrand values, the error estimate of the n-node
    averages.

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
    capped at 1, which sets the reach of the w1 rule.

    Rows go through in blocks of at most _SFCAR_BLOCK_ELEMS cells, and each
    row is reduced by itself, so a row's results do not depend on the other
    rows or on their place among them.  Returns (kli_means, mi_means,
    kli_half_means, mi_half_means), arrays with one entry per row, or four
    floats if c and delta are both scalars.  The half means are those of
    the n/2-node rule for even n only.
    """
    if n < 1:
        raise ValueError("node count must be >= 1")
    c, delta = np.asarray(c, dtype=np.float64), np.asarray(delta, dtype=np.float64)
    if c.shape != delta.shape:
        raise ValueError(f"c and delta differ in shape: {c.shape} and {delta.shape}")
    rows = []
    for ci, di in zip(c.ravel().tolist(), delta.ravel().tolist()):
        # the smallest positive double keeps the log finite where c = delta = 0
        stop = math.log(_EPS * math.sqrt(min(1.0, max(ci, di, _TINY))))
        rows.append((ci, di, stop, (stop - _X_TOP) / n))
    means = np.empty((4, len(rows)))
    per_block = max(1, _SFCAR_BLOCK_ELEMS // n)
    for lo in range(0, len(rows), per_block):
        means[:, lo:lo + per_block] = _sfcar_rows(rows[lo:lo + per_block], n)
    return tuple(means[:, 0].tolist()) if c.ndim == 0 else tuple(means)


def _sfcar_rows(rows, n: int):
    # (kli, mi, kli_half, mi_half) means of the rows (c, delta, stop, step)
    # of one block; each parameter is a column, or a float for one row
    c, delta, stop, step = (np.array(col)[:, None] if len(rows) > 1 else col[0]
                            for col in zip(*rows))
    sin2, weights = _tanh_rule(n, stop, step)
    t = (1.0 - delta) * sin2
    lo = t + delta
    hi = t + 1.0
    r0 = np.sqrt(lo * hi)
    r1 = np.sqrt(lo + c) * np.sqrt(hi + c)  # no overflow up to c ~ 1e307
    lo += hi  # now 2A
    a = 0.5 * lo
    # r1 - r0 = c (2A + c)/(r1 + r0)
    gap = np.log1p((c + c * ((lo + c) / (r1 + r0))) / (a + r0))
    small = np.minimum(gap, 1.0)
    kli = np.where(gap < 1.0,
                   (a + c) / r1 * np.sinh(0.5 * small) ** 2 - _half_sinh_minus_x(small),
                   0.5 * (gap - c / r1))
    kli, kli_half = _average(weights, kli)
    mi, mi_half = _average(weights, gap)
    return kli, 0.5 * mi, kli_half, 0.5 * mi_half


def _average(weights: np.ndarray, values: np.ndarray):
    # row means by the rule and by its embedded rule, each summed as
    # deviations from the value nearest w1 = pi, so that a constant
    # (zeta = 0) is averaged exactly; the stacked matmul takes one product
    # per row, so no row's sums depend on the others
    first = values[:, :1]
    means = first + np.matmul(weights, (values - first)[:, :, None])[:, :, 0]
    return means[:, 0], means[:, 1]


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


def _integrands(s):
    # (KLI, MI) = (0.5 log1p(s) - 0.5 s/(1+s), 0.5 log1p(s)), one log1p per value
    mi = 0.5 * np.log1p(s)
    return mi - 0.5 * (s / (1.0 + s)), mi


def torus_grid(n: int) -> np.ndarray:
    """Torus frequencies 2 pi k/n, k = 0..n-1; even k give the n/2 grid's bits."""
    return 2.0 * np.pi * np.arange(n) / n


def _mirror_weights(n: int) -> np.ndarray:
    """How many torus frequencies k = 0..n-1 share the cosine of each
    k = 0..n//2: k and n - k do, except k = 0 and, for even n, k = n/2."""
    k = np.arange(n // 2 + 1)
    return np.where((k == 0) | (2 * k == n), 1.0, 2.0)


def _weighted_grid_means(row_ws, col_ws, block_integrands):
    """For each rule (r, c) of the row weights ``row_ws`` and column weights
    ``col_ws``, the r[k] c[l]-weighted mean of each integrand that
    ``block_integrands(rows)`` gives on the rows ``rows`` (a slice) by every
    column, all in one flat list, in blocks of at most _BLOCK_ELEMS cells
    (or one row) per integrand; each mean is reduced by its own dot products."""
    n_rows, n_cols = row_ws[0].size, col_ws[0].size
    step = max(1, _BLOCK_ELEMS // n_cols)
    sums = 0.0
    for lo in range(0, n_rows, step):
        rows = slice(lo, min(lo + step, n_rows))
        blocks = block_integrands(rows)
        sums = sums + np.array([[float(r[rows] @ (block @ c)) for block in blocks]
                                for r, c in zip(row_ws, col_ws)])
    return (sums / [[rw.sum() * cw.sum()] for rw, cw in zip(row_ws, col_ws)]).ravel().tolist()


def _mirrored_rules(n: int):
    # weights folding the n grid, and its embedded n/2 grid, onto k = 0..n//2
    half = np.zeros(n // 2 + 1)
    half[::2] = _mirror_weights(n // 2)
    return _mirror_weights(n), half


def car_grid_sums(theta: np.ndarray, oi: np.ndarray, oj: np.ndarray, sigma2: float, n: int):
    """Torus-grid means of (kli, mi)(s) for den(w) = sum_t theta[t]*cos(oi[t]*w1 + oj[t]*w2),
    s = 1/(sigma2*den), w on the n x n grid of ``torus_grid``, together with
    the means on its embedded n/2 grid: the even-indexed rows and columns
    of the same integrand values, the error estimate of the n-grid means.
    Returns (kli_mean, mi_mean, kli_half_mean, mi_half_mean, min_den); the
    half means are those of the n/2 grid for even n only.

    The periodic trapezoid rule on the n grid integrates exactly the modes
    the n/2 grid aliases, (n/2) j for odd j, so the pair measures a real
    error (Trefethen & Weideman, SIAM Rev. 56, 2014).  The taps must be
    symmetric, as ``CarCoefficients`` stores them: then den(-w) = den(w),
    and row n - k holds the values of row k, so rows k = 0..n//2 are summed
    with the weights of ``_mirror_weights``, and min_den comes from the same
    rows.  Where the symbol is not positive, s = 0 leaves the cell out.
    """
    if n < 2:
        raise ValueError("grid side must be >= 2")
    theta = np.asarray(theta, dtype=np.float64)
    oi, oj = np.asarray(oi), np.asarray(oj)
    if oi.shape != theta.shape or oj.shape != theta.shape:
        raise ValueError("tap arrays must have equal length")
    w = torus_grid(n)
    lows = []

    def integrands(rows):
        den = car_symbol(theta, oi, oj, w[rows], w)
        lows.append(float(den.min()))
        if lows[-1] <= 0.0:
            den = np.where(den > 0.0, den, np.inf)
        return _integrands(1.0 / (sigma2 * den))

    half = np.zeros(n)
    half[:n - n % 2:2] = 1.0
    return (*_weighted_grid_means(_mirrored_rules(n), (np.ones(n), half), integrands), min(lows))


def sfcar_gap_sums(zeta, rho, snr, n: int):
    """Means of phi(SNR) - phi(s), phi the (kli, mi) integrands and
    s = SNR (1 - 4 zeta rho)/(1 - 2 zeta c), c = cos w1 + cos w2, on the
    n x n ``torus_grid`` and its n/2 grid (even n), for each row of the 1-D
    arrays zeta, rho and snr: arrays (kli, mi, kli_half, mi_half).  As the
    mean of s is the SNR, they are the means of the Bregman remainder
    (sinh t - t)/2 + k sinh^2(t/2), 1 + s = (1 + SNR) e^t, k = (SNR - 1)/(SNR + 1)
    for the KLI and 1 for the MI: no cancellation, for |t| <= 1 (alpha*d >= 3)."""
    zeta, rho, snr = (np.asarray(v, dtype=np.float64)[:, None, None] for v in (zeta, rho, snr))
    c = np.cos(torus_grid(n)[:n // 2 + 1])
    gain, kli_coef = snr / (1.0 + snr), (snr - 1.0) / (snr + 1.0)

    def integrands(rows):
        c_sum = c[rows, None] + c
        t = np.log1p(gain * (2.0 * zeta) * (c_sum - 2.0 * rho) / (1.0 - (2.0 * zeta) * c_sum))
        odd, even = _half_sinh_minus_x(t), np.sinh(0.5 * t) ** 2
        return np.concatenate([odd + kli_coef * even, odd + even])

    rules = _mirrored_rules(n)
    return tuple(np.reshape(_weighted_grid_means(rules, rules, integrands), (4, -1)))

"""Physical correlation model for lattice-sampled diffusion fields.

The continuous-space counterpart of the symmetric first-order field (the
stochastic Laplace equation with diffusion rate alpha) has the Whittle
correlation function; sampling it at spacing d gives the edge correlation

    rho(d) = alpha*d * K_1(alpha*d),

which decreases from 1 (flat at d = 0) to 0.  A second map g links rho to
the edge dependence factor zeta through the elliptic integral, with
(2/pi) K(4 zeta) = 1/AGM(1, k') and k' = sqrt(1 - 16 zeta^2):

    rho = ((2/pi) K(4 zeta) - 1) / (4 (2/pi) zeta K(4 zeta)) = (1 - AGM(1, k')) / (4 zeta),

taking zeta in [0, 1/4] to rho in [0, 1].  g is inverted by regula falsi
(Illinois variant, with a bisection fallback): in zeta up to rho = 1/2,
and above it in log(1 - 4 zeta), which stays exact where zeta itself
rounds next to or onto 1/4 -- see ``zeta_from_rho``.
"""

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .specfun import agm, x_k1_pair


@dataclass(frozen=True)
class PhysicalField:
    """Diffusion rate alpha (1/length) and sensor spacing (length), whose
    product is a finite normal double."""

    alpha: float
    spacing: float

    def __post_init__(self):
        if not 0.0 < self.alpha < math.inf:
            raise ValueError("alpha must be positive and finite")
        if not 0.0 < self.spacing < math.inf:
            raise ValueError("spacing must be positive and finite")
        # a subnormal product would overflow 1/x in the K_1 series
        product = self.alpha * self.spacing
        if not sys.float_info.min <= product < math.inf:
            raise ValueError("alpha*spacing must be finite and at least the smallest normal "
                             f"double {sys.float_info.min!r}, got {product!r}")


#: Largest double below 1/4; upper end of the bracket in zeta.
ZETA_MAX = float(np.nextafter(0.25, 0.0))


def rho_from_zeta(zeta: float) -> float:
    """Edge correlation g^{-1}(zeta); increasing, 0 -> 0 and 1/4 -> 1.

    rho = (1 - AGM(1, k'))/(4 zeta) is 0/0 at zeta = 0 and cancels as
    k' -> 1; with 1 - k' = 16 zeta^2/(1 + k') it is
    4 zeta/(1 + k') * (1 - AGM)/(1 - k'), the ratio summed from the AGM's
    own steps (``specfun.agm``), within 5e-16 of a 50-digit evaluation.
    """
    zeta = float(zeta)
    if not 0.0 <= zeta <= 0.25:
        raise ValueError("zeta must lie in [0, 1/4]")
    k = 4.0 * zeta
    k_prime = math.sqrt((1.0 - k) * (1.0 + k))
    return k / (1.0 + k_prime) * agm(k_prime, k * k / (1.0 + k_prime))[1]


def zeta_from_rho(rho: float) -> float:
    """Inverse of rho_from_zeta on [0, 1), by regula falsi (Illinois
    variant) on the strictly increasing map, to adjacent floats with a
    residual below 1e-12: 15 to 30 evaluations of the map for alpha*d
    from 0.05 to 40.

    For rho <= 1/2 the solve is in zeta.  Above, zeta nears 1/4 (within
    one ulp beyond rho ~ 0.919), so it is in t = log(delta), with
    delta = 1 - 4 zeta, against 1 - rho = (AGM(1, k') - delta)/(1 - delta)
    and the complementary modulus k' = sqrt(delta (2 - delta)); neither
    side cancels.  zeta is then (1 - delta)/4, or 1/4 where delta would
    fall below the smallest normal double.
    """
    rho = float(rho)
    if not 0.0 <= rho < 1.0:
        raise ValueError("rho must lie in [0, 1)")
    return _zeta_delta(rho, 1.0 - rho)[0]


def _one_minus_rho_at(t: float) -> float:
    # 1 - rho at 1 - 4 zeta = e^t, increasing in t; AGM(1, k') >= k' >
    # delta, and delta < 0.017 wherever rho > 1/2: no cancellation
    delta = math.exp(t)
    k_prime = math.sqrt(delta * (2.0 - delta))
    return (agm(k_prime, (1.0 - delta) ** 2 / (1.0 + k_prime))[0] - delta) / (1.0 - delta)


#: Ends of the solve in t, with 1 - rho at each: the smallest normal delta
#: (a subnormal delta = e^t cannot resolve 1 - rho to 1e-12), and t = -1,
#: where 1 - rho ~ 0.83 is above every target (t = 0 divides by zero).
_T_MIN = math.log(np.finfo(float).tiny)
_ONE_MINUS_RHO_MIN = _one_minus_rho_at(_T_MIN)
_T_MAX = -1.0
_ONE_MINUS_RHO_MAX = _one_minus_rho_at(_T_MAX)

#: rho at the high end of the solve in zeta; at its low end, zeta = 0, rho is 0.
_RHO_AT_ZETA_MAX = rho_from_zeta(ZETA_MAX)


def _solve(f, target: float, lo: float, hi: float, f_lo: float, f_hi: float) -> float:
    # where the increasing f, with f(lo) = f_lo and f(hi) = f_hi, meets target
    # in [lo, hi], to adjacent floats or an exact hit: regula falsi, Illinois
    # variant (Dowell & Jarratt, BIT 11, 1971), with a bisection after each
    # false-position step that does not halve the bracket, so at most about
    # twice bisection's steps.  A point rounded onto an end (within an ulp of
    # the root) moves one float inward.
    r_lo, r_hi = f_lo - target, f_hi - target
    w_lo = w_hi = 1.0
    last = 0  # the end moved last: -1 lo, +1 hi
    falsi = True
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        width = hi - lo
        if falsi:
            x = lo - w_lo * r_lo * width / (w_hi * r_hi - w_lo * r_lo)
            mid = min(max(x, math.nextafter(lo, hi)), math.nextafter(hi, lo))
        r = f(mid) - target
        if r == 0.0:
            return mid
        if r < 0.0:
            w_hi *= 0.5 if last < 0 else 1.0
            lo, r_lo, w_lo, last = mid, r, 1.0, -1
        else:
            w_lo *= 0.5 if last > 0 else 1.0
            hi, r_hi, w_hi, last = mid, r, 1.0, 1
        falsi = not falsi or hi - lo <= 0.5 * width
    r_lo, r_hi = abs(r_lo), abs(r_hi)
    if min(r_lo, r_hi) > 1e-12:
        raise ArithmeticError(f"root solve residual above 1e-12 for target {target!r}")
    return lo if r_lo <= r_hi else hi


def _zeta_delta(rho: float, one_minus_rho: float) -> tuple[float, float]:
    # (zeta, 1 - 4 zeta); above rho = 1/2, where rho may have rounded to 1,
    # only one_minus_rho is read
    if rho == 0.0:
        return 0.0, 1.0
    if rho <= 0.5:  # 1 - 4 zeta >= 0.017: exact to rounding from zeta
        zeta = _solve(rho_from_zeta, rho, 0.0, ZETA_MAX, 0.0, _RHO_AT_ZETA_MAX)
        return zeta, 1.0 - 4.0 * zeta
    if one_minus_rho <= _ONE_MINUS_RHO_MIN:  # 1 - 4 zeta below normal range
        return 0.25, 0.0
    delta = math.exp(_solve(_one_minus_rho_at, one_minus_rho, _T_MIN, _T_MAX,
                            _ONE_MINUS_RHO_MIN, _ONE_MINUS_RHO_MAX))
    return 0.25 * (1.0 - delta), delta


def edge_correlation(field: PhysicalField) -> float:
    """rho = alpha*d*K_1(alpha*d), in [0, 1].

    Depends on alpha and spacing only through their product, and decreases
    monotonically with spacing.  Below alpha*d ~ 2e-10 it rounds to 1; use
    ``edge_decorrelation`` for 1 - rho there.
    """
    return x_k1_pair(field.alpha * field.spacing)[0]


def edge_decorrelation(field: PhysicalField) -> float:
    """1 - rho, accurate to rounding down to alpha*d ~ 1e-154, where it
    leaves the normal double range (it underflows to 0 below ~1e-162).

    Subtracting ``edge_correlation`` from 1 loses ~eps/(1 - rho) relative
    (all of it once rho rounds to 1); this takes 1 - x K_1(x) from the
    ascending series with the leading 1 cancelled analytically
    (``specfun.one_minus_x_k1``).  Behaves like (x^2/2) ln(1/x), x = alpha*d.
    """
    return x_k1_pair(field.alpha * field.spacing)[1]


def spectral_parameters(field: PhysicalField) -> tuple[float, float, float]:
    """(zeta, 1 - 4 zeta, (2/pi) K(4 zeta)) of the sampled field: its edge
    dependence factor and the two numbers its rates depend on besides the
    SNR.

    1 - 4 zeta is solved for as in ``zeta_from_rho``, with 1 - rho from
    ``edge_decorrelation``: it keeps full relative accuracy where zeta
    rounds next to or onto 1/4 (within 3e-14 of a 60-digit solve from
    alpha*d = 0.29 up).  The forward map gives g = (2/pi) K(4 zeta) =
    1/((1 - 4 zeta) + 4 zeta (1 - rho)) exactly: a sum of two nonnegative
    terms that needs no rounded rho (1 - rho ~ (alpha d)^2 ln(1/(alpha d))
    at high density), and 1/(1 - rho) where 1 - 4 zeta is taken as 0.
    """
    return _spectral_parameters(field)[1:]


def correlation_parameters(field: PhysicalField) -> tuple[float, float, float, float]:
    """(rho, zeta, 1 - 4 zeta, (2/pi) K(4 zeta)): ``edge_correlation`` and
    ``spectral_parameters`` of the field from one evaluation of K_1."""
    return _spectral_parameters(field)


@functools.lru_cache(maxsize=1)  # one solve for a query's rates, its rho and its zeta
def _spectral_parameters(field: PhysicalField) -> tuple[float, float, float, float]:
    rho, one_minus_rho = x_k1_pair(field.alpha * field.spacing)
    zeta, delta = _zeta_delta(rho, one_minus_rho)
    den = delta + 4.0 * zeta * one_minus_rho
    return rho, zeta, delta, (1.0 / den if den > 0.0 else math.inf)


def zeta_from_spacing(field: PhysicalField) -> float:
    """Edge dependence factor of the sampled field: g(rho(alpha*d)).

    Strictly decreasing in spacing; values indistinguishable from 1/4 in
    64-bit floats are returned as 1/4 (rate operations treat that endpoint
    as the exact zero-information limit).  Defined for every valid field,
    also where rho rounds to 1.
    """
    return spectral_parameters(field)[0]

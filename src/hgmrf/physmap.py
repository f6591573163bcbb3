"""Physical correlation model for lattice-sampled diffusion fields.

The continuous-space counterpart of the symmetric first-order field (the
stochastic Laplace equation with diffusion rate alpha) has the Whittle
correlation function; sampling it at spacing d gives the edge correlation

    rho(d) = alpha*d * K_1(alpha*d),

which decreases from 1 (flat at d = 0) to 0.  A second map g links rho to
the edge dependence factor zeta through the elliptic integral, with
(2/pi) K(4 zeta) = 1/AGM(1, k') and k' = sqrt(1 - 16 zeta^2):

    rho = ((2/pi) K(4 zeta) - 1) / (4 (2/pi) zeta K(4 zeta)) = (1 - AGM(1, k')) / (4 zeta),

taking zeta in [0, 1/4] to rho in [0, 1].  g is inverted by bisection:
in zeta up to rho = 1/2, and above it in log(1 - 4 zeta), which stays
exact where zeta itself rounds next to or onto 1/4 -- see
``zeta_from_rho``.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .specfun import agm, bessel_k1, one_minus_x_k1


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


#: Largest double below 1/4; upper end of the bisection bracket.
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
    """Inverse of rho_from_zeta on [0, 1), by bisection of the strictly
    increasing map to adjacent floats with a residual below 1e-12.

    For rho <= 1/2 the bisection is in zeta.  Above, zeta nears 1/4 (within
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


#: Low end of the bisection in t, at the smallest normal delta (a subnormal
#: delta = e^t cannot resolve 1 - rho to 1e-12), and 1 - rho there.
_T_MIN = math.log(np.finfo(float).tiny)
_ONE_MINUS_RHO_MIN = _one_minus_rho_at(_T_MIN)


def _bisect(f, target: float, lo: float, hi: float) -> float:
    # where the increasing f meets target in [lo, hi], to adjacent floats
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if f(mid) < target:
            lo = mid
        else:
            hi = mid
    r_lo, r_hi = abs(f(lo) - target), abs(f(hi) - target)
    if min(r_lo, r_hi) > 1e-12:
        raise ArithmeticError(f"bisection residual above 1e-12 for target {target!r}")
    return lo if r_lo <= r_hi else hi


def _zeta_delta(rho: float, one_minus_rho: float) -> tuple[float, float]:
    # (zeta, 1 - 4 zeta); above rho = 1/2, where rho may have rounded to 1,
    # only one_minus_rho is read
    if rho == 0.0:
        return 0.0, 1.0
    if rho <= 0.5:  # 1 - 4 zeta >= 0.017: exact to rounding from zeta
        zeta = _bisect(rho_from_zeta, rho, 0.0, ZETA_MAX)
        return zeta, 1.0 - 4.0 * zeta
    if one_minus_rho <= _ONE_MINUS_RHO_MIN:  # 1 - 4 zeta below normal range
        return 0.25, 0.0
    delta = math.exp(_bisect(_one_minus_rho_at, one_minus_rho, _T_MIN, 0.0))
    return 0.25 * (1.0 - delta), delta


def edge_correlation(field: PhysicalField) -> float:
    """rho = alpha*d*K_1(alpha*d), in [0, 1].

    Depends on alpha and spacing only through their product, and decreases
    monotonically with spacing.  Below alpha*d ~ 2e-10 it rounds to 1; use
    ``edge_decorrelation`` for 1 - rho there.
    """
    x = field.alpha * field.spacing
    return x * bessel_k1(x)


def edge_decorrelation(field: PhysicalField) -> float:
    """1 - rho, accurate to rounding down to alpha*d ~ 1e-154, where it
    leaves the normal double range (it underflows to 0 below ~1e-162).

    Subtracting ``edge_correlation`` from 1 loses ~eps/(1 - rho) relative
    (all of it once rho rounds to 1); this takes 1 - x K_1(x) from the
    ascending series with the leading 1 cancelled analytically
    (``specfun.one_minus_x_k1``).  Behaves like (x^2/2) ln(1/x), x = alpha*d.
    """
    return one_minus_x_k1(field.alpha * field.spacing)


def spectral_parameters(field: PhysicalField) -> tuple[float, float, float]:
    """(zeta, 1 - 4 zeta, (2/pi) K(4 zeta)) of the sampled field: its edge
    dependence factor and the two numbers its rates depend on besides the
    SNR.

    1 - 4 zeta is bisected as in ``zeta_from_rho``, with 1 - rho from
    ``edge_decorrelation``: it keeps full relative accuracy where zeta
    rounds next to or onto 1/4 (within 3e-14 of a 60-digit solve from
    alpha*d = 0.29 up).  The forward map gives g = (2/pi) K(4 zeta) =
    1/((1 - 4 zeta) + 4 zeta (1 - rho)) exactly: a sum of two nonnegative
    terms that needs no rounded rho (1 - rho ~ (alpha d)^2 ln(1/(alpha d))
    at high density), and 1/(1 - rho) where 1 - 4 zeta is taken as 0.
    """
    one_minus_rho = edge_decorrelation(field)
    zeta, delta = _zeta_delta(edge_correlation(field), one_minus_rho)
    den = delta + 4.0 * zeta * one_minus_rho
    return zeta, delta, (1.0 / den if den > 0.0 else math.inf)


def zeta_from_spacing(field: PhysicalField) -> float:
    """Edge dependence factor of the sampled field: g(rho(alpha*d)).

    Strictly decreasing in spacing; values indistinguishable from 1/4 in
    64-bit floats are returned as 1/4 (rate operations treat that endpoint
    as the exact zero-information limit).  Defined for every valid field,
    also where rho rounds to 1.
    """
    return spectral_parameters(field)[0]

"""Physical correlation model for lattice-sampled diffusion fields.

The continuous-space counterpart of the symmetric first-order field (the
stochastic Laplace equation with diffusion rate alpha) has the Whittle
correlation function; sampling it at spacing d gives the edge correlation

    rho(d) = alpha*d * K_1(alpha*d),

which decreases from 1 (flat at d = 0) to 0.  A second map g links rho to
the edge dependence factor zeta through the elliptic integral:

    rho = ((2/pi) K(4 zeta) - 1) / (4 (2/pi) zeta K(4 zeta)),

taking zeta in [0, 1/4] to rho in [0, 1].  g is inverted by bisection;
near rho = 1 the inverse leaves the range representable in 64-bit floats
(zeta sits within one ulp of 1/4) and an asymptotic branch takes over --
see ``zeta_from_rho``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .specfun import bessel_k1, elliptic_k, one_minus_x_k1


@dataclass(frozen=True)
class PhysicalField:
    """Diffusion rate alpha (1/length) and sensor spacing (length)."""

    alpha: float
    spacing: float

    def __post_init__(self):
        if not 0.0 < self.alpha < math.inf:
            raise ValueError("alpha must be positive and finite")
        if not 0.0 < self.spacing < math.inf:
            raise ValueError("spacing must be positive and finite")
        product = self.alpha * self.spacing
        if not 0.0 < product < math.inf:
            raise ValueError(f"alpha*spacing must be positive and finite, got {product!r}")


#: Largest double below 1/4; upper end of the bisection bracket.
ZETA_MAX = float(np.nextafter(0.25, 0.0))


def rho_from_zeta(zeta: float) -> float:
    """Edge correlation g^{-1}(zeta); increasing, 0 -> 0 and 1/4 -> 1.

    The raw expression is 0/0 at zeta = 0 and loses ~eps/(4 zeta^2) of
    relative precision to cancellation in (2/pi)K(4 zeta) - 1; a series
    branch rho = zeta (1 + 5 zeta^2 + 44 zeta^4 + 469 zeta^6 + O(zeta^8))
    covers zeta < 0.01, where both forms agree to ~3e-12.
    """
    zeta = float(zeta)
    if not 0.0 <= zeta <= 0.25:
        raise ValueError("zeta must lie in [0, 1/4]")
    if zeta < 1e-2:
        z2 = zeta * zeta
        return zeta * (1.0 + z2 * (5.0 + z2 * (44.0 + z2 * 469.0)))
    if zeta == 0.25:
        return 1.0
    g = (2.0 / math.pi) * elliptic_k(4.0 * zeta)
    return (g - 1.0) / (4.0 * zeta * g)


#: Largest edge correlation reachable by a representable zeta < 1/4.
#: Beyond this the inverse map saturates (see zeta_from_rho).
RHO_SATURATION = rho_from_zeta(ZETA_MAX)


def zeta_from_rho(rho: float) -> float:
    """Inverse of rho_from_zeta on [0, 1).

    For rho <= RHO_SATURATION (about 0.919) the unique root is found by
    bisection with residual below 1e-12.  Larger rho corresponds to
    1/4 - zeta ~ 2 exp(-pi/(1-rho)), smaller than one ulp of 1/4, so the
    asymptotic value is returned instead; it rounds to 1/4 itself once
    rho exceeds roughly 0.92.  The bisection relies on the forward map
    being strictly increasing, which the tests check on a 1000-point grid.
    """
    rho = float(rho)
    if not 0.0 <= rho < 1.0:
        raise ValueError("rho must lie in [0, 1)")
    return _zeta_delta(rho, 1.0 - rho)[0]


def _zeta_delta(rho: float, one_minus_rho: float) -> tuple[float, float]:
    # (zeta, 1 - 4 zeta).  rho may have rounded to 1 where one_minus_rho is
    # still positive; only the saturated branch, which rho ~ 1 always takes,
    # reads one_minus_rho.  There 1/4 - zeta = 2 exp(-pi/(1 - rho)) to
    # ~1e-12 relative, below one ulp of 1/4, so 1 - 4 zeta comes from that
    # form and not from the rounded zeta.  exp(-pi/(1 - rho)) underflows to
    # 0 below alpha*d ~ 0.05, and 1 - rho itself below alpha*d ~ 1e-162.
    if rho == 0.0:
        return 0.0, 1.0
    if rho > RHO_SATURATION:
        gap = 2.0 * math.exp(-math.pi / one_minus_rho) if one_minus_rho > 0.0 else 0.0
        return 0.25 - gap, 4.0 * gap
    lo, hi = 0.0, ZETA_MAX
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # bracket collapsed to adjacent floats
            break
        if rho_from_zeta(mid) < rho:
            lo = mid
        else:
            hi = mid
    r_lo, r_hi = rho_from_zeta(lo), rho_from_zeta(hi)
    zeta, residual = (lo, abs(r_lo - rho)) if abs(r_lo - rho) <= abs(r_hi - rho) else (hi, abs(r_hi - rho))
    # The map steepens toward zeta = 1/4; once the per-ulp step of the
    # forward map exceeds the tolerance, the nearest float is the best
    # attainable answer.
    if residual > 1e-12 and residual > (r_hi - r_lo):
        raise ArithmeticError(f"bisection residual above 1e-12 for rho={rho!r}")
    return zeta, 1.0 - 4.0 * zeta


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

    The forward map rho = (g - 1)/(4 zeta g), g = (2/pi) K(4 zeta), gives
    g = 1/((1 - 4 zeta) + 4 zeta (1 - rho)) exactly.  That sum of two
    nonnegative terms, with 1 - rho from ``edge_decorrelation``, keeps
    full accuracy where zeta is rounded next to or onto 1/4 (there
    1 - 4 zeta is quantized to multiples of 1.1e-16 and K(4 zeta) is off
    by up to 1e-2) and at any density (where 1/(1 - rho) with a rounded
    rho would be off by ~eps/(1 - rho)).  Past the saturation handoff
    (alpha*d below ~0.2945) 1 - 4 zeta = 8 exp(-pi/(1 - rho)) comes from
    the asymptotic form, so it is right also where zeta has rounded to
    1/4.  Below the handoff 1 - 4 zeta keeps the rounding of the bisected
    zeta, up to ~5e-17 absolute, which moves the rates by up to about that
    over max(SNR/g, 1 - 4 zeta): 7e-7 in the KLI at alpha*d = 0.296 and
    SNR 1e-8.
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

"""Asymptotic per-node information rates for hidden 2-D CAR fields.

For a stationary CAR signal observed in i.i.d. Gaussian noise, the
per-node detection exponent (KLI rate) and mutual-information rate are
spectral integrals over (-pi, pi]^2 of

    kli integrand: 0.5 log(1+s) + 0.5/(1+s) - 0.5
    mi  integrand: 0.5 log(1+s)

where s(w) = 4 pi^2 f(w) / sigma^2 is the per-frequency SNR.  This is the
frequency-binning picture: each bin contributes the Gaussian divergence
D(N(0,1) || N(0,1+s)), and the KLI integrand is exactly that divergence.

For the symmetric first-order field the SNR and correlation separate:

    s(w) = SNR / ((2/pi) K(4 zeta) (1 - 2 zeta cos w1 - 2 zeta cos w2)),

which is the canonical evaluation path here.  Its w2 integral is
closed-form (see ``_kernels_py.sfcar_grid_sums``), which leaves an average
over w1 taken by a trapezoid rule in log tan(w1/2), whose nodes reach
down to the width sqrt(max(SNR/scale, 1 - 4 zeta)) of the spectral peak
at w1 = 0, however small.  The node count doubles from
``points_per_axis`` until two successive estimates agree to the relative
tolerance, down to rates at the bottom of the normal double range: the
kernel keeps full relative precision there, so no regime needs a wider
tolerance, an absolute floor or a separate branch.  At zeta = 1/4 exactly
both rates are served as their closed-form limit 0.

The general-CAR route through f and sigma^2 is kept as an independent
implementation for cross-validation: a doubling 2-D midpoint rule.
"""

import math
import sys
from dataclasses import dataclass

from . import _kernels_py
from .car import CarCoefficients, NoiseModel
from .physmap import PhysicalField, edge_decorrelation, spectral_parameters
from .specfun import DEFAULT_QUADRATURE, QuadratureSpec, close_enough, elliptic_k

import numpy as np


@dataclass(frozen=True)
class RateResult:
    """Per-node information rates in nats, with quadrature metadata.

    kli_rate <= mi_rate always (their integrands differ by the nonpositive
    term 0.5/(1+s) - 0.5).  quadrature_points is the final node count per
    axis: w1 nodes on the SFCAR path, the grid side on the general-CAR path
    (0 for closed-form endpoint values); converged=False flags an estimate
    that stopped at the point budget without meeting the tolerance.
    """

    kli_rate: float
    mi_rate: float
    quadrature_points: int
    converged: bool


def kli_integrand(s):
    """Per-frequency divergence D(N(0,1) || N(0,1+s)) in nats.

    Equals 0.5*log(1+s) + 0.5/(1+s) - 0.5, evaluated as
    0.5*(log1p(s) - s/(1+s)); behaves like s^2/4 as s -> 0.  The two terms
    still cancel to leading order at small s, so the relative error grows
    like eps/s (the absolute error stays below eps*s).  Against a 40-digit
    evaluation it is at most ~2e-16 relative for s >= 1, 5e-14 for
    s >= 1e-2 and 4e-12 for s >= 1e-4, but 2.9e-9 at s = 1e-8 and 4.8e-5
    at s = 1e-12, and no digit is left near s = 1e-16.
    Accepts scalars or arrays.
    """
    s = np.asarray(s, dtype=np.float64)
    out = 0.5 * (np.log1p(s) - s / (1.0 + s))
    return float(out) if out.ndim == 0 else out


#: Estimates whose magnitude and change are both at most the floor count as
#: converged zeros (a relative test is meaningless at roundoff scale).  The
#: 2-D midpoint sums of the general-CAR rates carry roundoff far above the
#: smallest doubles; the SFCAR kernel keeps full relative precision down to
#: the bottom of the normal range.
_CAR_ZERO_FLOOR = 1e-12
_SFCAR_ZERO_FLOOR = sys.float_info.min


def _doubling_rates(eval_sums, spec: QuadratureSpec, zero_floor: float) -> RateResult:
    n = spec.points_per_axis
    prev = eval_sums(n)
    while 2 * n <= spec.max_points_per_axis:
        n *= 2
        cur = eval_sums(n)
        if (close_enough(prev[0], cur[0], spec.relative_tolerance, zero_floor)
                and close_enough(prev[1], cur[1], spec.relative_tolerance, zero_floor)):
            return RateResult(cur[0], cur[1], n, True)
        prev = cur
    return RateResult(prev[0], prev[1], n, False)


#: Largest SNR/scale c the SFCAR kernel takes: its log1p argument ~2c/(A + r0),
#: A + r0 >= 1/2, first overflows at c = 4.5e307 (delta = 0) to 9.0e307 (1).
_C_MAX = sys.float_info.max / 4.0


def _sfcar_quadrature(delta: float, scale: float, snr: float,
                      spec: QuadratureSpec) -> RateResult:
    # the one rate path of the symmetric first-order field: delta = 1 - 4 zeta
    c = snr / scale
    if c == 0.0:  # below the smallest double: so are both rates
        return RateResult(0.0, 0.0, 0, True)
    if c > _C_MAX:
        raise ValueError(f"SNR/scale = {c!r} is above {_C_MAX!r}, where the rate "
                         "integrand overflows")
    return _doubling_rates(lambda n: _kernels_py.sfcar_grid_sums(c, delta, n), spec,
                           _SFCAR_ZERO_FLOOR)


def sfcar_rates(zeta: float, snr: float, spec: QuadratureSpec = DEFAULT_QUADRATURE) -> RateResult:
    """KLI and MI rates of the symmetric first-order field at (zeta, SNR).

    zeta may equal 1/4, where both rates are exactly 0 (perfectly
    correlated limit).  Non-convergence within the quadrature budget is
    flagged on the result, not raised.
    """
    zeta = float(zeta)
    if not 0.0 <= zeta <= 0.25:
        raise ValueError("zeta must lie in [0, 1/4]")
    if not 0.0 < snr < math.inf:
        raise ValueError("snr must be positive and finite")
    if zeta == 0.25:
        return RateResult(0.0, 0.0, 0, True)
    return _sfcar_quadrature(1.0 - 4.0 * zeta, (2.0 / math.pi) * elliptic_k(4.0 * zeta),
                             snr, spec)


def sfcar_rates_at_spacing(field: PhysicalField, snr: float,
                           spec: QuadratureSpec = DEFAULT_QUADRATURE) -> RateResult:
    """Rates at physical parameters: zeta = g(rho(alpha*spacing)).

    Takes 1 - 4 zeta and the power scale (2/pi)K(4 zeta) from
    ``physmap.spectral_parameters``, which keeps both exact where zeta
    rounds next to or onto 1/4 and at any density; the rates there are
    small but not zero, and at low SNR they turn on 1 - 4 zeta itself.
    Raises ValueError where 1 - rho is below the smallest normal double
    (alpha*spacing below ~1.1e-155): the power scale 1/(1 - rho) overflows
    there.
    """
    if not 0.0 < snr < math.inf:
        raise ValueError("snr must be positive and finite")
    if edge_decorrelation(field) < sys.float_info.min:
        raise ValueError(f"alpha*spacing = {field.alpha * field.spacing!r} is too small: "
                         "1 - rho is below the smallest normal double")
    _zeta, delta, scale = spectral_parameters(field)
    return _sfcar_quadrature(delta, scale, snr, spec)


def kli_rate_car(coeffs: CarCoefficients, noise: NoiseModel,
                 spec: QuadratureSpec = DEFAULT_QUADRATURE) -> RateResult:
    """Rates for a general finite-tap CAR field observed in noise.

    Integrates the spectral integrands with s(w) = 1/(sigma^2 * symbol(w))
    where symbol is the precision cosine sum.  Raises ValueError if the
    symbol is non-positive anywhere on the integration grid (invalid
    model); quadrature non-convergence is flagged on the result.
    """
    oi, oj, vals = coeffs.tap_arrays()

    def sums(n: int):
        kli, mi, min_den = _kernels_py.car_grid_sums(vals, oi, oj, noise.sigma2, n)
        if min_den <= 0.0:
            raise ValueError(
                f"precision symbol non-positive on integration grid (min {min_den:.3g})"
            )
        return kli, mi

    return _doubling_rates(sums, spec, _CAR_ZERO_FLOOR)

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

which is the canonical evaluation path here; the general-CAR route through
f and sigma^2 is kept as an independent implementation for
cross-validation.  At zeta = 1/4 exactly both rates are served as their
closed-form limit 0.
"""

import math
from dataclasses import dataclass

from . import _kernels_py
from .car import CarCoefficients, NoiseModel
from .physmap import (
    RHO_SATURATION,
    PhysicalField,
    edge_correlation,
    spectral_scale_from_rho,
    zeta_from_rho,
)
from .specfun import DEFAULT_QUADRATURE, QuadratureSpec, close_enough, elliptic_k

import numpy as np

#: Above this edge dependence the starting grid is raised to 1024 points
#: per axis: the integrand peaks at the origin as zeta approaches 1/4.
_ENDPOINT_ZETA = 0.2499
_ENDPOINT_MIN_POINTS = 1024

#: When the origin peak is narrower than a few grid cells at the maximum
#: budget, doubling converges only at O(N^-2) (the unresolved peak acts as
#: an integrable log singularity).  The effective tolerance floors here;
#: the absolute error of the accepted estimate is ~1e-5 relative or
#: better, and the skipped peak itself contributes O(delta log 1/delta).
_ENDPOINT_RTOL_FLOOR = 1e-4
_RESOLVE_CELLS = 6.0


@dataclass(frozen=True)
class RateResult:
    """Per-node information rates in nats, with quadrature metadata.

    kli_rate <= mi_rate always (their integrands differ by the nonpositive
    term 0.5/(1+s) - 0.5).  quadrature_points is the final grid side (0
    for closed-form endpoint values); converged=False flags an estimate
    that stopped at the point budget without meeting the tolerance.
    """

    kli_rate: float
    mi_rate: float
    quadrature_points: int
    converged: bool


def kli_integrand(s):
    """Per-frequency divergence D(N(0,1) || N(0,1+s)) in nats.

    Equals 0.5*log(1+s) + 0.5/(1+s) - 0.5, evaluated in the cancellation-
    free form 0.5*(log1p(s) - s/(1+s)); behaves like s^2/4 as s -> 0.
    Accepts scalars or arrays.
    """
    s = np.asarray(s, dtype=np.float64)
    out = 0.5 * (np.log1p(s) - s / (1.0 + s))
    return float(out) if out.ndim == 0 else out


def _delta_resolvable(delta: float, zeta: float, max_points: int) -> bool:
    # Peak half-width in frequency is ~sqrt(delta/zeta); require several
    # cells across it at the maximum grid.
    width = math.sqrt(delta / max(zeta, 1e-2))
    return width >= _RESOLVE_CELLS * 2.0 * math.pi / max_points


def _doubling_rates(eval_sums, spec: QuadratureSpec, start: int, rtol: float) -> RateResult:
    n = min(max(spec.points_per_axis, start), spec.max_points_per_axis)
    prev = eval_sums(n)
    while 2 * n <= spec.max_points_per_axis:
        n *= 2
        cur = eval_sums(n)
        if close_enough(prev[0], cur[0], rtol) and close_enough(prev[1], cur[1], rtol):
            return RateResult(cur[0], cur[1], n, True)
        prev = cur
    return RateResult(prev[0], prev[1], n, False)


def _sfcar_quadrature(scale: float, zeta_den: float, snr: float,
                      spec: QuadratureSpec, delta: float) -> RateResult:
    start = spec.points_per_axis
    if zeta_den > _ENDPOINT_ZETA:
        start = max(start, _ENDPOINT_MIN_POINTS)
    if zeta_den == 0.25:
        # odd midpoint grids contain the origin, where the endpoint
        # denominator vanishes; even sides keep it at distance pi/n
        start += start & 1
    rtol = spec.relative_tolerance
    if not _delta_resolvable(delta, zeta_den, spec.max_points_per_axis):
        rtol = max(rtol, _ENDPOINT_RTOL_FLOOR)
    c = snr / scale
    return _doubling_rates(
        lambda n: _kernels_py.sfcar_grid_sums(c, zeta_den, n, True), spec, start, rtol
    )


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
    scale = (2.0 / math.pi) * elliptic_k(4.0 * zeta)
    return _sfcar_quadrature(scale, zeta, snr, spec, delta=1.0 - 4.0 * zeta)


def sfcar_rates_at_spacing(field: PhysicalField, snr: float,
                           spec: QuadratureSpec = DEFAULT_QUADRATURE) -> RateResult:
    """Rates at physical parameters: zeta = g(rho(alpha*spacing)).

    The power scale is (2/pi)K(4 zeta) = 1/(1 - 4 zeta rho)
    (``spectral_scale_from_rho``), which keeps full accuracy where zeta
    rounds to within a few ulps of 1/4.  For nearly flat correlation (rho
    beyond the float-representable range of zeta) the denominator is taken
    at the endpoint 1/4, while the scale 1/(1-rho) keeps the full physical
    information.  Both branches agree to quadrature accuracy at the
    handoff.
    """
    if not 0.0 < snr < math.inf:
        raise ValueError("snr must be positive and finite")
    rho = edge_correlation(field)
    zeta = zeta_from_rho(rho)
    scale = spectral_scale_from_rho(rho, zeta)
    if rho > RHO_SATURATION:
        delta = 8.0 * math.exp(-math.pi * scale)
        return _sfcar_quadrature(scale, 0.25, snr, spec, delta)
    return _sfcar_quadrature(scale, zeta, snr, spec, delta=1.0 - 4.0 * zeta)


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

    return _doubling_rates(sums, spec, spec.points_per_axis, spec.relative_tolerance)

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
at w1 = 0, however small.  Every kernel call at n nodes returns the
estimates of the rule and of its embedded n/2-node rule (its odd-indexed
nodes), taken from the same integrand values.  The first call is at
512 nodes (halved to fit the budget), and the node count doubles until
the pair of one call agrees to the relative tolerance: the same
comparisons, and the same node counts, as successive calls at n/2 and n,
one call fewer.  This holds down to rates at the bottom of the normal
double range: the kernel keeps full relative precision there, so no
regime needs a wider tolerance, an absolute floor or a separate branch.
At zeta = 1/4 exactly both rates are served as their closed-form limit 0.

Every SFCAR rate goes through ``sfcar_rates_batch``, over rows
(1 - 4 zeta, power scale, SNR): a sweep passes all its rows at once, a
single query (``sfcar_rates``, ``sfcar_rates_at_spacing``) one row.  Each
doubling round is one kernel call for the rows not yet converged; each
row keeps its own node count and convergence flag, and its result is the
same bits alone or in any batch.

The general-CAR route through f and sigma^2 is kept as an independent
implementation for cross-validation: the periodic trapezoid rule on the
n x n torus grid w = 2 pi k/n, the grid of the finite-lattice torus
oracle, whose even-indexed nodes are the n/2 grid.  Each kernel call
returns both grids' means from the same integrand values, so both rate
paths share one doubling scheme, one kernel call per round.  It starts
at side 32 (halved to fit the budget: every size integrated is a power
of two), as the rule converges exponentially on a periodic analytic
integrand, and both paths form their integrands without cancellation,
so one zero floor, the smallest normal double, serves every rate path.
The spacing gaps of ``sfcar_rate_gaps`` take no quadrature: they are one
series in zeta^2 over the closed walks of the square lattice.
"""

import math
import sys
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from . import _kernels_py
from .car import CarCoefficients, NoiseModel
from .physmap import PhysicalField, spectral_parameters
from .specfun import DEFAULT_QUADRATURE, QuadratureSpec, close_enough, elliptic_k

import numpy as np


@dataclass(frozen=True)
class RateResult:
    """Per-node information rates in nats, with quadrature metadata.

    kli_rate <= mi_rate always (their integrands differ by the nonpositive
    term 0.5/(1+s) - 0.5).  quadrature_points is the final node count per
    axis: w1 nodes on the SFCAR path, the grid side on the torus-grid path
    (0 for closed-form values, the gaps'); converged=False flags an estimate
    that stopped at the point budget without meeting the tolerance.
    """

    kli_rate: float
    mi_rate: float
    quadrature_points: int
    converged: bool


def kli_integrand(s):
    """Per-frequency divergence D(N(0,1) || N(0,1+s)) in nats.

    Equals 0.5*log(1+s) + 0.5/(1+s) - 0.5, by the rate kernels' one
    integrand, which forms it without cancellation where log1p(s) < 1
    (``_kernels_py._integrands``); behaves like s^2/4 as s -> 0.  Accepts
    scalars or arrays, and leaves an array passed in unchanged.  Raises
    ValueError, naming the first, for any s outside (-1, inf).
    """
    s = np.array(s, dtype=np.float64)  # a copy: the integrand overwrites it
    bad = ~((s > -1.0) & (s < math.inf))
    if bad.any():
        raise ValueError(f"kli_integrand needs s in (-1, inf), got {float(s[bad][0])!r}")
    out = _kernels_py._integrands(s.reshape(-1))[0]
    return float(out[0]) if s.ndim == 0 else out.reshape(s.shape)


#: First w1 node count of the SFCAR rates, and first torus-grid side of
#: ``kli_rate_car``; each is halved to fit the budget.
_SFCAR_START = 512
_TORUS_START_SIDE = 32


def _doubling_rates(eval_sums, m: int, spec: QuadratureSpec, start: int) -> List[RateResult]:
    # the doubling quadrature of m rows at once: eval_sums(n, live) gives the
    # (kli, mi, kli_half, mi_half) estimates of the rows whose indices are in
    # live, at n nodes and at n/2 nodes; a row whose pair agrees has converged,
    # and n doubles for the rest, from the start halved until it fits the budget
    n = start
    while n > spec.max_points_per_axis:
        n //= 2
    results: List[Optional[RateResult]] = [None] * m
    live = list(range(m))
    while live:
        pending = []
        for i, k, v, k_half, v_half in zip(live, *eval_sums(n, live)):
            converged = (close_enough(k_half, k, spec.relative_tolerance)
                         and close_enough(v_half, v, spec.relative_tolerance))
            results[i] = RateResult(k, v, n, converged)
            if not converged:
                pending.append(i)
        live = pending if 2 * n <= spec.max_points_per_axis else []
        n *= 2
    return results


#: Largest SNR/scale c the SFCAR kernel takes: its log1p argument ~2c/(A + r0),
#: A + r0 >= 1/2, first overflows at c = 4.5e307 (delta = 0) to 9.0e307 (1).
_C_MAX = sys.float_info.max / 4.0

#: The rates where SNR/scale is 0: at zeta = 1/4, or an SNR below the
#: smallest double times the scale.
_ZERO_RATES = RateResult(0.0, 0.0, 0, True)


def sfcar_rates_batch(rows: Sequence[Tuple[float, float, float]],
                      spec: QuadratureSpec = DEFAULT_QUADRATURE) -> List[RateResult]:
    """Rates of the symmetric first-order field for each row (1 - 4 zeta,
    power scale (2/pi) K(4 zeta), SNR), as ``sfcar_row`` and
    ``sfcar_row_at_spacing`` give them.

    The one rate path: all rows share one doubling quadrature, in which
    each round is one kernel call for the rows that have not converged, and
    each row keeps its own node count and convergence flag.  A row's
    result does not depend on the other rows.  Where SNR/scale is 0 (an
    infinite scale at zeta = 1/4) both rates are exactly 0.  Raises
    ValueError, before any row is integrated, where SNR/scale is above
    _C_MAX; non-convergence within the quadrature budget is flagged on the
    result, not raised.
    """
    c = [snr / scale for _delta, scale, snr in rows]
    for ci in c:
        if ci > _C_MAX:
            raise ValueError(f"SNR/scale = {ci!r} is above {_C_MAX!r}, where the rate "
                             "integrand overflows")
    results = [_ZERO_RATES] * len(rows)
    live = [i for i, ci in enumerate(c) if ci != 0.0]
    if live:
        cs, deltas = [c[i] for i in live], [rows[i][0] for i in live]

        def sums(n, sel):
            means = _kernels_py.sfcar_grid_sums([cs[j] for j in sel], [deltas[j] for j in sel], n)
            return [v.tolist() for v in means]

        for i, res in zip(live, _doubling_rates(sums, len(live), spec, _SFCAR_START)):
            results[i] = res
    return results


def sfcar_row(zeta: float, snr: float) -> Tuple[float, float, float]:
    """The row (1 - 4 zeta, (2/pi) K(4 zeta), SNR) of ``sfcar_rates_batch``
    at (zeta, SNR); the scale is infinite at zeta = 1/4."""
    zeta = float(zeta)
    if not 0.0 <= zeta <= 0.25:
        raise ValueError("zeta must lie in [0, 1/4]")
    if not 0.0 < snr < math.inf:
        raise ValueError("snr must be positive and finite")
    scale = math.inf if zeta == 0.25 else (2.0 / math.pi) * elliptic_k(4.0 * zeta)
    return 1.0 - 4.0 * zeta, scale, snr


def sfcar_row_at_spacing(field: PhysicalField, snr: float) -> Tuple[float, float, float]:
    """The row (1 - 4 zeta, (2/pi) K(4 zeta), SNR) of ``sfcar_rates_batch``
    at physical parameters, from ``physmap.spectral_parameters``.

    Raises ValueError where 1 - rho is below the smallest normal double
    (alpha*spacing below ~1.1e-155): the power scale 1/(1 - rho) overflows
    there.
    """
    if not 0.0 < snr < math.inf:
        raise ValueError("snr must be positive and finite")
    _zeta, delta, scale = spectral_parameters(field)
    if not scale <= 1.0 / sys.float_info.min:  # scale is 1/(1 - rho) there
        raise ValueError(f"alpha*spacing = {field.alpha * field.spacing!r} is too small: "
                         "1 - rho is below the smallest normal double")
    return delta, scale, snr


def sfcar_rates(zeta: float, snr: float, spec: QuadratureSpec = DEFAULT_QUADRATURE) -> RateResult:
    """KLI and MI rates of the symmetric first-order field at (zeta, SNR).

    zeta may equal 1/4, where both rates are exactly 0 (perfectly
    correlated limit).  Non-convergence within the quadrature budget is
    flagged on the result, not raised.
    """
    return sfcar_rates_batch([sfcar_row(zeta, snr)], spec)[0]


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
    return sfcar_rates_batch([sfcar_row_at_spacing(field, snr)], spec)[0]


#: Orders n = 2..64 and closed walks W_n = C(n, n/2)^2 of the square lattice
#: (Guttmann, J. Phys. A 43, 305205, 2010); terms fall by (4 zeta)^2 <= 1/4.
_GAP_ORDERS = np.arange(2.0, 65.0, 2.0)
_WALKS = np.array([float(math.comb(n, n // 2) ** 2) for n in range(2, 65, 2)])


def sfcar_rate_gaps(rows: Sequence[Tuple[float, float, float]]) -> List[RateResult]:
    """rate(zeta = 0) - rate(zeta) as kli_rate and mi_rate for each row
    (zeta, rho, SNR), zeta in [0, 1/8] (alpha*d above ~2.85), by the
    lattice-walk series of the README's Numerical notes, exact up to
    rounding (quadrature_points 0): with G = 1/(1 - 4 zeta rho),
    q = G/(G + SNR), e = 1/q - 2 and B = u - log1p(u), u = (1 - q)(G - 1),
    2 Delta_MI = (1 - q)^2 sum (W_n/n) zeta^n S_n - B and 2 Delta_KLI =
    (1 - q)^2 (q sum (W_n/n) zeta^n N_n + (G - 1)^2/(1 + SNR)) - B, where
    S_n = sum_{l <= n-2} (n - 1 - l) q^l and N_n = e S_n + sum_{l <= n-2}
    (n - 2 - 2l) q^l.  No part cancels, also at SNR = 1, where the KLI gap
    is O(zeta^4); a row's result does not depend on the batch.
    """
    zeta, rho, snr = np.array(rows, dtype=np.float64).reshape(-1, 3, 1).transpose(1, 0, 2)
    bad = ~((zeta >= 0.0) & (zeta <= 0.125))
    if bad.any():
        raise ValueError(f"the gap series needs zeta in [0, 1/8], got {float(zeta[bad][0])!r}")
    powers = (zeta * zeta) ** np.arange(1, 33) * (_WALKS / _GAP_ORDERS)  # (W_n/n) zeta^n
    g_minus_1 = 4.0 * zeta * rho / (1.0 - 4.0 * zeta * rho)
    q, one_minus_q = (1.0 + g_minus_1) / (1.0 + g_minus_1 + snr), snr / (1.0 + g_minus_1 + snr)
    e = (snr - 1.0) - 4.0 * zeta * rho * snr
    t = np.log1p(one_minus_q * g_minus_1)
    bregman = 2.0 * np.sinh(0.5 * t) ** 2 + 2.0 * _kernels_py._half_sinh_minus_x(t)
    partial = np.cumsum(q ** np.arange(63), axis=1)  # sum_{l < k} q^l, k = 1..63
    s_n = np.cumsum(partial, axis=1)[:, ::2]
    n_terms = e * s_n + (2.0 * s_n - _GAP_ORDERS * partial[:, ::2])
    mi = one_minus_q ** 2 * np.sum(powers * s_n, axis=1, keepdims=True) - bregman
    kli = one_minus_q ** 2 * (q * np.sum(powers * n_terms, axis=1, keepdims=True)
                              + g_minus_1 * g_minus_1 / (1.0 + snr)) - bregman
    return [RateResult(k, m, 0, True) for k, m in (0.5 * np.hstack([kli, mi])).tolist()]


def kli_rate_car(coeffs: CarCoefficients, noise: NoiseModel,
                 spec: QuadratureSpec = DEFAULT_QUADRATURE) -> RateResult:
    """Rates for a general finite-tap CAR field observed in noise.

    Integrates the spectral integrands with s(w) = 1/(sigma^2 * symbol(w))
    where symbol is the precision cosine sum, on torus grids from side 32
    (halved to fit the budget).  Raises ValueError if the symbol is
    non-positive anywhere on the integration grid (invalid model);
    quadrature non-convergence is flagged on the result.
    """
    oi, oj, vals = coeffs.tap_arrays()

    def sums(n: int, _live):
        *means, min_den = _kernels_py.car_grid_sums(vals, oi, oj, noise.sigma2, n)
        if min_den <= 0.0:
            raise ValueError(
                f"precision symbol non-positive on integration grid (min {min_den:.3g})"
            )
        return [[v] for v in means]

    return _doubling_rates(sums, 1, spec, _TORUS_START_SIDE)[0]

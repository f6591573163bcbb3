"""Reference values computed apart from hgmrf.

Nothing here imports hgmrf.  The rates of every field the benchmark uses
have a precision symbol of the form A(w1) - B(w1) cos(w2), so the inner
w2 integral is closed-form:

    (1/2pi) int log(A - B cos w) dw = log((A + sqrt(A^2 - B^2)) / 2)
    (1/2pi) int dw / (A - B cos w)  = 1 / sqrt(A^2 - B^2)

and the outer w1 integral is done with ``scipy.integrate.quad``.  With
1 + s = (D + c)/D, D = A - B cos w2:

    MI  = <(1/2)[L(A + c) - L(A)]>,  KLI = MI - (c/2) <((A+c)^2 - B^2)^(-1/2)>

where <> averages over w1.  The edge dependence zeta(rho) and the elliptic
integral K come from mpmath.  Finite lattices are summed over their exact
eigenvalues: cos(2 pi k/n) on the torus, cos(pi k/(n+1)) (DST-I) with free
boundaries.
"""

import math
import warnings

import mpmath as mp
import numpy as np
from scipy import integrate

#: Working precision of the mpmath parts (zeta(rho), K, K_1).
_DPS = 50

#: Below this 1 - 4 zeta the asymptotic K(k) = (1/2) log(16/k'^2) is exact
#: to far below double precision, which gives G = (2/pi) K = 1/(1 - rho)
#: and 1 - 4 zeta = 8 exp(-pi G).
_ASYMPTOTIC_DELTA = 1e-20


def _rates_1d(amb, apb, c):
    """(kli, mi) for D = A - B cos w2 with A - B = amb(w1), A + B = apb(w1).

    amb and apb take w1 in [0, pi] and must be even in w1.  Both rates are
    formed without cancellation in the log difference.
    """

    def terms(w):
        lo, hi = amb(w), apb(w)
        r0 = math.sqrt(lo * hi)
        r1 = math.sqrt((lo + c) * (hi + c))
        # L(A + c) - L(A) = log1p((c + r1 - r0) / (A + r0)), and
        # r1 - r0 = c (lo + hi + c) / (r1 + r0).
        dr = c * (lo + hi + c) / (r1 + r0)
        mi = 0.5 * math.log1p((c + dr) / (0.5 * (lo + hi) + r0))
        return mi, mi - 0.5 * c / r1

    out = []
    for pick in (1, 0):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            val, _ = integrate.quad(lambda w: terms(w)[pick], 0.0, math.pi,
                                    epsabs=0.0, epsrel=1e-13, limit=400)
        out.append(val / math.pi)
    return out[0], out[1]


def sfcar_rates_delta(delta: float, scale: float, snr: float):
    """(kli, mi) of the symmetric first-order field with 1 - 4 zeta = delta
    and power scale (2/pi) K(4 zeta) = scale.

    With s2 = sin^2(w1/2): A - B = delta + (1 - delta) s2 and
    A + B = 1 + (1 - delta) s2, free of cancellation as zeta -> 1/4.
    """
    four_zeta = 1.0 - delta
    return _rates_1d(lambda w: delta + four_zeta * math.sin(0.5 * w) ** 2,
                     lambda w: 1.0 + four_zeta * math.sin(0.5 * w) ** 2,
                     snr / scale)


def scale_from_zeta(zeta: float) -> float:
    """(2/pi) K(k), k = 4 zeta, from mpmath (which takes m = k^2)."""
    with mp.workdps(_DPS):
        k = 4 * mp.mpf(zeta)
        return float(2 / mp.pi * mp.ellipk(k * k))


def sfcar_rates_zeta(zeta: float, snr: float):
    """(kli, mi) at edge dependence zeta < 1/4 and SNR."""
    delta = float(1 - 4 * mp.mpf(zeta))
    return sfcar_rates_delta(delta, scale_from_zeta(zeta), snr)


def edge_correlation(x: float) -> float:
    """rho = x K_1(x) from mpmath."""
    with mp.workdps(_DPS):
        xm = mp.mpf(x)
        return float(xm * mp.besselk(1, xm))


def delta_scale_from_rho(rho: float):
    """(1 - 4 zeta, (2/pi) K(4 zeta)) for edge correlation rho in (0, 1).

    rho = (G - 1) / (4 zeta G), G = (2/pi) K(4 zeta), is solved for
    t = log(1 - 4 zeta) by bisection in mpmath.
    """
    with mp.workdps(_DPS):
        r = mp.mpf(rho)
        g_asym = 1 / (1 - r)
        delta_asym = 8 * mp.exp(-mp.pi * g_asym)
        if delta_asym < _ASYMPTOTIC_DELTA:
            return float(delta_asym), float(g_asym)

        def rho_of(t):
            delta = mp.exp(t)
            g = 2 / mp.pi * mp.ellipk(1 - delta * (2 - delta))
            return (g - 1) / ((1 - delta) * g)

        lo, hi = mp.log(mp.mpf(10) ** -(_DPS - 5)), mp.mpf(0)
        for _ in range(120):  # rho_of falls as t grows
            mid = (lo + hi) / 2
            if rho_of(mid) > r:
                lo = mid
            else:
                hi = mid
        delta = mp.exp((lo + hi) / 2)
        return float(delta), float(2 / mp.pi * mp.ellipk(1 - delta * (2 - delta)))


def sfcar_rates_spacing(x: float, snr: float):
    """(kli, mi) at physical product alpha*d = x and SNR."""
    delta, scale = delta_scale_from_rho(edge_correlation(x))
    return sfcar_rates_delta(delta, scale, snr)


def axis_diag_car_rates(t00: float, t_axis: float, t_diag: float, sigma2: float):
    """(kli, mi) of the CAR field with symbol
    t00 + 2 t_axis (cos w1 + cos w2) + 4 t_diag cos w1 cos w2,
    i.e. taps theta(0,0) = t00, theta(+-1,0) = theta(0,+-1) = t_axis and
    theta(+-1,+-1) = t_diag, observed in noise of variance sigma2.

    As A - B cos w2: A = t00 + 2 t_axis cos w1, B = -(2 t_axis + 4 t_diag cos w1).
    """
    def a(w):
        return sigma2 * (t00 + 2.0 * t_axis * math.cos(w))

    def b(w):
        return -sigma2 * (2.0 * t_axis + 4.0 * t_diag * math.cos(w))

    return _rates_1d(lambda w: a(w) - b(w), lambda w: a(w) + b(w), 1.0)


def _eigen_rates(q: np.ndarray, sigma2: float):
    s = 1.0 / (sigma2 * q)
    mi = 0.5 * np.log1p(s)
    return float(np.mean(mi - 0.5 * s / (1.0 + s))), float(np.mean(mi))


def torus_rates(kappa: float, zeta: float, sigma2: float, n: int):
    """(kli, mi) per node on the n-by-n torus from its eigenvalues."""
    c = np.cos(2.0 * np.pi * np.arange(n) / n)
    return _eigen_rates(kappa * (1.0 - 2.0 * zeta * (c[:, None] + c[None, :])), sigma2)


def free_rates(kappa: float, zeta: float, sigma2: float, n: int):
    """(kli, mi) per node on the n-by-n free-boundary lattice from its
    DST-I eigenvalues kappa (1 - 2 zeta cos(pi k/(n+1)) - 2 zeta cos(pi l/(n+1)))."""
    c = np.cos(np.pi * np.arange(1, n + 1) / (n + 1))
    return _eigen_rates(kappa * (1.0 - 2.0 * zeta * (c[:, None] + c[None, :])), sigma2)

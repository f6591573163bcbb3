"""Independent mpmath reference for the SFCAR rates; it imports no hgmrf.

With delta = 1 - 4 zeta and c = SNR/scale, the rates' c-derivatives are
averages of 1/(1 + c - 2 zeta (cos w1 + cos w2)) and its square, which the
square-lattice Green's function (2/(pi a)) K(4 zeta/a) (Katsura et al.,
J. Math. Phys. 12, 892, 1971) and its derivative (DLMF 19.4.1) give in
closed form.  With k_t = (1 - delta)/(1 + t):

    MI  = (1/pi) int_0^c K(k_t)/(1 + t) dt,
    KLI = (1/pi) int_0^c t E(k_t)/((t + delta)(2 + t - delta)) dt.

The integrands are positive, so nothing cancels at any c, and no step is
shared with the library's closed-form w2 integral.
"""

import functools
import math

import mpmath as mp

MP_DPS = 40


def rates(delta, c):
    """(kli, mi) as floats at 1 - 4 zeta = delta and SNR/scale = c."""
    with mp.workdps(MP_DPS):
        delta, c = mp.mpf(delta), mp.mpf(c)

        def mi_term(t):
            # 1 - k_t^2 as a product: mpmath's ellipk(k_t^2) would round
            # its parameter to 1 once t + delta < 10^-dps
            kp = mp.sqrt((t + delta) * (2 + t - delta)) / (1 + t)
            return mp.pi / (2 * mp.agm(1, kp) * (1 + t))

        def kli_term(t):
            return t * mp.ellipe(((1 - delta) / (1 + t)) ** 2) / ((t + delta) * (2 + t - delta))

        def piece(term, a, b):
            # quad stops on an absolute error, so the integrand is scaled
            # to O(1) by its value at the top: in t/b on [0, b] (at
            # delta = 0, K ~ ln(8/t)/2 there, integrable) and above in
            # log t, which may span hundreds of decades
            top = b * term(b)
            if a == 0:
                return top * mp.quad(lambda v: b * term(b * v) / top, [0, 1])
            return top * mp.quad(lambda x: mp.exp(x) * term(mp.exp(x)) / top,
                                 [mp.log(a), mp.log(b)])

        cuts = sorted({mp.mpf(0), c} | {p for p in (delta, mp.mpf(1)) if 0 < p < c})
        return tuple(float(sum(piece(term, a, b) for a, b in zip(cuts, cuts[1:])) / mp.pi)
                     for term in (kli_term, mi_term))


def rates_at_zeta(zeta, snr):
    with mp.workdps(MP_DPS):
        z = mp.mpf(zeta)
        scale = 2 / mp.pi * mp.ellipk((4 * z) ** 2)  # parameter m = k^2
        return rates(1 - 4 * z, mp.mpf(snr) / scale)


def rates_at_spacing(x, snr):
    delta, g = delta_scale(x)
    with mp.workdps(MP_DPS):
        return rates(delta, mp.mpf(snr) / g)


@functools.lru_cache(maxsize=None)
def delta_scale(x):
    # (delta, g) at alpha*d = x, mpmath numbers, for every SNR at that x.
    # rho = x K1(x); solve rho = (g - 1)/((1 - delta) g), g = (2/pi) K(1 - delta),
    # for delta = 1 - 4 zeta by plain bisection in log(delta), independent of
    # the library's Illinois solve, unless delta is below 1e-30, where
    # g = 1/(1 - rho) to far below double precision.
    # 1 - rho ~ x^2 ln(1/x) is formed with 2 log10(1/x) extra digits, or for
    # x <= 1e-20 from (x^2/4)(1 - 2 gamma - 2 ln(x/2)), within O(x^2) relative.
    if x <= 1e-20:
        with mp.workdps(MP_DPS):
            xm = mp.mpf(x)
            one_minus_rho = xm ** 2 / 4 * (1 - 2 * mp.euler - 2 * mp.log(xm / 2))
    else:
        with mp.workdps(MP_DPS + 2 * max(0, -math.floor(math.log10(x)))):
            xm = mp.mpf(x)
            one_minus_rho = 1 - xm * mp.besselk(1, xm)
    with mp.workdps(MP_DPS):
        rho = 1 - one_minus_rho
        g = 1 / one_minus_rho
        delta = mp.mpf(0)
        if 8 * mp.exp(-mp.pi * g) > mp.mpf(10) ** -30:
            def rho_of(t):
                d = mp.exp(t)
                gd = 2 / mp.pi * mp.ellipk((1 - d) ** 2)
                return (gd - 1) / ((1 - d) * gd), gd

            lo, hi = mp.log(mp.mpf(10) ** -35), mp.mpf(0)
            for _ in range(150):  # rho_of falls as t grows
                mid = (lo + hi) / 2
                if rho_of(mid)[0] > rho:
                    lo = mid
                else:
                    hi = mid
            delta = mp.exp((lo + hi) / 2)
            g = rho_of((lo + hi) / 2)[1]
        return delta, g

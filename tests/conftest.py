"""Shared independent oracles for the test suite.

The special-function oracles deliberately avoid the library's own
algorithms: the elliptic integral is evaluated by high-precision
quadrature of its defining theta-integral and K_1 by quadrature of its
integral representation, both via mpmath at 30 significant digits.  The
spacing-gap oracle takes each gap from its definition, at 50 digits.
"""

import functools

import mpmath as mp
import pytest

mp.mp.dps = 30


@pytest.fixture(scope="session")
def elliptic_k_oracle():
    def oracle(k: float) -> float:
        km = mp.mpf(float(k))
        val = mp.quad(lambda t: 1 / mp.sqrt(1 - (km * mp.sin(t)) ** 2), [0, mp.pi / 2])
        return float(val)

    return oracle


@pytest.fixture(scope="session")
def bessel_k1_oracle():
    def oracle(x: float) -> float:
        xm = mp.mpf(float(x))
        # truncate where the integrand falls below ~e^-700: the tail is
        # negligible and gigantic exponents upset the gmpy2 backend
        cutoff = mp.acosh(700.0 / xm)
        val = mp.quad(lambda t: mp.exp(-xm * mp.cosh(t)) * mp.cosh(t), [0, cutoff])
        return float(val)

    return oracle


@functools.lru_cache(maxsize=None)
def _spacing_gaps(zeta: float, snr: float, n: int):
    # phi(SNR) - (mean of phi(s) on the n x n torus grid) for phi the (KLI,
    # MI) integrands, s = SNR/((2/pi) K(4 zeta) (1 - 2 zeta (cos w1 + cos w2))):
    # the definition, whose cancellation 50 digits absorb; the sum runs
    # over the distinct cosine pairs k <= l of k, l = 0..n/2 with their
    # multiplicities
    with mp.workdps(50):
        z, snr_mp = mp.mpf(zeta), mp.mpf(snr)
        scale = 2 / mp.pi * mp.ellipk((4 * z) ** 2)  # mpmath takes m = k^2

        def phi(s):
            mi = mp.log1p(s) / 2
            return mi - s / (2 * (1 + s)), mi

        cos = [(mp.cos(2 * mp.pi * k / n), 1 if 2 * k in (0, n) else 2)
               for k in range(n // 2 + 1)]
        kli = mi = mp.mpf(0)
        for k, (ck, wk) in enumerate(cos):
            for l, (cl, wl) in enumerate(cos[k:], start=k):
                weight = wk * wl * (1 if l == k else 2)
                kli_s, mi_s = phi(snr_mp / (scale * (1 - 2 * z * (ck + cl))))
                kli += weight * kli_s
                mi += weight * mi_s
        kli_0, mi_0 = phi(snr_mp)
        return kli_0 - kli / n**2, mi_0 - mi / n**2


@pytest.fixture(scope="session")
def spacing_gap_oracle():
    """(kli, mi) gaps rate(zeta = 0) - rate(zeta) as 50-digit mpf, from
    their definition on the n x n torus grid (n even)."""
    return _spacing_gaps

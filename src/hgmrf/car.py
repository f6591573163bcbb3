"""Conditional-autoregression field models on the 2-D lattice.

A stationary Gauss-Markov random field specified through full conditionals
has power spectral density

    f(w1, w2) = (1/4pi^2) / sum_ij theta_ij exp(-i(i*w1 + j*w2)),

with finitely many symmetric taps theta_ij (theta_ij = theta_{-i,-j},
theta_00 > 0) whose cosine sum must stay positive on (-pi, pi]^2.  The
symmetric first-order special case (SFCAR) has taps
{(0,0): kappa, four neighbors: -lambda}; its correlation strength is the
edge dependence factor zeta = lambda/kappa in [0, 1/4).
"""

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Tuple

import numpy as np

from ._kernels_py import car_symbol, torus_grid
from .specfun import elliptic_k

Offset = Tuple[int, int]

#: Grid side used for the construction-time spectrum positivity check.
_VALIDATION_GRID = 256


@dataclass(frozen=True)
class NoiseModel:
    """I.i.d. zero-mean Gaussian measurement noise with variance sigma2."""

    sigma2: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.sigma2 < math.inf:
            raise ValueError("noise variance must be positive and finite")


class CarCoefficients:
    """Finite symmetric tap map of a conditional autoregression.

    The constructor refuses a non-finite tap, canonicalizes the map so that
    both (i, j) and (-i, -j) are stored and checked equal, requires
    theta_00 > 0, and (unless ``validate=False``) verifies spectrum
    positivity numerically on a 256x256 torus grid, which holds w = 0 and
    pi -- there is no closed-form positivity test for arbitrary tap sets.
    """

    def __init__(self, theta: Mapping[Offset, float], validate: bool = True):
        canonical: dict[Offset, float] = {}
        for (i, j), value in theta.items():
            i, j, value = int(i), int(j), float(value)
            if not math.isfinite(value):
                raise ValueError(f"non-finite tap: theta{(i, j)} = {value}")
            mirror = (-i, -j)
            for key in ((i, j), mirror):
                if key in canonical and canonical[key] != value:
                    raise ValueError(
                        f"asymmetric taps: theta{key} = {canonical[key]} vs {value}"
                    )
                canonical[key] = value
        if canonical.get((0, 0), 0.0) <= 0.0:
            raise ValueError("theta_00 must be positive")
        self._theta = MappingProxyType(dict(sorted(canonical.items())))
        offs = np.array(list(self._theta.keys()), dtype=np.int64)
        self._oi = offs[:, 0].copy()
        self._oj = offs[:, 1].copy()
        self._vals = np.array(list(self._theta.values()), dtype=np.float64)
        if validate:
            # the symbol is even in w, so rows k and 256 - k hold the same values
            w = torus_grid(_VALIDATION_GRID)
            den = car_symbol(self._vals, self._oi, self._oj, w[: _VALIDATION_GRID // 2 + 1], w)
            if not np.all(den > 0.0):
                raise ValueError(
                    "invalid autoregression: precision symbol is not positive "
                    f"everywhere (min {den.min():.3g} on the validation grid)"
                )

    @property
    def theta(self) -> Mapping[Offset, float]:
        return self._theta

    def tap_arrays(self):
        """(offsets_i, offsets_j, values) as numpy arrays, kernel-ready."""
        return self._oi, self._oj, self._vals

    def __repr__(self):
        return f"CarCoefficients({dict(self._theta)!r})"


@dataclass(frozen=True)
class SfcarParams:
    """Symmetric first-order CAR: conditional precision kappa and edge
    dependence factor zeta = lambda/kappa.

    zeta = 0 is the i.i.d. field; the perfectly correlated endpoint
    zeta = 1/4 is excluded (power and spectrum diverge there; rate
    operations serve it as an exact zero limit instead).
    """

    kappa: float
    zeta: float

    def __post_init__(self):
        if not 0.0 < self.kappa < math.inf:
            raise ValueError("kappa must be positive and finite")
        if not 0.0 <= self.zeta < 0.25:
            raise ValueError("zeta must lie in [0, 1/4)")

    @property
    def lambda_(self) -> float:
        """Neighbor dependence coefficient lambda = zeta * kappa."""
        return self.zeta * self.kappa

    def taps(self) -> CarCoefficients:
        """The equivalent 5-tap coefficient map."""
        lam = self.lambda_
        return CarCoefficients(
            {(0, 0): self.kappa, (1, 0): -lam, (-1, 0): -lam, (0, 1): -lam, (0, -1): -lam},
            validate=False,
        )


def car_spectrum(coeffs: CarCoefficients, w1, w2):
    """Spectral density f(w1, w2) = (1/4pi^2)/symbol at a point, with the
    precision symbol sum_ij theta_ij cos(i*w1 + j*w2).

    Accepts scalars or arrays, broadcast against each other; raises
    ValueError when the symbol is not positive at any requested point.
    """
    w1, w2 = np.asarray(w1, dtype=np.float64), np.asarray(w2, dtype=np.float64)
    den = sum(t * np.cos(i * w1 + j * w2) for (i, j), t in coeffs.theta.items())
    if not np.all(den > 0.0):
        raise ValueError("precision symbol non-positive at requested frequency")
    out = 1.0 / (4.0 * math.pi**2 * den)
    return float(out) if np.ndim(out) == 0 else out


def sfcar_spectrum(params: SfcarParams, w1, w2):
    """f(w1, w2) = 1 / (4pi^2 kappa (1 - 2 zeta cos w1 - 2 zeta cos w2))."""
    den = 1.0 - 2.0 * params.zeta * np.cos(w1) - 2.0 * params.zeta * np.cos(w2)
    out = 1.0 / (4.0 * math.pi**2 * params.kappa * den)
    return float(out) if np.ndim(out) == 0 else out


def sfcar_power(params: SfcarParams) -> float:
    """Field variance gamma_00 = 2 K(4 zeta) / (pi kappa)."""
    return 2.0 * elliptic_k(4.0 * params.zeta) / (math.pi * params.kappa)


def sfcar_snr(params: SfcarParams, noise: NoiseModel) -> float:
    """Measurement SNR = gamma_00 / sigma^2 (linear, not dB)."""
    return sfcar_power(params) / noise.sigma2


def sfcar_from_snr(snr: float, zeta: float, noise: NoiseModel = NoiseModel()) -> SfcarParams:
    """Parameters with the requested SNR at the given edge dependence.

    Inverts the SNR relation: kappa = 2 K(4 zeta) / (pi snr sigma^2).
    Raises ValueError, naming zeta, SNR and sigma^2, where kappa is not a
    positive finite double.
    """
    if not 0.0 <= zeta < 0.25:
        raise ValueError(f"zeta must lie in [0, 1/4), got {zeta!r}")
    if not 0.0 < snr < math.inf:
        raise ValueError("snr must be positive and finite")
    kappa = 2.0 * elliptic_k(4.0 * zeta) / (math.pi * snr * noise.sigma2)
    if not 0.0 < kappa < math.inf:
        raise ValueError(f"kappa = 2 K(4 zeta)/(pi SNR sigma^2) = {kappa!r} is not a positive "
                         f"finite double at zeta = {zeta!r}, SNR = {snr!r}, "
                         f"sigma^2 = {noise.sigma2!r}")
    return SfcarParams(kappa=kappa, zeta=zeta)

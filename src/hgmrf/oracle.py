"""Exact finite-lattice ground truth for the asymptotic rate formulas.

The symmetric first-order precision on an n-by-n lattice is
kappa (I - zeta (T (x) I + I (x) T)), with T the 1-D neighbor matrix, so
its eigenvalues are known in closed form for both boundaries:

    q_kl = kappa (1 - 2 zeta cos(theta_k) - 2 zeta cos(theta_l)),

with theta_k = 2 pi k/n, k = 0..n-1, on a torus (T circulant, diagonalised
by the DFT) and theta_k = pi k/(n+1), k = 1..n, with free boundaries (taps
truncated at the edge, T the path adjacency, diagonalised by the DST-I;
Strang, "The Discrete Cosine Transform", SIAM Rev. 41, 1999).  Per-node KLI
and MI at finite n are exact sums of the spectral integrands over q_kl --
on the torus a rectangle rule whose n -> infinity limit is the spectral
integral on the grid of ``_kernels_py.car_grid_sums`` -- taken by the
kernels' one weighted 2-D block sum.  A Monte
Carlo log-likelihood-ratio simulation under the noise-only hypothesis
verifies the almost-sure limit the KLI rate is defined by.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from ._kernels_py import _integrands, _mirror_weights, _weighted_grid_means, torus_grid
from .car import NoiseModel, SfcarParams
from .rates import RateResult


def _check_side(n) -> None:
    if not isinstance(n, numbers.Integral) or n < 2:
        raise ValueError(f"lattice side must be an integer >= 2, got {n!r}")


@dataclass(frozen=True)
class LatticeSpec:
    """Lattice side and boundary handling ('torus' or 'free')."""

    n: int
    boundary: str = "torus"

    def __post_init__(self):
        _check_side(self.n)
        if self.boundary not in ("torus", "free"):
            raise ValueError("boundary must be 'torus' or 'free'")


@dataclass(frozen=True)
class MonteCarloSpec:
    """Replicate count and 64-bit seed for the LLR simulation."""

    replicates: int
    seed: int

    def __post_init__(self):
        if not isinstance(self.replicates, numbers.Integral) or self.replicates < 1:
            raise ValueError(f"replicates must be an integer >= 1, got {self.replicates!r}")
        if not isinstance(self.seed, numbers.Integral) or not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")


def _eigenvalues(scale, zeta: float, ck: np.ndarray, cl: np.ndarray) -> np.ndarray:
    # scale (1 - 2 zeta c_k - 2 zeta c_l) on the cosine grid ck x cl: q_kl at kappa
    return scale * (1.0 - 2.0 * zeta * ck[:, None] - 2.0 * zeta * cl[None, :])


def _cosines(n: int, boundary: str) -> np.ndarray:
    """cos(theta_k) of the 1-D eigenfrequencies: DFT on a torus, DST-I with
    free boundaries."""
    if boundary == "free":
        return np.cos(np.pi * np.arange(1, n + 1) / (n + 1))
    return np.cos(torus_grid(n))


def torus_eigenvalues(params: SfcarParams, n: int) -> np.ndarray:
    """Precision eigenvalues q_kl of the torus-wrapped field, shape (n, n).

    All positive for zeta < 1/4; the signal covariance eigenvalues are
    their reciprocals.
    """
    _check_side(n)
    c = _cosines(n, "torus")
    q = _eigenvalues(params.kappa, params.zeta, c, c)
    if not np.all(q > 0.0):
        raise AssertionError("torus precision eigenvalues must be positive")
    return q


def _bin_snrs(params: SfcarParams, noise: NoiseModel, ck: np.ndarray, cl: np.ndarray):
    # s_kl = 1/((kappa sigma^2)(1 - 2 zeta c_k - 2 zeta c_l)): kappa sigma^2 =
    # 2 K(4 zeta)/(pi SNR) is finite even where kappa alone is extreme.  A product
    # that leaves the finite doubles raises, and the error names the inputs
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        try:
            return 1.0 / _eigenvalues(np.float64(params.kappa) * noise.sigma2, params.zeta, ck, cl)
        except FloatingPointError as exc:
            raise ValueError(f"bin SNR 1/(q sigma^2) out of range ({exc}) at kappa = "
                             f"{params.kappa!r}, zeta = {params.zeta!r}, "
                             f"sigma^2 = {noise.sigma2!r}") from None


def finite_lattice_rates(params: SfcarParams, noise: NoiseModel,
                         lattice: LatticeSpec) -> RateResult:
    """Exact per-node KLI and MI on the finite lattice.

    Sums the spectral integrands over the closed-form precision
    eigenvalues of either boundary (no approximation).  On the torus theta_k
    and theta_{n-k} share a cosine, so each axis runs over its n//2 + 1
    distinct cosines weighted by multiplicity: a quarter of the eigenvalues
    for the same sum.  The result's quadrature_points field carries the
    lattice side.
    """
    n = lattice.n
    c = _cosines(n, lattice.boundary)
    mult = _mirror_weights(n) if lattice.boundary == "torus" else np.ones(n)
    c = c[: mult.size]
    # in row blocks, whose temporaries stay small: n^2-sized ones would
    # raise the peak memory of the process
    kli, mi = _weighted_grid_means(
        (mult,), (mult,), lambda rows: _integrands(_bin_snrs(params, noise, c[rows], c)))
    return RateResult(kli, mi, n, True)


def sample_llr_per_node(params: SfcarParams, noise: NoiseModel, n: int,
                        mc: MonteCarloSpec):
    """Monte Carlo mean and standard error of the per-node LLR under noise.

    Draws Y ~ N(0, sigma^2 I), transforms with the unitary 2-D DFT, and
    accumulates the exact per-bin log-likelihood ratio between the
    noise-only and signal-plus-noise torus models:

        llr_bin = 0.5 log(1+s_kl) - 0.5 |Yhat_kl|^2 s_kl / (sigma^2 (1+s_kl)),

    s_kl = 1/(q_kl sigma^2), with Y = sigma Z drawn as Z.  Z is real, so its
    spectrum is Hermitian, and s_kl is even: the sum runs over the real-input
    FFT's columns l = 0..n//2, weighted like the torus cosines.  The replicate
    mean converges almost surely to the finite-lattice KLI.  Every replicate
    draws its n x n standard normals in turn from one Philox stream seeded
    with mc.seed, so the result is bit-identical for a given seed and numpy
    version.  Requires replicates >= 2 for a standard error.
    """
    if mc.replicates < 2:
        raise ValueError("at least 2 replicates are needed for a standard error")
    _check_side(n)
    c = _cosines(n, "torus")
    col = _mirror_weights(n)
    s = _bin_snrs(params, noise, c, c[: col.size])
    log_term = float(np.sum(0.5 * np.log1p(s) @ col))
    weight = 0.5 * s / (1.0 + s) * col
    norm = float(n * n)
    gen = np.random.Generator(np.random.Philox(mc.seed))
    values = np.empty(mc.replicates)
    for r in range(mc.replicates):
        spectrum = np.fft.rfft2(gen.standard_normal((n, n)), norm="ortho")
        power = spectrum.real**2 + spectrum.imag**2
        values[r] = (log_term - float(np.sum(weight * power))) / norm
    mean = float(np.mean(values))
    stderr = float(np.std(values, ddof=1) / math.sqrt(mc.replicates))
    return mean, stderr

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
integral.  A Monte Carlo log-likelihood-ratio simulation under the
noise-only hypothesis verifies the almost-sure limit the KLI rate is
defined by.
"""

import math
from dataclasses import dataclass

import numpy as np

from .car import NoiseModel, SfcarParams
from .rates import RateResult, kli_integrand

#: Elements per block of the eigenvalue sums.
_BLOCK_ELEMS = 1 << 15


@dataclass(frozen=True)
class LatticeSpec:
    """Lattice side and boundary handling ('torus' or 'free')."""

    n: int
    boundary: str = "torus"

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("lattice side must be >= 2")
        if self.boundary not in ("torus", "free"):
            raise ValueError("boundary must be 'torus' or 'free'")


@dataclass(frozen=True)
class MonteCarloSpec:
    """Replicate count and 64-bit seed for the LLR simulation."""

    replicates: int
    seed: int

    def __post_init__(self):
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")


def _eigenvalues(params: SfcarParams, ck: np.ndarray, cl: np.ndarray) -> np.ndarray:
    # q_kl on the grid of 1-D eigenfrequency cosines ck x cl
    return params.kappa * (1.0 - 2.0 * params.zeta * ck[:, None] - 2.0 * params.zeta * cl[None, :])


def _cosines(n: int, boundary: str) -> np.ndarray:
    """cos(theta_k) of the 1-D eigenfrequencies: DFT on a torus, DST-I with
    free boundaries."""
    if boundary == "free":
        return np.cos(np.pi * np.arange(1, n + 1) / (n + 1))
    return np.cos(2.0 * np.pi * np.arange(n) / n)


def torus_eigenvalues(params: SfcarParams, n: int) -> np.ndarray:
    """Precision eigenvalues q_kl of the torus-wrapped field, shape (n, n).

    All positive for zeta < 1/4; the signal covariance eigenvalues are
    their reciprocals.
    """
    if n < 2:
        raise ValueError("lattice side must be >= 2")
    c = _cosines(n, "torus")
    q = _eigenvalues(params, c, c)
    if not np.all(q > 0.0):
        raise AssertionError("torus precision eigenvalues must be positive")
    return q


def finite_lattice_rates(params: SfcarParams, noise: NoiseModel,
                         lattice: LatticeSpec) -> RateResult:
    """Exact per-node KLI and MI on the finite lattice.

    Sums the spectral integrands over the closed-form precision
    eigenvalues of either boundary (no approximation).  The result's
    quadrature_points field carries the lattice side.
    """
    n = lattice.n
    c = _cosines(n, lattice.boundary)
    # summed over blocks of rows, whose temporaries stay small: n^2-sized
    # ones would raise the peak memory of the process
    rows = max(1, _BLOCK_ELEMS // n)
    kli = mi = 0.0
    for lo in range(0, n, rows):
        s = 1.0 / (_eigenvalues(params, c[lo : lo + rows], c) * noise.sigma2)
        kli += float(np.sum(kli_integrand(s)))
        mi += float(np.sum(0.5 * np.log1p(s)))
    return RateResult(kli / (n * n), mi / (n * n), n, True)


def sample_llr_per_node(params: SfcarParams, noise: NoiseModel, n: int,
                        mc: MonteCarloSpec):
    """Monte Carlo mean and standard error of the per-node LLR under noise.

    Draws Y ~ N(0, sigma^2 I), transforms with the unitary 2-D DFT, and
    accumulates the exact per-bin log-likelihood ratio between the
    noise-only and signal-plus-noise torus models:

        llr_bin = 0.5 log(1+s_kl) - 0.5 |Yhat_kl|^2 s_kl / (sigma^2 (1+s_kl)),

    s_kl = 1/(q_kl sigma^2).  The replicate mean converges almost surely
    to the finite-lattice KLI.  Every replicate draws its n x n standard
    normals in turn from one Philox stream seeded with mc.seed, so the
    result is bit-identical for a given seed and numpy version.  Requires
    replicates >= 2 for a standard error.
    """
    if mc.replicates < 2:
        raise ValueError("at least 2 replicates are needed for a standard error")
    s2 = noise.sigma2
    q = torus_eigenvalues(params, n)
    s = 1.0 / (q * s2)
    log_term = float(np.sum(0.5 * np.log1p(s)))
    weight = 0.5 * s / (s2 * (1.0 + s))
    norm = float(n * n)
    gen = np.random.Generator(np.random.Philox(mc.seed))
    values = np.empty(mc.replicates)
    for r in range(mc.replicates):
        y = math.sqrt(s2) * gen.standard_normal((n, n))
        power = np.abs(np.fft.fft2(y, norm="ortho")) ** 2
        values[r] = (log_term - float(np.sum(weight * power))) / norm
    mean = float(np.mean(values))
    stderr = float(np.std(values, ddof=1) / math.sqrt(mc.replicates))
    return mean, stderr

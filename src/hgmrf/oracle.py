"""Exact finite-lattice ground truth for the asymptotic rate formulas.

On an n-by-n lattice wrapped on a torus, the symmetric first-order
precision matrix is block circulant and its eigenvalues are known in
closed form:

    q_kl = kappa (1 - 2 zeta cos(2 pi k/n) - 2 zeta cos(2 pi l/n)),

so per-node KLI and MI at finite n are exact sums over (k, l) -- a
rectangle rule whose n -> infinity limit is the spectral integral.  A
dense free-boundary mode (taps truncated at the edge) cross-checks
boundary effects, and a Monte Carlo log-likelihood-ratio simulation under
the noise-only hypothesis verifies the almost-sure limit the KLI rate is
defined by.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.special

from .car import NoiseModel, SfcarParams
from .rates import RateResult, kli_integrand

#: Elements per block of the torus sums.
_TORUS_BLOCK_ELEMS = 1 << 15

#: Free-boundary mode builds dense n^2 x n^2 matrices; keep it desk-sized.
FREE_BOUNDARY_MAX_SIDE = 64


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
        if self.boundary == "free" and self.n > FREE_BOUNDARY_MAX_SIDE:
            raise ValueError(
                f"free-boundary mode is dense; n must be <= {FREE_BOUNDARY_MAX_SIDE}"
            )


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


def torus_eigenvalues(params: SfcarParams, n: int) -> np.ndarray:
    """Precision eigenvalues q_kl of the torus-wrapped field, shape (n, n).

    All positive for zeta < 1/4; the signal covariance eigenvalues are
    their reciprocals.
    """
    if n < 2:
        raise ValueError("lattice side must be >= 2")
    c = np.cos(2.0 * np.pi * np.arange(n) / n)
    q = params.kappa * (1.0 - 2.0 * params.zeta * c[:, None] - 2.0 * params.zeta * c[None, :])
    if not np.all(q > 0.0):
        raise AssertionError("torus precision eigenvalues must be positive")
    return q


def _free_precision(params: SfcarParams, n: int) -> np.ndarray:
    """Dense free-boundary precision: neighbor taps dropped outside the grid."""
    lam = params.lambda_
    size = n * n
    q = np.zeros((size, size))
    np.fill_diagonal(q, params.kappa)
    idx = np.arange(size).reshape(n, n)
    horiz = (idx[:, :-1].ravel(), idx[:, 1:].ravel())
    vert = (idx[:-1, :].ravel(), idx[1:, :].ravel())
    for a, b in (horiz, vert):
        q[a, b] = -lam
        q[b, a] = -lam
    return q


def _free_rates(params: SfcarParams, noise: NoiseModel, n: int) -> RateResult:
    # Per-node rates from the dense model via symmetric factorizations:
    #   MI  = (1/2n^2) [logdet(Q + I/sigma^2) - logdet(Q)]
    #   KLI = (1/2n^2) [logdet(I + sigma^2 Q) - tr((I + sigma^2 Q)^{-1})
    #                   - n^2 log(sigma^2) - logdet(Q)]
    # both identical to summing the spectral integrands over Q's spectrum.
    s2 = noise.sigma2
    q = _free_precision(params, n)
    size = n * n
    chol_q = scipy.linalg.cho_factor(q, lower=True)
    logdet_q = 2.0 * float(np.sum(np.log(np.diag(chol_q[0]))))
    a = np.eye(size) + s2 * q
    chol_a = scipy.linalg.cho_factor(a, lower=True)
    logdet_a = 2.0 * float(np.sum(np.log(np.diag(chol_a[0]))))
    trace_inv_a = float(np.trace(scipy.linalg.cho_solve(chol_a, np.eye(size))))
    norm = float(size)
    mi = 0.5 * (logdet_a - size * math.log(s2) - logdet_q) / norm
    kli = 0.5 * (logdet_a - trace_inv_a - size * math.log(s2) - logdet_q) / norm
    # logdet(Q + I/s2) = logdet(I + s2 Q) - n^2 log(s2): same factorization
    # serves both measures.
    return RateResult(kli, mi, n, True)


def finite_lattice_rates(params: SfcarParams, noise: NoiseModel,
                         lattice: LatticeSpec) -> RateResult:
    """Exact per-node KLI and MI on the finite lattice.

    Torus mode sums the closed-form eigenvalue grid (no approximation);
    free mode factorizes the dense truncated precision.  The result's
    quadrature_points field carries the lattice side.
    """
    if lattice.boundary == "free":
        return _free_rates(params, noise, lattice.n)
    n = lattice.n
    s = 1.0 / (torus_eigenvalues(params, n) * noise.sigma2)
    # summed over blocks of rows, whose temporaries stay small: n^2-sized
    # ones would raise the peak memory of the process
    rows = max(1, _TORUS_BLOCK_ELEMS // n)
    kli = mi = 0.0
    for block in (s[lo : lo + rows] for lo in range(0, n, rows)):
        kli += float(np.sum(kli_integrand(block)))
        mi += float(np.sum(0.5 * np.log1p(block)))
    return RateResult(kli / (n * n), mi / (n * n), n, True)


def _replicate_normals(seed: int, replicate: int, n: int) -> np.ndarray:
    # Substream per replicate: SeedSequence(seed, spawn_key=(r,)) -> Philox,
    # then inverse-CDF normals from open-interval uniforms
    # u = (k + 1/2) * 2^-53, k uniform on [0, 2^53).  Fully deterministic
    # for a given (seed, replicate), serial or parallel.
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(replicate,))
    gen = np.random.Generator(np.random.Philox(ss))
    u = (gen.integers(0, 1 << 53, size=(n, n)).astype(np.float64) + 0.5) * 2.0**-53
    return scipy.special.ndtri(u)


def sample_llr_per_node(params: SfcarParams, noise: NoiseModel, n: int,
                        mc: MonteCarloSpec):
    """Monte Carlo mean and standard error of the per-node LLR under noise.

    Draws Y ~ N(0, sigma^2 I), transforms with the unitary 2-D DFT, and
    accumulates the exact per-bin log-likelihood ratio between the
    noise-only and signal-plus-noise torus models:

        llr_bin = 0.5 log(1+s_kl) - 0.5 |Yhat_kl|^2 s_kl / (sigma^2 (1+s_kl)),

    s_kl = 1/(q_kl sigma^2).  The replicate mean converges almost surely
    to the finite-lattice KLI.  Requires replicates >= 2 for a standard
    error.
    """
    if mc.replicates < 2:
        raise ValueError("at least 2 replicates are needed for a standard error")
    s2 = noise.sigma2
    q = torus_eigenvalues(params, n)
    s = 1.0 / (q * s2)
    log_term = float(np.sum(0.5 * np.log1p(s)))
    weight = 0.5 * s / (s2 * (1.0 + s))
    norm = float(n * n)
    values = np.empty(mc.replicates)
    for r in range(mc.replicates):
        y = math.sqrt(s2) * _replicate_normals(mc.seed, r, n)
        power = np.abs(np.fft.fft2(y, norm="ortho")) ** 2
        values[r] = (log_term - float(np.sum(weight * power))) / norm
    mean = float(np.mean(values))
    stderr = float(np.std(values, ddof=1) / math.sqrt(mc.replicates))
    return mean, stderr

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
integral on the grid of ``_kernels_py.car_grid_sums`` -- taken by
``_kernels_py._folded_grid_means``, which serves the oracle alone:
s_kl = s_lk, so it runs over the triangle k <= l.  A Monte Carlo
log-likelihood-ratio simulation under the noise-only hypothesis
verifies the almost-sure limit the KLI rate is defined by.  It draws the
periodogram of the torus's white noise from its law, chi^2_1 on the
self-conjugate bins and one Exp(1) per conjugate pair: n^2/2 + 2 gamma
draws per replicate for even n, (n^2 + 1)/2 for odd n, and no transform.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import _kernels_py
from ._kernels_py import _folded_grid_means, _integrands, _mirror_weights, torus_grid
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


def _axis_terms(scale: float, zeta: float, n: int, boundary: str) -> np.ndarray:
    """a_k = scale (1/2 - 2 zeta cos(theta_k)) on the 1-D eigenfrequencies,
    DFT on a torus, DST-I with free boundaries: the eigenvalue
    scale (1 - 2 zeta cos(theta_k) - 2 zeta cos(theta_l)) is a_k + a_l."""
    theta = np.pi * np.arange(1, n + 1) / (n + 1) if boundary == "free" else torus_grid(n)
    return scale * (0.5 - 2.0 * zeta * np.cos(theta))


def torus_eigenvalues(params: SfcarParams, n: int) -> np.ndarray:
    """Precision eigenvalues q_kl of the torus-wrapped field, shape (n, n).

    All positive for zeta < 1/4; the signal covariance eigenvalues are
    their reciprocals.  Raises ValueError where kappa is so small that an
    eigenvalue rounds to 0, or so large that one overflows.
    """
    _check_side(n)
    a = _axis_terms(params.kappa, params.zeta, n, "torus")
    # rounded addition is monotone, so every a_k + a_l lies in [2 min a, 2 max a]
    if not (0.0 < 2.0 * float(a.min()) and 2.0 * float(a.max()) < math.inf):
        raise ValueError(f"torus precision eigenvalues out of range at kappa = "
                         f"{params.kappa!r}, zeta = {params.zeta!r}, n = {n!r}")
    return np.add.outer(a, a)


def _bin_snr_terms(params: SfcarParams, noise: NoiseModel, n: int, boundary: str) -> np.ndarray:
    # the terms a_k of the bin SNRs s_kl = 1/(a_k + a_l) at kappa sigma^2 =
    # 2 K(4 zeta)/(pi SNR), finite even where kappa alone is extreme.  Rounding
    # is monotone, so each a_k + a_l is in [2 min a, 2 max a]: a bin leaves the
    # finite doubles only if a bound or 1/(2 min a) does, and the error names the inputs
    a = _axis_terms(params.kappa * noise.sigma2, params.zeta, n, boundary)
    lo, hi = 2.0 * float(a.min()), 2.0 * float(a.max())
    if not (0.0 < lo and hi < math.inf and 1.0 / lo < math.inf):
        raise ValueError(f"bin SNR 1/(q sigma^2) out of range at kappa = {params.kappa!r}, "
                         f"zeta = {params.zeta!r}, sigma^2 = {noise.sigma2!r}")
    return a


def finite_lattice_rates(params: SfcarParams, noise: NoiseModel,
                         lattice: LatticeSpec) -> RateResult:
    """Per-node KLI and MI on the finite lattice.

    Sums the kernels' cancellation-free integrands over the bin SNRs
    s_kl = 1/(a_k + a_l), a_k = kappa sigma^2 (1/2 - 2 zeta cos(theta_k)), of
    either boundary's closed-form eigenvalues.  On the torus theta_k and
    theta_{n-k} share a cosine, so each axis runs over its n//2 + 1 distinct
    cosines weighted by multiplicity; both axes share the terms a, so
    s_kl = s_lk and the sum runs over the triangle k <= l of that grid.  The
    result's quadrature_points field carries the lattice side.
    """
    n = lattice.n
    mult = _mirror_weights(n) if lattice.boundary == "torus" else np.ones(n)
    a = _bin_snr_terms(params, noise, n, lattice.boundary)[: mult.size]
    # in row blocks, whose temporaries stay small: n^2-sized ones would
    # raise the peak memory of the process
    kli, mi = _folded_grid_means(
        mult, lambda rows, cols: _integrands(1.0 / np.add.outer(a[rows], a[cols])))
    return RateResult(kli, mi, n, True)


def sample_llr_per_node(params: SfcarParams, noise: NoiseModel, n: int,
                        mc: MonteCarloSpec):
    """Monte Carlo mean and standard error of the per-node LLR under noise.

    The exact log-likelihood ratio between the noise-only and
    signal-plus-noise torus models of Y ~ N(0, sigma^2 I) is, per node,
    sum_kl (0.5 log1p(s_kl) - g_kl P_kl)/n^2, with g = 0.5 s/(1+s),
    s_kl = 1/(q_kl sigma^2) = 1/(a_k + a_l) as in ``finite_lattice_rates`` and
    P_kl the periodogram of Y/sigma under the unitary 2-D DFT.  That is the
    periodogram of real white noise, whose law
    is known: a self-conjugate bin (k, l in {0, n/2}; for odd n only (0, 0))
    has P = chi^2_1 = 2 Gamma(1/2), and the two bins of a conjugate pair
    share one P = Exp(1) = Gamma(1), all independent.  s_kl is even in k
    and l, so the bins fold onto the quarter grid of ``_mirror_weights``,
    and a replicate is

        (0.5 sum_cells m log1p(s) - sum_slots s/(1+s) G_slot)/n^2,

    a cell of multiplicity m holding m/2 pairs, or one self-conjugate bin
    if m = 1: n^2/2 + 2 gamma draws for even n, (n^2 + 1)/2 for odd n, and
    no transform.  The replicate mean converges almost surely to the
    finite-lattice KLI.  The replicates draw in turn from one Philox stream
    seeded with mc.seed, so the result is bit-identical for a given seed
    and numpy version.  Each block of replicates (at most _BLOCK_ELEMS = 8192
    draws, or one replicate) is one call, which reads each replicate's draws
    in a row, and each replicate is reduced by itself, so the block size
    changes no bit.  The spread is taken of the values divided by their
    largest magnitude, then scaled back: the values are about SNR/n, and
    their squares leave the normal doubles below SNR ~ 1e-150.  Requires
    replicates >= 2 for a standard error.
    """
    if mc.replicates < 2:
        raise ValueError("at least 2 replicates are needed for a standard error")
    _check_side(n)
    mult = np.multiply.outer(_mirror_weights(n), _mirror_weights(n)).ravel()
    # the slots, cell by cell: the gamma shape and the cell of each
    cells = np.repeat(np.arange(mult.size), np.maximum(mult // 2, 1).astype(np.intp))
    shapes = np.where(mult[cells] == 1.0, 0.5, 1.0)
    a = _bin_snr_terms(params, noise, n, "torus")[: n // 2 + 1]
    s = 1.0 / np.add.outer(a, a).ravel()
    log_term = float(0.5 * np.sum(mult * np.log1p(s)))
    weight = (s / (1.0 + s))[cells]
    norm = float(n * n)
    gen = np.random.Generator(np.random.Philox(mc.seed))
    values = np.empty(mc.replicates)
    step = max(1, _kernels_py._BLOCK_ELEMS // shapes.size)
    for lo in range(0, mc.replicates, step):
        block = min(step, mc.replicates - lo)
        draws = gen.standard_gamma(shapes, size=(block, shapes.size))
        draws *= weight
        values[lo:lo + block] = (log_term - np.sum(draws, axis=1)) / norm
    mean = float(np.mean(values))
    scale = float(np.max(np.abs(values)))
    return mean, float(np.std(values / scale, ddof=1)) * scale / math.sqrt(mc.replicates)

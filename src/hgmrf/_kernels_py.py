"""Numpy quadrature kernels: the hot grid sums of every rate.

Grid means of the per-frequency divergence and half-log integrands.
Evaluation is blocked over rows to bound memory; block sums are reduced
with ``np.sum`` in a fixed order, so repeated calls are bit-identical.
"""

import numpy as np

from .specfun import midpoint_grid

# Rows per block are chosen so a block never exceeds ~32M doubles.
_BLOCK_ELEMS = 1 << 25


def _grid(n: int, midpoint: bool) -> np.ndarray:
    if midpoint:
        return midpoint_grid(n)
    return 2.0 * np.pi * np.arange(n, dtype=np.float64) / n


def _block_rows(n: int) -> int:
    return max(1, min(n, _BLOCK_ELEMS // max(n, 1)))


def sfcar_grid_sums(scale: float, zeta: float, n: int, midpoint: bool):
    """Means of (0.5*log1p(s) - 0.5*s/(1+s), 0.5*log1p(s)) with
    s = scale/(1 - 2*zeta*cos(w1) - 2*zeta*cos(w2)) over an n-by-n grid."""
    if n < 1:
        raise ValueError("grid side must be >= 1")
    cw = np.cos(_grid(n, midpoint))
    rows = _block_rows(n)
    kli_parts = []
    mi_parts = []
    for lo in range(0, n, rows):
        row1 = 1.0 - 2.0 * zeta * cw[lo : lo + rows]
        den = row1[:, None] - 2.0 * zeta * cw[None, :]
        s = scale / den
        halflog = 0.5 * np.log1p(s)
        mi_parts.append(np.sum(halflog))
        kli_parts.append(np.sum(halflog - 0.5 * s / (1.0 + s)))
    norm = float(n) * float(n)
    return float(np.sum(kli_parts)) / norm, float(np.sum(mi_parts)) / norm


def car_grid_sums(theta: np.ndarray, oi: np.ndarray, oj: np.ndarray, sigma2: float, n: int):
    """Midpoint-grid means for den(w) = sum_t theta[t]*cos(oi[t]*w1 + oj[t]*w2),
    s = 1/(sigma2*den).  Returns (kli_mean, mi_mean, min_den)."""
    if n < 1:
        raise ValueError("grid side must be >= 1")
    theta = np.asarray(theta, dtype=np.float64)
    oi = np.asarray(oi)
    oj = np.asarray(oj)
    if oi.shape != theta.shape or oj.shape != theta.shape:
        raise ValueError("tap arrays must have equal length")
    w = _grid(n, True)
    rows = max(1, min(n, _BLOCK_ELEMS // (max(n, 1) * max(len(theta), 1))))
    kli_parts = []
    mi_parts = []
    min_den = np.inf
    for lo in range(0, n, rows):
        phase = (
            oi[None, None, :] * w[lo : lo + rows, None, None]
            + oj[None, None, :] * w[None, :, None]
        )
        den = np.einsum("t,ijt->ij", theta, np.cos(phase))
        min_den = min(min_den, float(den.min()))
        pos = den > 0.0
        s = np.where(pos, 1.0 / (sigma2 * np.where(pos, den, 1.0)), 0.0)
        halflog = 0.5 * np.log1p(s)
        mi_parts.append(np.sum(halflog[pos]))
        kli_parts.append(np.sum((halflog - 0.5 * s / (1.0 + s))[pos]))
    norm = float(n) * float(n)
    return float(np.sum(kli_parts)) / norm, float(np.sum(mi_parts)) / norm, min_den

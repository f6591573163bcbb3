import numpy as np
import pytest

from hgmrf import _kernels_py
from hgmrf.specfun import midpoint_grid


def random_symmetric_taps(rng):
    """Random taps theta(i, j) = theta(-i, -j) with offsets up to +-3."""
    half = [(i, j) for i in range(4) for j in range(-3, 4) if i > 0 or j >= 0]
    picked = rng.choice(len(half), size=rng.integers(1, len(half) + 1), replace=False)
    taps = {}
    for k in picked:
        i, j = half[k]
        taps[(i, j)] = taps[(-i, -j)] = rng.normal()
    oi, oj = (np.array(o) for o in zip(*taps))
    return np.array(list(taps.values())), oi, oj


def positive_symmetric_taps(rng):
    """Random symmetric taps plus a centre tap above the sum of the others,
    which keeps the symbol positive."""
    theta, oi, oj = random_symmetric_taps(rng)
    return np.append(theta, 2.0 * np.sum(np.abs(theta))), np.append(oi, 0), np.append(oj, 0)


def direct_symbol(theta, oi, oj, w1, w2):
    """sum_t theta[t] cos(oi[t] w1 + oj[t] w2), one cosine per tap and cell."""
    phase = oi * w1[:, None, None] + oj * w2[None, :, None]
    return np.sum(theta * np.cos(phase), axis=-1)


def direct_grid_sums(theta, oi, oj, sigma2, n):
    """(kli_mean, mi_mean, min_den) over every cell of the n x n midpoint grid."""
    w = midpoint_grid(n)
    den = direct_symbol(theta, oi, oj, w, w)
    s = 1.0 / (sigma2 * den)
    halflog = 0.5 * np.log1p(s)
    return np.mean(halflog - 0.5 * s / (1.0 + s)), np.mean(halflog), den.min()


def test_python_kernel_deterministic():
    a = _kernels_py.sfcar_grid_sums(2.0, 0.08, 511)
    b = _kernels_py.sfcar_grid_sums(2.0, 0.08, 511)
    assert a == b


@pytest.mark.parametrize("n, block", [(300, 4096), (301, 4096), (301, 100)])
def test_python_kernel_blocking_invariant(monkeypatch, n, block):
    # block size must not affect the reduction beyond roundoff, also where a
    # block is smaller than one row and holds one row
    theta = np.array([1.0, -0.2, -0.2, -0.2, -0.2])
    oi = np.array([0, 1, -1, 0, 0])
    oj = np.array([0, 0, 0, 1, -1])
    full = _kernels_py.car_grid_sums(theta, oi, oj, 0.5, n)
    monkeypatch.setattr(_kernels_py, "_BLOCK_ELEMS", block)
    blocked = _kernels_py.car_grid_sums(theta, oi, oj, 0.5, n)
    assert blocked[0] == pytest.approx(full[0], rel=1e-14)
    assert blocked[1] == pytest.approx(full[1], rel=1e-14)
    assert blocked[2] == pytest.approx(full[2], rel=1e-14)


@pytest.mark.parametrize("n", [8, 9, 255, 256, 301])
@pytest.mark.parametrize("seed", range(4))
def test_folded_grid_matches_full_grid(seed, n):
    # the sum over half the rows, weighted for their mirrors, against every
    # cell summed directly
    theta, oi, oj = positive_symmetric_taps(np.random.default_rng(seed))
    got = _kernels_py.car_grid_sums(theta, oi, oj, 0.5, n)
    want = direct_grid_sums(theta, oi, oj, 0.5, n)
    assert got[0] == pytest.approx(want[0], rel=1e-14, abs=0)
    assert got[1] == pytest.approx(want[1], rel=1e-14, abs=0)
    assert got[2] == pytest.approx(want[2], rel=1e-14, abs=0)


@pytest.mark.parametrize("seed", range(8))
def test_separable_symbol_matches_direct_cosine_sum(seed):
    rng = np.random.default_rng(seed)
    theta, oi, oj = random_symmetric_taps(rng)
    w = midpoint_grid(97)
    got = _kernels_py.car_symbol(theta, oi, oj, w, w)
    want = direct_symbol(theta, oi, oj, w, w)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.sum(np.abs(theta))


def test_car_kernel_deterministic():
    theta, oi, oj = positive_symmetric_taps(np.random.default_rng(3))
    a = _kernels_py.car_grid_sums(theta, oi, oj, 0.5, 300)
    b = _kernels_py.car_grid_sums(theta, oi, oj, 0.5, 300)
    assert a == b

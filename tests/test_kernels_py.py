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


def direct_symbol(theta, oi, oj, w1, w2):
    """sum_t theta[t] cos(oi[t] w1 + oj[t] w2), one cosine per tap and cell."""
    phase = oi * w1[:, None, None] + oj * w2[None, :, None]
    return np.sum(theta * np.cos(phase), axis=-1)


def test_python_kernel_deterministic():
    a = _kernels_py.sfcar_grid_sums(2.0, 0.08, 511)
    b = _kernels_py.sfcar_grid_sums(2.0, 0.08, 511)
    assert a == b


def test_python_kernel_blocking_invariant(monkeypatch):
    # block size must not affect the reduction beyond roundoff
    theta = np.array([1.0, -0.2, -0.2, -0.2, -0.2])
    oi = np.array([0, 1, -1, 0, 0])
    oj = np.array([0, 0, 0, 1, -1])
    full = _kernels_py.car_grid_sums(theta, oi, oj, 0.5, 300)
    monkeypatch.setattr(_kernels_py, "_BLOCK_ELEMS", 4096)
    blocked = _kernels_py.car_grid_sums(theta, oi, oj, 0.5, 300)
    assert blocked[0] == pytest.approx(full[0], rel=1e-14)
    assert blocked[1] == pytest.approx(full[1], rel=1e-14)


@pytest.mark.parametrize("seed", range(8))
def test_separable_symbol_matches_direct_cosine_sum(seed):
    rng = np.random.default_rng(seed)
    theta, oi, oj = random_symmetric_taps(rng)
    w = midpoint_grid(97)
    got = _kernels_py.car_symbol(theta, oi, oj, w, w)
    want = direct_symbol(theta, oi, oj, w, w)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.sum(np.abs(theta))


def test_car_kernel_deterministic():
    theta, oi, oj = random_symmetric_taps(np.random.default_rng(3))
    # an extra centre tap above the sum of the others keeps the symbol positive
    theta = np.append(theta, 2.0 * np.sum(np.abs(theta)))
    oi, oj = np.append(oi, 0), np.append(oj, 0)
    a = _kernels_py.car_grid_sums(theta, oi, oj, 0.5, 300)
    b = _kernels_py.car_grid_sums(theta, oi, oj, 0.5, 300)
    assert a == b

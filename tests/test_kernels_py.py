import numpy as np
import pytest

from hgmrf import _kernels_py


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

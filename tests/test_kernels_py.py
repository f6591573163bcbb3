import pytest

from hgmrf import _kernels_py


def test_python_kernel_deterministic():
    a = _kernels_py.sfcar_grid_sums(2.0, 0.23, 511, True)
    b = _kernels_py.sfcar_grid_sums(2.0, 0.23, 511, True)
    assert a == b


def test_python_kernel_blocking_invariant(monkeypatch):
    # block size must not affect the reduction beyond roundoff
    full = _kernels_py.sfcar_grid_sums(3.0, 0.1, 300, True)
    monkeypatch.setattr(_kernels_py, "_BLOCK_ELEMS", 4096)
    blocked = _kernels_py.sfcar_grid_sums(3.0, 0.1, 300, True)
    assert blocked[0] == pytest.approx(full[0], rel=1e-14)
    assert blocked[1] == pytest.approx(full[1], rel=1e-14)

import numpy as np
import pytest

from hgmrf import _kernels_py
from hgmrf.car import NoiseModel, sfcar_from_snr
from hgmrf.oracle import LatticeSpec, finite_lattice_rates


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
    """(kli_mean, mi_mean, min_den) over every cell of the n x n torus grid."""
    w = 2.0 * np.pi * np.arange(n) / n
    den = direct_symbol(theta, oi, oj, w, w)
    s = 1.0 / (sigma2 * den)
    halflog = 0.5 * np.log1p(s)
    return np.mean(halflog - 0.5 * s / (1.0 + s)), np.mean(halflog), den.min()


def test_python_kernel_deterministic():
    a = _kernels_py.sfcar_grid_sums(2.0, 0.08, 511)
    b = _kernels_py.sfcar_grid_sums(2.0, 0.08, 511)
    assert a == b


@pytest.mark.parametrize("n", [1, 7, 256, 2048])
def test_sfcar_row_does_not_depend_on_the_batch(monkeypatch, n):
    # each row is reduced by itself: the same bits alone, in any order and
    # across row blocks of any size
    rng = np.random.default_rng(n)
    c = np.concatenate([10.0 ** rng.uniform(-20, 6, 9), [1e-300, 4e307]])
    delta = np.concatenate([rng.uniform(0, 1, 6), 10.0 ** rng.uniform(-300, -1, 4), [0.0]])
    # (kli, mi) by the rule and by its embedded rule, four floats a row
    alone = [_kernels_py.sfcar_grid_sums(ci, di, n) for ci, di in zip(c, delta)]
    assert all(len(means) == 4 and all(isinstance(v, float) for v in means) for means in alone)
    order = rng.permutation(len(c))
    for block in (1, 3 * n, _kernels_py._SFCAR_BLOCK_ELEMS):
        monkeypatch.setattr(_kernels_py, "_SFCAR_BLOCK_ELEMS", block)
        means = _kernels_py.sfcar_grid_sums(c[order], delta[order], n)
        assert list(zip(*means)) == [alone[i] for i in order]


@pytest.mark.parametrize("n", [8, 256, 2048])
def test_sfcar_half_means_are_the_half_rule(n):
    # the odd-indexed nodes of the n-node rule are the nodes of the
    # n/2-node rule, so the embedded means are that rule's means, up to the
    # order of the sums (2.0e-15 at c = 1e-300, n = 256)
    rng = np.random.default_rng(n)
    c = np.concatenate([10.0 ** rng.uniform(-20, 6, 9), [1e-300, 4e307]])
    delta = np.concatenate([rng.uniform(0, 1, 6), 10.0 ** rng.uniform(-300, -1, 4), [0.0]])
    _kli, _mi, kli_half, mi_half = _kernels_py.sfcar_grid_sums(c, delta, n)
    kli, mi, _kli_half, _mi_half = _kernels_py.sfcar_grid_sums(c, delta, n // 2)
    assert kli_half == pytest.approx(kli, rel=4e-15, abs=0)
    assert mi_half == pytest.approx(mi, rel=4e-15, abs=0)


def test_sfcar_rows_must_pair_up():
    assert [v.shape for v in _kernels_py.sfcar_grid_sums([], [], 256)] == [(0,)] * 4
    with pytest.raises(ValueError, match="differ in shape"):
        _kernels_py.sfcar_grid_sums([0.5, 2.0], 0.08, 256)


def car_sums(n):
    theta = np.array([1.0, -0.2, -0.2, -0.2, -0.2])
    oi = np.array([0, 1, -1, 0, 0])
    oj = np.array([0, 0, 0, 1, -1])
    return _kernels_py.car_grid_sums(theta, oi, oj, 0.5, n)


def lattice_sums(boundary):
    noise = NoiseModel(sigma2=0.5)
    model = sfcar_from_snr(3.0, 0.2, noise)

    def sums(n):
        res = finite_lattice_rates(model, noise, LatticeSpec(n, boundary))
        return res.kli_rate, res.mi_rate

    return sums


@pytest.mark.parametrize("sums, n, block", [
    pytest.param(car_sums, n, block, id=f"{n}-{block}")
    for n, block in ((300, 4096), (301, 4096), (301, 100))
] + [
    pytest.param(lattice_sums(boundary), n, 100, id=f"{boundary}-{n}-100")
    for boundary in ("torus", "free") for n in (64, 65, 301)
])
def test_python_kernel_blocking_invariant(monkeypatch, sums, n, block):
    # one block size governs the general-CAR kernel and the finite-lattice
    # oracle, and must not affect either reduction beyond roundoff, also
    # where a block is smaller than one row and holds one row
    full = sums(n)
    monkeypatch.setattr(_kernels_py, "_BLOCK_ELEMS", block)
    blocked = sums(n)
    assert blocked == pytest.approx(full, rel=1e-14)


@pytest.mark.parametrize("n", [8, 9, 255, 256, 301])
@pytest.mark.parametrize("seed", range(4))
def test_folded_grid_matches_full_grid(seed, n):
    # the sum over half the rows, weighted for their mirrors, against every
    # cell summed directly
    theta, oi, oj = positive_symmetric_taps(np.random.default_rng(seed))
    kli, mi, _kli_half, _mi_half, min_den = _kernels_py.car_grid_sums(theta, oi, oj, 0.5, n)
    want = direct_grid_sums(theta, oi, oj, 0.5, n)
    assert kli == pytest.approx(want[0], rel=1e-14, abs=0)
    assert mi == pytest.approx(want[1], rel=1e-14, abs=0)
    assert min_den == pytest.approx(want[2], rel=1e-14, abs=0)


@pytest.mark.parametrize("n", [8, 256, 302])
@pytest.mark.parametrize("seed", range(4))
def test_car_half_means_are_the_half_grid(seed, n):
    # the even-indexed rows and columns of the n grid are the n/2 grid, so
    # the embedded means are that grid's means, up to the order of the sums
    theta, oi, oj = positive_symmetric_taps(np.random.default_rng(seed))
    _kli, _mi, kli_half, mi_half, _den = _kernels_py.car_grid_sums(theta, oi, oj, 0.5, n)
    kli, mi, _kli_half, _mi_half, _den = _kernels_py.car_grid_sums(theta, oi, oj, 0.5, n // 2)
    assert kli_half == pytest.approx(kli, rel=4e-15, abs=0)
    assert mi_half == pytest.approx(mi, rel=4e-15, abs=0)


#: (zeta, rho, SNR) rows of the gap kernel: alpha*d = 3 at SNR 10 and 1e-3,
#: alpha*d = 8 at SNR 1e4
GAP_ROWS = ([0.11244433540251597, 0.11244433540251597, 0.0012429440931255667],
            [0.12046929338458255, 0.12046929338458255, 0.0012429536944400092],
            [10.0, 1e-3, 1e4])


@pytest.mark.parametrize("n", [8, 32, 256])
def test_gap_half_means_are_the_half_grid(n):
    # as for the CAR kernel: the embedded means are the n/2 grid's
    _kli, _mi, kli_half, mi_half = _kernels_py.sfcar_gap_sums(*GAP_ROWS, n)
    kli, mi, _kli_half, _mi_half = _kernels_py.sfcar_gap_sums(*GAP_ROWS, n // 2)
    np.testing.assert_allclose(kli_half, kli, rtol=4e-15, atol=0)
    np.testing.assert_allclose(mi_half, mi, rtol=4e-15, atol=0)


def test_gap_row_does_not_depend_on_the_batch():
    batch = np.array(_kernels_py.sfcar_gap_sums(*GAP_ROWS, 32))
    for i in range(3):
        alone = _kernels_py.sfcar_gap_sums(*([col[i]] for col in GAP_ROWS), 32)
        assert [float(v[0]) for v in alone] == batch[:, i].tolist()


@pytest.mark.parametrize("n", [8, 64, 65, 301])
def test_car_grid_is_the_torus_oracle(n):
    # on first-order taps the torus grid is the finite torus's spectrum:
    # two independent evaluations of one finite sum
    noise = NoiseModel(sigma2=0.5)
    params = sfcar_from_snr(3.0, 0.2, noise)
    oi, oj, theta = params.taps().tap_arrays()
    kli, mi, *_rest = _kernels_py.car_grid_sums(theta, oi, oj, noise.sigma2, n)
    exact = finite_lattice_rates(params, noise, LatticeSpec(n))
    assert kli == pytest.approx(exact.kli_rate, rel=1e-14, abs=0)
    assert mi == pytest.approx(exact.mi_rate, rel=1e-14, abs=0)


@pytest.mark.parametrize("seed", range(8))
def test_separable_symbol_matches_direct_cosine_sum(seed):
    rng = np.random.default_rng(seed)
    theta, oi, oj = random_symmetric_taps(rng)
    w = rng.uniform(-np.pi, np.pi, 97)
    got = _kernels_py.car_symbol(theta, oi, oj, w, w)
    want = direct_symbol(theta, oi, oj, w, w)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.sum(np.abs(theta))


def test_car_kernel_deterministic():
    theta, oi, oj = positive_symmetric_taps(np.random.default_rng(3))
    a = _kernels_py.car_grid_sums(theta, oi, oj, 0.5, 300)
    b = _kernels_py.car_grid_sums(theta, oi, oj, 0.5, 300)
    assert a == b

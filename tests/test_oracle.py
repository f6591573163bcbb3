import math

import numpy as np
import pytest

from hgmrf.car import NoiseModel, SfcarParams, sfcar_from_snr
from hgmrf.oracle import (
    LatticeSpec,
    MonteCarloSpec,
    finite_lattice_rates,
    sample_llr_per_node,
    torus_eigenvalues,
)
from hgmrf.physmap import ZETA_MAX
from hgmrf.rates import kli_integrand, sfcar_rates

STEIN_KLI = 0.5 * math.log(2.0) + 0.25 - 0.5
HALF_LOG2 = 0.5 * math.log(2.0)


def dense_free_reference(params: SfcarParams, sigma2: float, n: int):
    """Independent free-boundary oracle: explicit double-loop assembly of
    the precision matrix, then an eigendecomposition."""
    lam = params.lambda_
    q = np.zeros((n * n, n * n))
    for i in range(n):
        for j in range(n):
            row = i * n + j
            q[row, row] = params.kappa
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                ii, jj = i + di, j + dj
                if 0 <= ii < n and 0 <= jj < n:
                    q[row, ii * n + jj] = -lam
    eigvals = np.linalg.eigvalsh(q)
    s = 1.0 / (eigvals * sigma2)
    kli = float(np.mean(kli_integrand(s)))
    mi = float(np.mean(0.5 * np.log1p(s)))
    return kli, mi


class TestTorusEigenvalues:
    def test_iid_is_identity(self):
        q = torus_eigenvalues(SfcarParams(kappa=1.0, zeta=0.0), 5)
        np.testing.assert_allclose(q, np.ones((5, 5)), rtol=0, atol=0)

    def test_two_by_two_values(self):
        q = torus_eigenvalues(SfcarParams(kappa=1.0, zeta=0.2), 2)
        assert sorted(q.ravel()) == pytest.approx([0.2, 1.0, 1.0, 1.8], abs=1e-14)

    def test_minimum_at_origin(self):
        q = torus_eigenvalues(SfcarParams(kappa=1.0, zeta=0.24), 4)
        assert q.min() == pytest.approx(1.0 - 4 * 0.24, abs=1e-14)
        assert q.min() == q[0, 0]

    def test_positive_for_valid_zeta(self):
        q = torus_eigenvalues(SfcarParams(kappa=0.5, zeta=0.2499999), 64)
        assert np.all(q > 0)

    def test_small_lattice_rejected(self):
        with pytest.raises(ValueError):
            torus_eigenvalues(SfcarParams(kappa=1.0, zeta=0.1), 1)


class TestFiniteLatticeRates:
    def test_iid_boundary_independent(self):
        noise = NoiseModel(1.0)
        params = sfcar_from_snr(1.0, 0.0, noise)
        for lattice in (LatticeSpec(16), LatticeSpec(8, "free")):
            res = finite_lattice_rates(params, noise, lattice)
            assert res.kli_rate == pytest.approx(STEIN_KLI, abs=1e-11)
            assert res.mi_rate == pytest.approx(HALF_LOG2, abs=1e-11)

    @pytest.mark.parametrize("n", [2, 3, 7, 64, 65])
    @pytest.mark.parametrize("zeta", [0.0, 0.1, 0.2499])
    def test_torus_matches_unfolded_eigenvalue_sum(self, n, zeta):
        # the sum over distinct cosines, weighted by multiplicity, against
        # all n^2 eigenvalues
        noise = NoiseModel(1.0)
        params = sfcar_from_snr(10.0, zeta, noise)
        c = np.cos(2.0 * np.pi * np.arange(n) / n)
        s = 1.0 / (params.kappa * (1.0 - 2.0 * zeta * c[:, None] - 2.0 * zeta * c[None, :]))
        res = finite_lattice_rates(params, noise, LatticeSpec(n))
        assert res.kli_rate == pytest.approx(np.mean(kli_integrand(s)), rel=1e-14, abs=0)
        assert res.mi_rate == pytest.approx(np.mean(0.5 * np.log1p(s)), rel=1e-14, abs=0)

    @pytest.mark.parametrize("boundary", ["torus", "free"])
    @pytest.mark.parametrize("zeta, snr", [(0.1, 10.0), (0.2, 1e-300)])
    def test_rates_at_fixed_snr_do_not_depend_on_sigma2(self, boundary, zeta, snr):
        # kappa = 2 K(4 zeta)/(pi SNR sigma^2) reaches 1e308 at sigma^2 = 1.1e-8
        # and SNR = 1e-300, where kappa times an eigenvalue factor overflows
        got = []
        for sigma2 in (1.0, 1e-5, 1.1e-8):
            noise = NoiseModel(sigma2)
            res = finite_lattice_rates(sfcar_from_snr(snr, zeta, noise), noise,
                                       LatticeSpec(8, boundary))
            got.append((res.kli_rate, res.mi_rate))
        for kli, mi in got[1:]:
            assert kli == pytest.approx(got[0][0], rel=1e-14, abs=0)
            assert mi == pytest.approx(got[0][1], rel=1e-14, abs=0)

    def test_torus_matches_spectral_integral(self):
        noise = NoiseModel(1.0)
        params = sfcar_from_snr(10.0, 0.1, noise)
        res = finite_lattice_rates(params, noise, LatticeSpec(1024))
        ref = sfcar_rates(0.1, 10.0)
        assert res.kli_rate == pytest.approx(ref.kli_rate, abs=1e-6)
        assert res.mi_rate == pytest.approx(ref.mi_rate, abs=1e-6)

    def test_free_boundary_matches_dense_reference(self):
        params = SfcarParams(kappa=1.0, zeta=0.2)
        noise = NoiseModel(1.0)
        res = finite_lattice_rates(params, noise, LatticeSpec(8, "free"))
        ref_kli, ref_mi = dense_free_reference(params, 1.0, 8)
        assert res.kli_rate == pytest.approx(ref_kli, abs=1e-10)
        assert res.mi_rate == pytest.approx(ref_mi, abs=1e-10)

    @pytest.mark.parametrize("n", [8, 16, 24])
    @pytest.mark.parametrize("zeta", [0.0, 0.1, 0.24])
    @pytest.mark.parametrize("sigma2", [0.1, 1.0, 10.0])
    def test_free_boundary_spectrum_matches_dense_eigenvalues(self, n, zeta, sigma2):
        # the DST-I eigenvalue formula against an explicitly assembled matrix
        params = SfcarParams(kappa=1.0, zeta=zeta)
        res = finite_lattice_rates(params, NoiseModel(sigma2), LatticeSpec(n, "free"))
        ref_kli, ref_mi = dense_free_reference(params, sigma2, n)
        assert res.kli_rate == pytest.approx(ref_kli, rel=1e-12, abs=0)
        assert res.mi_rate == pytest.approx(ref_mi, rel=1e-12, abs=0)

    @pytest.mark.parametrize("zeta", [0.1, 0.2])
    def test_free_boundary_converges_to_integral_like_one_over_n(self, zeta):
        # the truncated taps at the edge cost O(1/n) per node: n (free - limit)
        # settles on a constant
        noise = NoiseModel(1.0)
        params = sfcar_from_snr(10.0, zeta, noise)
        ref = sfcar_rates(zeta, 10.0)
        scaled = []
        for n in (64, 256, 1024):
            res = finite_lattice_rates(params, noise, LatticeSpec(n, "free"))
            scaled.append((n * (res.kli_rate - ref.kli_rate), n * (res.mi_rate - ref.mi_rate)))
        for kli, mi in scaled[:-1]:
            assert kli == pytest.approx(scaled[-1][0], rel=0.05)
            assert mi == pytest.approx(scaled[-1][1], rel=0.05)
        assert scaled[-1][0] < 0.0 and scaled[-1][1] < 0.0

    def test_torus_sum_converges_to_integral(self):
        noise = NoiseModel(1.0)
        for zeta in (0.1, 0.2):
            params = sfcar_from_snr(10.0, zeta, noise)
            ref = sfcar_rates(zeta, 10.0)
            diffs = []
            for n in (16, 32, 64, 128, 256):
                res = finite_lattice_rates(params, noise, LatticeSpec(n))
                diffs.append(abs(res.mi_rate - ref.mi_rate))
            # geometric until the roundoff floor, then stays at the floor
            floor = 1e-13 * ref.mi_rate
            for a, b in zip(diffs, diffs[1:]):
                assert b < a or max(a, b) <= floor

    def test_free_and_torus_boundary_agree_at_scale(self):
        noise = NoiseModel(1.0)
        params = sfcar_from_snr(10.0, 0.1, noise)
        free = finite_lattice_rates(params, noise, LatticeSpec(64, "free"))
        torus = finite_lattice_rates(params, noise, LatticeSpec(64))
        assert abs(free.mi_rate - torus.mi_rate) <= 5e-2

    @pytest.mark.parametrize("kappa, zeta, sigma2", [(1.2e308, 0.2, 1.0), (1e-299, ZETA_MAX, 1.0),
                                                     (1.0, 0.1, 1e-310)])
    def test_bin_snr_out_of_range(self, kappa, zeta, sigma2):
        # kappa sigma^2 (1 + 4 zeta) overflows, or its reciprocal does
        params, noise = SfcarParams(kappa, zeta), NoiseModel(sigma2)
        with pytest.raises(ValueError, match="bin SNR"):
            finite_lattice_rates(params, noise, LatticeSpec(8))
        with pytest.raises(ValueError, match="bin SNR"):
            sample_llr_per_node(params, noise, 8, MonteCarloSpec(2, 1))

    def test_lattice_validation(self):
        with pytest.raises(ValueError):
            LatticeSpec(1)
        with pytest.raises(ValueError):
            LatticeSpec(8, "periodic")


class TestMonteCarloLlr:
    def test_same_seed_bit_identical(self):
        params = sfcar_from_snr(10.0, 0.1)
        noise = NoiseModel(1.0)
        spec = MonteCarloSpec(replicates=50, seed=987654321)
        first = sample_llr_per_node(params, noise, 16, spec)
        second = sample_llr_per_node(params, noise, 16, spec)
        assert first == second

    def test_value_is_pinned(self):
        # the seeded Philox stream and the reduction order fix every bit
        spec = MonteCarloSpec(replicates=50, seed=987654321)
        got = sample_llr_per_node(sfcar_from_snr(10.0, 0.1), NoiseModel(1.0), 16, spec)
        assert got == (0.7435574296504085, 0.005000156321251557)

    @pytest.mark.parametrize("n", [15, 16])
    def test_matches_full_spectrum_replay(self, n):
        # the same Philox stream through the complex 2-D DFT, every bin summed
        noise = NoiseModel(1.0)
        params = sfcar_from_snr(10.0, 0.1, noise)
        spec = MonteCarloSpec(replicates=20, seed=2718)
        c = np.cos(2.0 * np.pi * np.arange(n) / n)
        s = 1.0 / (params.kappa * (1.0 - 0.2 * c[:, None] - 0.2 * c[None, :]))
        gen = np.random.Generator(np.random.Philox(spec.seed))
        values = []
        for _ in range(spec.replicates):
            power = np.abs(np.fft.fft2(gen.standard_normal((n, n)), norm="ortho")) ** 2
            values.append(np.mean(0.5 * np.log1p(s) - 0.5 * s / (1.0 + s) * power))
        mean, stderr = sample_llr_per_node(params, noise, n, spec)
        assert mean == pytest.approx(np.mean(values), rel=1e-13, abs=0)
        want_stderr = np.std(values, ddof=1) / math.sqrt(spec.replicates)
        assert stderr == pytest.approx(want_stderr, rel=1e-13, abs=0)

    def test_different_seeds_differ(self):
        params = sfcar_from_snr(10.0, 0.1)
        noise = NoiseModel(1.0)
        a = sample_llr_per_node(params, noise, 16, MonteCarloSpec(50, 1))
        b = sample_llr_per_node(params, noise, 16, MonteCarloSpec(50, 2))
        assert a != b

    def test_mean_consistent_with_exact_value(self):
        noise = NoiseModel(1.0)
        params = sfcar_from_snr(10.0, 0.1, noise)
        exact = finite_lattice_rates(params, noise, LatticeSpec(32)).kli_rate
        mean, stderr = sample_llr_per_node(params, noise, 32, MonteCarloSpec(400, 0))
        assert abs(mean - exact) <= 4.0 * stderr

    def test_consistency_across_seed_family(self):
        noise = NoiseModel(1.0)
        params = sfcar_from_snr(10.0, 0.1, noise)
        exact = finite_lattice_rates(params, noise, LatticeSpec(32)).kli_rate
        hits = 0
        for seed in range(100):
            mean, stderr = sample_llr_per_node(params, noise, 32, MonteCarloSpec(200, seed))
            if abs(mean - exact) <= 4.0 * stderr:
                hits += 1
        assert hits >= 99

    def test_parseval_noise_power(self):
        # DFT-domain replicate power must average sigma^2 per bin, drawn as
        # sample_llr_per_node draws its replicates
        gen = np.random.Generator(np.random.Philox(314159))
        sigma2 = 2.0
        total = 0.0
        reps, n = 100, 32
        for _ in range(reps):
            y = math.sqrt(sigma2) * gen.standard_normal((n, n))
            total += float(np.mean(np.abs(np.fft.fft2(y, norm="ortho")) ** 2))
        assert total / reps == pytest.approx(sigma2, rel=0.01)

    def test_stderr_needs_replicates(self):
        params = sfcar_from_snr(1.0, 0.0)
        with pytest.raises(ValueError):
            sample_llr_per_node(params, NoiseModel(1.0), 8, MonteCarloSpec(1, 0))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            MonteCarloSpec(0, 1)
        with pytest.raises(ValueError):
            MonteCarloSpec(10, -1)
        with pytest.raises(ValueError):
            MonteCarloSpec(10, 2**64)

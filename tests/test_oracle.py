import math
import re

import numpy as np
import pytest

from hgmrf import _kernels_py, oracle
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

    @pytest.mark.parametrize("kappa", [5e-324, 1e308])
    def test_out_of_range_kappa_rejected(self, kappa):
        # kappa (1/2 - 2 zeta cos theta) rounds to 0 at the smallest
        # subnormal, and a_k + a_l overflows at 1e308: one refusal naming
        # the inputs, with no overflow warning on the way
        with pytest.raises(ValueError, match=re.escape(f"kappa = {kappa!r}, zeta = 0.2, n = 4")):
            torus_eigenvalues(SfcarParams(kappa=kappa, zeta=0.2), 4)


class TestFiniteLatticeRates:
    def test_iid_boundary_independent(self):
        noise = NoiseModel(1.0)
        params = sfcar_from_snr(1.0, 0.0, noise)
        for lattice in (LatticeSpec(16), LatticeSpec(8, "free")):
            res = finite_lattice_rates(params, noise, lattice)
            assert res.kli_rate == pytest.approx(STEIN_KLI, abs=1e-11)
            assert res.mi_rate == pytest.approx(HALF_LOG2, abs=1e-11)

    @staticmethod
    def check_unfolded_sum(theta, n, zeta, snr, boundary):
        # the same bin SNRs 1/(a_k + a_l) as the oracle's, summed over all
        # n^2 bins: what differs is only the fold and the order of the sums
        noise = NoiseModel(1.0)
        params = sfcar_from_snr(snr, zeta, noise)
        a = params.kappa * (0.5 - 2.0 * zeta * np.cos(theta))
        s = 1.0 / (a[:, None] + a[None, :])
        res = finite_lattice_rates(params, noise, LatticeSpec(n, boundary))
        assert res.kli_rate == pytest.approx(np.mean(kli_integrand(s)), rel=1e-14, abs=0)
        assert res.mi_rate == pytest.approx(np.mean(0.5 * np.log1p(s)), rel=1e-14, abs=0)

    @pytest.mark.parametrize("n", [2, 3, 7, 64, 65, 301, 1024])
    @pytest.mark.parametrize("zeta", [0.0, 0.1, 0.2499])
    @pytest.mark.parametrize("snr", [1e-10, 1e-3, 3.0, 10.0, 1e3])
    def test_torus_matches_unfolded_eigenvalue_sum(self, n, zeta, snr):
        # the triangle k <= l of the distinct cosines, weighted by their
        # multiplicities, against all n^2 DFT bins.  Bin n - k takes the
        # angle of bin k, whose cosine it shares: cos(2 pi (n - k)/n) rounds
        # apart from it for odd n, by more than the fold at zeta = 0.2499
        k = np.arange(n)
        self.check_unfolded_sum(2.0 * np.pi * np.minimum(k, n - k) / n, n, zeta, snr, "torus")

    @pytest.mark.parametrize("n", [2, 3, 7, 64, 65, 301, 1024])
    @pytest.mark.parametrize("zeta", [0.0, 0.1, 0.2499])
    @pytest.mark.parametrize("snr", [1e-10, 1e-3, 3.0, 10.0, 1e3])
    def test_free_matches_unfolded_eigenvalue_sum(self, n, zeta, snr):
        # the triangle k <= l against all n^2 DST-I bins
        self.check_unfolded_sum(np.pi * np.arange(1, n + 1) / (n + 1), n, zeta, snr, "free")

    @pytest.mark.parametrize("boundary", ["torus", "free"])
    def test_sums_one_triangle(self, monkeypatch, boundary):
        # s_kl = s_lk: the side-1024 oracle hands _integrands the triangle
        # k <= l of its grid and the diagonal squares of its blocks, 141,249
        # cells on the torus's 513 x 513 distinct cosines, not every cell
        cells, integrands = [], oracle._integrands

        def counted(s):
            cells.append(s.size)
            return integrands(s)

        monkeypatch.setattr(oracle, "_integrands", counted)
        noise = NoiseModel(1.0)
        finite_lattice_rates(sfcar_from_snr(10.0, 0.1, noise), noise, LatticeSpec(1024, boundary))
        side = 513 if boundary == "torus" else 1024
        assert sum(cells) <= 0.55 * side**2

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

    @pytest.mark.parametrize("boundary", ["torus", "free"])
    def test_low_snr_kli_is_the_series(self, boundary):
        # at zeta = 0 every bin has s = SNR, and the KLI (t - 1 + e^-t)/2 is
        # SNR^2/4 - SNR^3/3 + O(SNR^4): the sum must keep every digit, where
        # 0.5 log1p(s) - 0.5 s/(1 + s) in floats is 1.9e-6 off
        noise = NoiseModel(1.0)
        res = finite_lattice_rates(sfcar_from_snr(1e-10, 0.0, noise), noise,
                                   LatticeSpec(64, boundary))
        assert res.kli_rate == pytest.approx(2.4999999996666667e-21, rel=1e-15, abs=0)

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

    @pytest.mark.parametrize("kappa, zeta, sigma2, boundaries", [
        pytest.param(1.2e308, 0.2, 1.0, ("torus", "free"), id="1.2e+308-0.2-1.0"),
        pytest.param(1e-299, ZETA_MAX, 1.0, ("torus",), id="1e-299-0.24999999999999997-1.0"),
        pytest.param(1.0, 0.1, 1e-310, ("torus", "free"), id="1.0-0.1-1e-310"),
    ])
    def test_bin_snr_out_of_range(self, kappa, zeta, sigma2, boundaries):
        # kappa sigma^2 (1 + 4 zeta) overflows, or its reciprocal does.  The
        # free boundary's smallest eigenvalue factor is 1 - 4 zeta cos(pi/9)
        # >= 0.06, which keeps the reciprocal finite at zeta = ZETA_MAX
        params, noise = SfcarParams(kappa, zeta), NoiseModel(sigma2)
        for boundary in boundaries:
            with pytest.raises(ValueError, match="bin SNR"):
                finite_lattice_rates(params, noise, LatticeSpec(8, boundary))
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
        assert got == (0.735795104396167, 0.005201885422553721)

    @pytest.mark.parametrize("n", [15, 16])
    def test_matches_full_spectrum_replay(self, n):
        # the same Philox draws put back on all n^2 bins: a conjugate pair's
        # Exp(1) power on both of its bins, chi^2_1 = 2 Gamma(1/2) on each
        # self-conjugate bin, and every bin's LLR term summed
        noise = NoiseModel(1.0)
        params = sfcar_from_snr(10.0, 0.1, noise)
        spec = MonteCarloSpec(replicates=20, seed=2718)
        c = np.cos(2.0 * np.pi * np.arange(n) / n)
        s = 1.0 / (params.kappa * (1.0 - 0.2 * c[:, None] - 0.2 * c[None, :]))
        orbits = []  # the conjugate orbits of each quarter-grid cell, cell by cell
        for k in range(n // 2 + 1):
            for l in range(n // 2 + 1):
                bins = {(a % n, b % n) for a in (k, -k) for b in (l, -l)}
                cell = []
                for a, b in sorted(bins):
                    orbit = sorted({(a, b), (-a % n, -b % n)})
                    if orbit not in cell:
                        cell.append(orbit)
                orbits.extend(cell)
        shapes = np.array([0.5 if len(orbit) == 1 else 1.0 for orbit in orbits])
        gen = np.random.Generator(np.random.Philox(spec.seed))
        values = []
        for _ in range(spec.replicates):
            power = np.zeros((n, n))
            for orbit, draw in zip(orbits, gen.standard_gamma(shapes, size=shapes.size)):
                for a, b in orbit:
                    power[a, b] = 2.0 * draw if len(orbit) == 1 else draw
            values.append(np.mean(0.5 * np.log1p(s) - 0.5 * s / (1.0 + s) * power))
        mean, stderr = sample_llr_per_node(params, noise, n, spec)
        assert mean == pytest.approx(np.mean(values), rel=1e-13, abs=0)
        want_stderr = np.std(values, ddof=1) / math.sqrt(spec.replicates)
        assert stderr == pytest.approx(want_stderr, rel=1e-13, abs=0)

    @pytest.mark.parametrize("n", [15, 16, 64, 65])
    def test_law_matches_transformed_draws(self, n):
        # the periodogram's law against the periodogram itself: real white
        # noise drawn and transformed by the unitary FFT, the LLR summed over
        # every bin.  Both means agree, and both replicate variances match
        # the exact 2 sum g^2/n^4 within a 5-sigma chi^2 bound
        noise = NoiseModel(1.0)
        params = sfcar_from_snr(10.0, 0.1, noise)
        reps = 4000
        c = np.cos(2.0 * np.pi * np.arange(n) / n)
        s = 1.0 / (params.kappa * (1.0 - 0.2 * c[:, None] - 0.2 * c[None, :]))
        g = 0.5 * s / (1.0 + s)
        gen = np.random.Generator(np.random.Philox(31415))
        values = np.concatenate([
            np.mean(0.5 * np.log1p(s) - g * np.abs(np.fft.fft2(
                gen.standard_normal((200, n, n)), norm="ortho")) ** 2, axis=(1, 2))
            for _ in range(reps // 200)])
        fft_mean, fft_stderr = np.mean(values), np.std(values, ddof=1) / math.sqrt(reps)
        mean, stderr = sample_llr_per_node(params, noise, n, MonteCarloSpec(reps, 27182))
        assert abs(mean - fft_mean) <= 4.0 * math.hypot(stderr, fft_stderr)
        exact_var = 2.0 * np.sum(g * g) / n**4
        dof = reps - 1
        # Wilson-Hilferty quantiles of chi^2 with dof degrees of freedom
        lo, hi = (dof * (1.0 - 2.0 / (9 * dof) + z * math.sqrt(2.0 / (9 * dof))) ** 3
                  for z in (-5.0, 5.0))
        for sample_var in (fft_stderr**2 * reps, stderr**2 * reps):
            assert lo <= dof * sample_var / exact_var <= hi

    def test_fold_counts_every_bin_once(self, monkeypatch):
        # a generator that returns each draw's expectation, Gamma(k) -> k,
        # turns every replicate into the finite-lattice KLI: each of the n^2
        # bins enters once, with its power's mean 1
        class Expectation:
            def __init__(self, bit_generator):
                pass

            def standard_gamma(self, shape, size):
                return np.array(np.broadcast_to(shape, size), dtype=np.float64)

        noise = NoiseModel(1.0)
        params = sfcar_from_snr(10.0, 0.1, noise)
        want = [finite_lattice_rates(params, noise, LatticeSpec(n)).kli_rate for n in range(2, 41)]
        monkeypatch.setattr(np.random, "Generator", Expectation)
        for n, kli in zip(range(2, 41), want):
            mean, stderr = sample_llr_per_node(params, noise, n, MonteCarloSpec(3, 1))
            assert (mean, stderr) == (pytest.approx(kli, rel=1e-13, abs=0), 0.0)

    def test_stderr_scales_with_snr_down_to_underflow(self):
        # the replicate values are about SNR/n: their squares underflow
        # below SNR ~ 1e-150, so the spread is taken of scaled values
        noise = NoiseModel(1.0)
        ratios = []
        for snr in (1e-120, 1e-160, 1e-200, 1e-300):
            _mean, stderr = sample_llr_per_node(sfcar_from_snr(snr, 0.1, noise), noise, 64,
                                                MonteCarloSpec(50, 7))
            ratios.append(stderr / snr)
        assert ratios[0] > 0.0
        assert ratios == pytest.approx([ratios[0]] * 4, rel=1e-12, abs=0)

    @pytest.mark.parametrize("n", [15, 16, 64, 65])
    def test_replicate_blocks_do_not_change_a_bit(self, monkeypatch, n):
        # one replicate per block draws each replicate in turn; one block
        # holds every replicate
        params = sfcar_from_snr(10.0, 0.1)
        spec = MonteCarloSpec(replicates=33, seed=4242)
        want = sample_llr_per_node(params, NoiseModel(1.0), n, spec)
        for block in (1, 2**20):
            monkeypatch.setattr(_kernels_py, "_BLOCK_ELEMS", block)
            assert sample_llr_per_node(params, NoiseModel(1.0), n, spec) == want

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
        # the unitary DFT keeps white noise white: its periodogram averages
        # sigma^2 per bin, the mean power the Monte Carlo law draws
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


@pytest.mark.parametrize("make", [
    lambda v: LatticeSpec(v),
    lambda v: MonteCarloSpec(replicates=v, seed=1),
    lambda v: MonteCarloSpec(replicates=2, seed=v),
    lambda v: sample_llr_per_node(sfcar_from_snr(1.0, 0.1), NoiseModel(1.0), v,
                                  MonteCarloSpec(2, 1)),
], ids=["lattice-side", "replicates", "seed", "llr-side"])
def test_integer_fields_reject_non_integers(make):
    # an 8.5 used to pass its check and fail later inside numpy, or give a
    # result for an 8.5-sided lattice
    for value in (8.5, 8.0, "8"):
        with pytest.raises(ValueError, match="integer"):
            make(value)
    make(np.int64(8))

import math
import sys

import mpmath as mp
import numpy as np
import pytest

from hgmrf.car import NoiseModel, sfcar_from_snr
from hgmrf.physmap import (ZETA_MAX, PhysicalField, correlation_parameters, edge_correlation,
                           rho_from_zeta)
from hgmrf import _kernels_py
from hgmrf.rates import (
    RateResult,
    kli_integrand,
    kli_rate_car,
    sfcar_rate_gaps,
    sfcar_rates,
    sfcar_rates_at_spacing,
    sfcar_rates_batch,
    sfcar_row,
    sfcar_row_at_spacing,
)
from hgmrf.car import CarCoefficients
from hgmrf.specfun import QuadratureSpec
from sfcar_reference import rates_at_spacing, rates_at_zeta

STEIN_KLI = 0.5 * math.log(2.0) + 0.25 - 0.5
HALF_LOG2 = 0.5 * math.log(2.0)


class TestKliIntegrand:
    def test_zero(self):
        assert kli_integrand(0.0) == 0.0

    def test_unit_snr(self):
        assert kli_integrand(1.0) == pytest.approx(STEIN_KLI, rel=1e-15)

    def test_quadratic_small_s(self):
        assert kli_integrand(1e-3) / 1e-6 == pytest.approx(0.25, rel=0.01)

    def test_vectorized(self):
        s = np.array([0.0, 1.0, 10.0])
        out = kli_integrand(s)
        assert out.shape == (3,)
        assert out[1] == pytest.approx(STEIN_KLI, rel=1e-15)

    @pytest.mark.parametrize("s", [1e-16, 1e-12, 1e-8, 1e-4, 1.0, 1e3])
    def test_against_mpmath(self, s):
        # no cancellation at low s: 0.5 log1p(s) - 0.5 s/(1 + s) in floats
        # is 4.8e-5 off at s = 1e-12
        with mp.workdps(40):
            want = float(mp.log1p(s) / 2 - s / (2 * (1 + mp.mpf(s))))
        assert kli_integrand(s) == pytest.approx(want, rel=1e-15, abs=0)

    @pytest.mark.parametrize("s, named", [(-2.0, "-2.0"), (math.nan, "nan"), (math.inf, "inf"),
                                          ([0.5, -1.0, math.nan], "-1.0")])
    def test_refuses_s_outside_minus_one_to_inf(self, s, named):
        # each returned nan, -2 and inf with a RuntimeWarning too
        with pytest.raises(ValueError, match=rf"^kli_integrand needs s in \(-1, inf\), got {named}$"):
            kli_integrand(s)

    def test_leaves_the_input_unchanged(self):
        # the shared integrand overwrites its block; this one works on a copy
        s = np.array([[1e-12, 0.5], [1.0, 1e3]])
        kept = s.copy()
        kli_integrand(s)
        np.testing.assert_array_equal(s, kept)


class TestSfcarRates:
    def test_iid_closed_forms(self):
        res = sfcar_rates(0.0, 1.0)
        assert res.converged
        assert res.kli_rate == pytest.approx(STEIN_KLI, abs=1e-12)
        assert res.mi_rate == pytest.approx(HALF_LOG2, abs=1e-12)

    def test_perfectly_correlated_endpoint_is_zero(self):
        res = sfcar_rates(0.25, 123.0)
        assert res == RateResult(0.0, 0.0, 0, True)

    def test_kli_below_mi(self):
        for zeta in (0.0, 0.1, 0.24):
            for snr in (0.01, 1.0, 100.0):
                res = sfcar_rates(zeta, snr)
                assert 0.0 <= res.kli_rate <= res.mi_rate

    def test_monotone_in_snr(self):
        for zeta in (0.0, 0.2):
            snrs = np.logspace(-2, 2, 10)
            kli = [sfcar_rates(zeta, s).kli_rate for s in snrs]
            mi = [sfcar_rates(zeta, s).mi_rate for s in snrs]
            assert all(b > a for a, b in zip(kli, kli[1:]))
            assert all(b > a for a, b in zip(mi, mi[1:]))

    def test_monotone_decreasing_in_zeta_at_high_snr(self):
        zetas = np.linspace(0.0, 0.2499, 20)
        kli = [sfcar_rates(z, 100.0).kli_rate for z in zetas]
        assert all(b < a for a, b in zip(kli, kli[1:]))

    def test_correlation_beneficial_at_low_snr(self):
        base = sfcar_rates(0.0, 0.01).kli_rate
        best = max(sfcar_rates(z, 0.01).kli_rate for z in np.linspace(0.05, 0.2499, 12))
        assert best > base

    def test_linear_zeta_coefficient_vanishes(self):
        # K(zeta) - K(0) = 2 phi''(snr) snr^2 zeta^2 + O(zeta^3): the
        # first-order term cancels under the angular average.
        snr = 10.0
        curvature = 2 * (0.5 * (1 - snr) / (1 + snr) ** 3) * snr**2
        base = sfcar_rates(0.0, snr).kli_rate
        for h in (1e-3, 1e-2):
            fd = (sfcar_rates(h, snr).kli_rate - base) / h**2
            assert fd == pytest.approx(curvature, rel=0.05)

    def test_nonconvergence_flagged_not_raised(self):
        res = sfcar_rates(0.24, 1.0, QuadratureSpec(1e-12, 16))
        assert not res.converged
        assert res.quadrature_points == 16

    def test_tiny_rates_need_relative_agreement(self):
        # rates ~1e-80 and ~1e-78 are not converged zeros: 8 and 16 nodes
        # cannot reach the ~1e-39-wide peak, and no absolute floor may
        # pass them
        res = sfcar_rates_at_spacing(PhysicalField(1.0, 1e-40), 1.0, QuadratureSpec(1e-9, 16))
        assert not res.converged

    def test_validation(self):
        with pytest.raises(ValueError):
            sfcar_rates(0.26, 1.0)
        with pytest.raises(ValueError):
            sfcar_rates(-0.01, 1.0)
        with pytest.raises(ValueError):
            sfcar_rates(0.1, 0.0)

    @pytest.mark.parametrize("zeta", [0.0, 0.1])
    def test_snr_over_scale_beyond_kernel_range(self, zeta):
        # the kernel overflows from SNR/scale ~ max/4 at 1 - 4 zeta = 0
        with pytest.raises(ValueError, match="SNR/scale"):
            sfcar_rates(zeta, 1e308)

    @pytest.mark.parametrize("zeta, snr", [(0.0, sys.float_info.max / 4),
                                           (ZETA_MAX, sys.float_info.max)])
    def test_finite_up_to_kernel_range(self, zeta, snr):
        # SNR/scale = max/4 at zeta = 0, and max/12.4 at ZETA_MAX
        res = sfcar_rates(zeta, snr)
        assert res.converged and 353.0 < res.kli_rate < res.mi_rate < 355.0

    def test_snr_over_scale_below_smallest_double(self):
        # SNR/scale = 1e-136/1e272 rounds to 0 with 1 - 4 zeta = 0: the
        # kernel met 0/0 at w1 = 0; both rates are 0 to double precision
        field = PhysicalField(1.098620830009533e-136, 0.1)
        res = sfcar_rates_at_spacing(field, 1.098620830009533e-136)
        assert (res.kli_rate, res.mi_rate, res.converged) == (0.0, 0.0, True)


@pytest.fixture
def kernel_calls(monkeypatch):
    """(rows, n) of every SFCAR kernel call, in order."""
    calls = []
    kernel = _kernels_py.sfcar_grid_sums
    monkeypatch.setattr(_kernels_py, "sfcar_grid_sums",
                        lambda c, delta, n: calls.append((len(c), n)) or kernel(c, delta, n))
    return calls


class TestBatchedRows:
    SPEC = QuadratureSpec(relative_tolerance=1e-9, max_points_per_axis=1024)
    #: Rows converging at 512 nodes and (alpha*d = 1e-40) in the second
    #: round at 1024, two whose SNR/scale is 0 (zeta = 1/4, and an SNR that
    #: underflows against its scale), and one (alpha*d = 1e-100, which needs
    #: 2048 nodes) unconverged at 1024.
    ROWS = (sfcar_row(0.0, 10.0), sfcar_row_at_spacing(PhysicalField(1.0, 1e-40), 10.0),
            sfcar_row(0.25 * (1.0 - 4.1e-4), 1.0), sfcar_row(0.25, 1.0), (0.5, 2.0, 5e-324),
            sfcar_row_at_spacing(PhysicalField(1.0, 1e-100), 10.0), sfcar_row(0.1, 1e-3))

    def test_rows_reach_every_outcome(self):
        results = sfcar_rates_batch(self.ROWS, self.SPEC)
        assert [(r.quadrature_points, r.converged) for r in results] == [
            (512, True), (1024, True), (512, True), (0, True), (0, True), (1024, False),
            (512, True)]
        assert results[3] == results[4] == RateResult(0.0, 0.0, 0, True)

    def test_row_result_does_not_depend_on_the_batch(self):
        alone = [sfcar_rates_batch([row], self.SPEC)[0] for row in self.ROWS]
        rng = np.random.default_rng(0)
        for size in (2, 3, 5, len(self.ROWS)):
            for _ in range(3):
                picked = rng.permutation(len(self.ROWS))[:size]
                assert sfcar_rates_batch([self.ROWS[i] for i in picked], self.SPEC) == [
                    alone[i] for i in picked]

    def test_single_queries_are_batches_of_one(self):
        field = PhysicalField(1.0, 1e-100)
        assert sfcar_rates(0.2, 1.0, self.SPEC) == sfcar_rates_batch(
            [sfcar_row(0.2, 1.0)], self.SPEC)[0]
        assert sfcar_rates_at_spacing(field, 10.0, self.SPEC) == sfcar_rates_batch(
            [sfcar_row_at_spacing(field, 10.0)], self.SPEC)[0]

    def test_each_round_integrates_only_the_unconverged_rows(self, kernel_calls):
        sfcar_rates_batch(self.ROWS, self.SPEC)
        # the two zero rows never reach the kernel; the first call, at 512
        # nodes, compares 256 against 512 by the embedded rule, and three
        # rows stop there
        assert kernel_calls == [(5, 512), (2, 1024)]

    def test_one_kernel_call_for_a_converging_query(self, kernel_calls):
        # the first call carries its own error estimate: a query that
        # converges at 512 nodes makes one call, not one at 256 and one at 512
        res = sfcar_rates(0.1, 10.0)
        assert (res.quadrature_points, res.converged) == (512, True)
        assert kernel_calls == [(1, 512)]

    def test_overflowing_row_refused_before_any_row_is_integrated(self, monkeypatch):
        monkeypatch.setattr(_kernels_py, "sfcar_grid_sums", None)
        with pytest.raises(ValueError, match="^SNR/scale = 1e\\+308 is above"):
            sfcar_rates_batch([sfcar_row(0.1, 1.0), (1.0, 1.0, 1e308)])


class TestHighPrecisionCrossValidation:
    @pytest.mark.parametrize("zeta,snr", [(0.1, 10.0), (0.2499, 1.0)])
    def test_against_mpmath_double_quadrature(self, zeta, snr):
        # the Green's-function reference shares no step with the kernel's
        # closed-form w2 integral; it matches the 2-D definition here
        ref_kli, ref_mi = rates_at_zeta(zeta, snr)
        res = sfcar_rates(zeta, snr)
        assert res.kli_rate == pytest.approx(ref_kli, rel=1e-12)
        assert res.mi_rate == pytest.approx(ref_mi, rel=1e-12)


ZETA_GRID = (0.0, 0.1, 0.24, 0.2499, 0.25 * (1 - 1e-8), float(np.nextafter(0.25, 0.0)))
ALPHA_D_GRID = (0.01, 0.02, 0.296, 20.0 / 63.0, 0.5)


class TestOneDimensionalPathAccuracy:
    """Every point converges under the default budget and lands within
    1e-13 of the 40-digit Green's-function reference (`sfcar_reference`),
    from zeta = 0 to the last double below 1/4, at spacings where zeta
    rounds next to or onto 1/4 and at dense spacing.  At low SNR the rates there turn on 1 - 4 zeta itself, which
    no double zeta carries; those points hold to 1e-12.  abs=0 keeps
    pytest.approx from passing rates below 1e-12 outright."""

    @pytest.mark.parametrize("snr", [1e-4, 1.0, 1e5])
    @pytest.mark.parametrize("zeta", ZETA_GRID)
    def test_zeta_grid(self, zeta, snr):
        res = sfcar_rates(zeta, snr)
        assert res.converged
        ref = rates_at_zeta(zeta, snr)
        assert res.kli_rate == pytest.approx(ref[0], rel=1e-13, abs=0.0)
        assert res.mi_rate == pytest.approx(ref[1], rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("zeta", [0.1, 0.2499])
    def test_huge_snr_does_not_overflow(self, zeta):
        # (A + c)^2 overflows from c ~ 1e154; the kernel must not form it
        res = sfcar_rates(zeta, 1e300)
        assert res.converged
        ref = rates_at_zeta(zeta, 1e300)
        assert res.kli_rate == pytest.approx(ref[0], rel=1e-13, abs=0.0)
        assert res.mi_rate == pytest.approx(ref[1], rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("snr", [1.0, 10.0])
    @pytest.mark.parametrize("alpha_d", ALPHA_D_GRID)
    def test_spacing_grid(self, alpha_d, snr):
        res = sfcar_rates_at_spacing(PhysicalField(1.0, alpha_d), snr)
        assert res.converged
        ref = rates_at_spacing(alpha_d, snr)
        assert res.kli_rate == pytest.approx(ref[0], rel=1e-13, abs=0.0)
        assert res.mi_rate == pytest.approx(ref[1], rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("alpha_d", [1e-6, 1e-10, 1e-40, 1e-100])
    def test_dense_spacing(self, alpha_d):
        # 1 - rho ~ 7e-12 and 1.2e-19: a scale built from a rounded rho
        # would be off by eps/(1 - rho), all of it at 1e-10.  At 1e-40 and
        # 1e-100 the peak at w1 = 0 is ~1e-39 and ~1e-99 wide, and the MI
        # gathers c/w1 over every decade above it.
        res = sfcar_rates_at_spacing(PhysicalField(1.0, alpha_d), 1.0)
        assert res.converged
        ref = rates_at_spacing(alpha_d, 1.0)
        assert res.kli_rate == pytest.approx(ref[0], rel=1e-12, abs=0.0)
        assert res.mi_rate == pytest.approx(ref[1], rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("alpha_d,snr", [(0.296, 1e-8), (0.296, 1e-12),
                                             (20.0 / 63.0, 1e-12), (0.34, 1e-10)])
    def test_low_snr_where_zeta_rounds_near_quarter(self, alpha_d, snr):
        # zeta is a few ulps below 1/4 and c = SNR/scale is below or near
        # 1 - 4 zeta, which sets the width of the peak: a 1 - 4 zeta taken
        # from the rounded zeta put the KLI off by up to 2.6e-3
        res = sfcar_rates_at_spacing(PhysicalField(1.0, alpha_d), snr)
        assert res.converged
        ref = rates_at_spacing(alpha_d, snr)
        assert res.kli_rate == pytest.approx(ref[0], rel=1e-12, abs=0.0)
        assert res.mi_rate == pytest.approx(ref[1], rel=1e-12, abs=0.0)

    def test_tiny_snr_past_saturation_handoff(self):
        # zeta rounds to one ulp below 1/4 at alpha*d = 0.29, where the true
        # 1 - 4 zeta ~ 4.5e-17 exceeds c = SNR/scale ~ 8e-21 and sets the
        # width of the peak
        res = sfcar_rates_at_spacing(PhysicalField(1.0, 0.29), 1e-19)
        assert res.converged
        ref = rates_at_spacing(0.29, 1e-19)
        assert res.kli_rate == pytest.approx(ref[0], rel=1e-12, abs=0.0)
        assert res.mi_rate == pytest.approx(ref[1], rel=1e-12, abs=0.0)


@pytest.fixture
def kernel_sides(monkeypatch):
    """The node count or grid side of each call to the two rate kernels."""
    sides = []
    for name in ("sfcar_grid_sums", "car_grid_sums"):
        kernel = getattr(_kernels_py, name)
        monkeypatch.setattr(_kernels_py, name,
                            lambda *args, kernel=kernel: sides.append(args[-1]) or kernel(*args))
    return sides


def dip_taps(w_dip, depth):
    """Taps along w1 alone whose symbol (cos w1 - cos w_dip)^2 + depth dips
    to depth at w1 = +-w_dip, off the nodes of every torus grid."""
    x = math.cos(w_dip)
    return CarCoefficients({(0, 0): x * x + depth + 0.5, (1, 0): -x, (2, 0): 0.25})


class TestGeneralCarCrossValidation:
    def test_white_field_reduces_to_stein(self):
        res = kli_rate_car(CarCoefficients({(0, 0): 1.0}), NoiseModel(1.0))
        assert res.kli_rate == pytest.approx(STEIN_KLI, abs=1e-12)
        assert res.mi_rate == pytest.approx(HALF_LOG2, abs=1e-12)

    def test_sfcar_taps_match_separated_form(self):
        # two independent evaluation paths: taps + sigma^2 vs (zeta, SNR)
        noise = NoiseModel(sigma2=1.0)
        params = sfcar_from_snr(10.0, 0.2, noise)
        res_car = kli_rate_car(params.taps(), noise)
        res_sep = sfcar_rates(0.2, 10.0)
        assert res_car.kli_rate == pytest.approx(res_sep.kli_rate, abs=1e-10)
        assert res_car.mi_rate == pytest.approx(res_sep.mi_rate, abs=1e-10)

    @pytest.mark.parametrize("zeta", [0.1, 0.2])
    def test_converged_rate_matches_separated_form(self, zeta):
        noise = NoiseModel(sigma2=1.0)
        res_car = kli_rate_car(sfcar_from_snr(10.0, zeta, noise).taps(), noise)
        res_sep = sfcar_rates(zeta, 10.0)
        assert res_car.converged
        assert res_car.kli_rate == pytest.approx(res_sep.kli_rate, rel=1e-9, abs=0)
        assert res_car.mi_rate == pytest.approx(res_sep.mi_rate, rel=1e-9, abs=0)

    def test_unresolved_peak_is_flagged(self):
        # near zeta = 1/4 the 8- and 16-point grids are far from the rate;
        # grids compared against their own offset-1/4 half would agree there
        noise = NoiseModel(sigma2=1.0)
        res = kli_rate_car(sfcar_from_snr(10.0, 0.2499, noise).taps(), noise,
                           QuadratureSpec(1e-9, 16))
        assert (res.quadrature_points, res.converged) == (16, False)

    def test_each_grid_side_is_integrated_once(self, kernel_sides):
        noise = NoiseModel(sigma2=1.0)
        res = kli_rate_car(sfcar_from_snr(10.0, 0.2499, noise).taps(), noise,
                           QuadratureSpec(1e-9, 64))
        assert sorted(kernel_sides) == [32, 64]
        assert (res.quadrature_points, res.converged) == (64, False)

    @pytest.mark.parametrize("taps, sigma2", [
        pytest.param(sfcar_from_snr(snr, zeta, NoiseModel(1.0)).taps(), 1.0,
                     id=f"sfcar-{zeta}-{snr}")
        for zeta in (0.0, 0.1, 0.2) for snr in (1e-2, 1e3)
    ] + [
        pytest.param(CarCoefficients({(0, 0): 1.0, (1, 0): -0.12, (0, 1): -0.12,
                                      (1, 1): -0.08, (1, -1): -0.08}), sigma2,
                     id=f"second-order-{sigma2}")
        for sigma2 in (0.1, 10.0)
    ])
    def test_smooth_fields_stop_by_side_64(self, kernel_sides, taps, sigma2):
        # the fields of the oracle cross-checks: on a periodic analytic
        # integrand the torus rule converges exponentially, so no grid
        # beyond side 64 is integrated at the default spec
        assert kli_rate_car(taps, NoiseModel(sigma2)).converged
        assert max(kernel_sides) <= 64

    @pytest.mark.parametrize("zeta", [0.0, 0.1, 0.24])
    @pytest.mark.parametrize("snr", [1e-10, 1e-3, 10.0])
    def test_low_snr_rates_match_separated_form(self, zeta, snr):
        # the torus-grid KLI is formed without cancellation, so it converges
        # to full relative precision at any SNR, with no zero floor
        noise = NoiseModel(sigma2=1.0)
        res_car = kli_rate_car(sfcar_from_snr(snr, zeta, noise).taps(), noise)
        res_sep = sfcar_rates(zeta, snr)
        assert res_car.converged
        assert res_car.kli_rate == pytest.approx(res_sep.kli_rate, rel=1e-14, abs=0)
        assert res_car.mi_rate == pytest.approx(res_sep.mi_rate, rel=1e-14, abs=0)

    @pytest.mark.parametrize("w_dip", [0.7, 1.0, 2.2])
    @pytest.mark.parametrize("depth", [1e-1, 1e-2, 1e-3])
    def test_off_grid_dip_converges_to_the_finer_grid(self, w_dip, depth):
        # a symbol that dips to depth between the grid nodes is not resolved
        # at side 32: the grid doubles on until its pair agrees, and then
        # the rates are those of the next grid to the tolerance
        taps = dip_taps(w_dip, depth)
        res = kli_rate_car(taps, NoiseModel(1.0))
        assert res.converged and res.quadrature_points > 32
        oi, oj, theta = taps.tap_arrays()
        kli, mi, *_rest = _kernels_py.car_grid_sums(theta, oi, oj, 1.0, 2 * res.quadrature_points)
        assert res.kli_rate == pytest.approx(kli, rel=1e-9, abs=0)
        assert res.mi_rate == pytest.approx(mi, rel=1e-9, abs=0)

    def test_unresolved_off_grid_dip_is_flagged(self):
        res = kli_rate_car(dip_taps(2.2, 1e-6), NoiseModel(1.0),
                           QuadratureSpec(max_points_per_axis=4096))
        assert (res.quadrature_points, res.converged) == (4096, False)

    def test_kli_below_mi(self):
        res = kli_rate_car(CarCoefficients({(0, 0): 0.5, (1, 1): -0.1, (-1, -1): -0.1}),
                           NoiseModel(0.5))
        assert res.kli_rate <= res.mi_rate

    def test_invalid_model_rejected_on_grid(self):
        bad = CarCoefficients({(0, 0): 1.0, (1, 0): -0.6, (-1, 0): -0.6}, validate=False)
        with pytest.raises(ValueError, match="non-positive"):
            kli_rate_car(bad, NoiseModel(1.0))


class TestRatesAtSpacing:
    def test_wide_spacing_approaches_uncorrelated(self):
        far = sfcar_rates_at_spacing(PhysicalField(1.0, 50.0), 10.0)
        base = sfcar_rates(0.0, 10.0)
        assert far.kli_rate == pytest.approx(base.kli_rate, abs=1e-9)
        assert far.mi_rate == pytest.approx(base.mi_rate, abs=1e-9)

    def test_dense_spacing_collapses_rates(self):
        dense = sfcar_rates_at_spacing(PhysicalField(1.0, 1e-6), 10.0)
        base = sfcar_rates(0.0, 10.0)
        assert dense.kli_rate < 1e-3 * base.kli_rate
        assert dense.mi_rate < 1e-3 * base.mi_rate

    def test_unit_spacing_equals_mapped_zeta(self):
        res = sfcar_rates_at_spacing(PhysicalField(1.0, 1.0), 10.0)
        ref = sfcar_rates(0.24921547956740725, 10.0)
        assert res.kli_rate == pytest.approx(ref.kli_rate, abs=1e-10)
        assert res.mi_rate == pytest.approx(ref.mi_rate, abs=1e-10)

    def test_continuity_across_saturation_handoff(self):
        # the two points of np.linspace(0.28, 0.32, 400) between which rho
        # falls through rho_from_zeta(ZETA_MAX), where zeta leaves the
        # doubles below 1/4
        alpha = 1.0
        d_above, d_below = 0.29443609022556394, 0.2945363408521303
        assert edge_correlation(PhysicalField(alpha, d_above)) > rho_from_zeta(ZETA_MAX)
        assert edge_correlation(PhysicalField(alpha, d_below)) <= rho_from_zeta(ZETA_MAX)
        r_above = sfcar_rates_at_spacing(PhysicalField(alpha, d_above), 10.0)
        r_below = sfcar_rates_at_spacing(PhysicalField(alpha, d_below), 10.0)
        assert r_above.kli_rate == pytest.approx(r_below.kli_rate, rel=2e-3)
        assert r_above.mi_rate == pytest.approx(r_below.mi_rate, rel=2e-3)


def _gap_row(alpha_d, snr):
    rho, zeta, _delta, _scale = correlation_parameters(PhysicalField(1.0, alpha_d))
    return zeta, rho, snr


class TestSpacingGaps:
    @pytest.mark.parametrize("alpha_d,snr", [
        (alpha_d, snr) for alpha_d in (3.0, 8.0, 30.0) for snr in (1e-3, 10.0, 1e4)
    ] + [
        # near SNR 1 the KLI gap's zeta^2 term vanishes (alpha*d = 20 is in
        # test_near_unit_snr_at_wide_spacing)
        (alpha_d, snr) for alpha_d in (3.5, 8.0) for snr in (0.99, 1.0, 1.01)
    ])
    def test_against_the_definition_at_50_digits(self, spacing_gap_oracle, alpha_d, snr):
        # the reference subtracts the rates at 50 digits, with no Bregman
        # rewrite; its torus sides 32 and 48 agree far below the tolerance,
        # so it is the spectral integral.  Below SNR 1 the KLI gap is negative
        zeta, rho, _ = row = _gap_row(alpha_d, snr)
        ref, ref_48 = spacing_gap_oracle(zeta, snr, 32), spacing_gap_oracle(zeta, snr, 48)
        gaps = sfcar_rate_gaps([row])[0]
        assert (gaps.converged, gaps.quadrature_points) == (True, 0)
        for value, want, want_48 in zip((gaps.kli_rate, gaps.mi_rate), ref, ref_48):
            assert abs((want_48 - want) / want) < 1e-20
            assert value == pytest.approx(float(want), rel=1e-13, abs=0)

    @pytest.mark.parametrize("alpha_d,snr,digits", [
        (20.0, snr, 60) for snr in (0.99, 1.0, 1.01)
    ] + [(30.0, 1.0, 80), (60.0, 1.0, 130)])
    def test_near_unit_snr_at_wide_spacing(self, spacing_gap_oracle, alpha_d, snr, digits):
        # at SNR 1 the KLI gap is O(rho^4): ~7e-33, ~6e-50 and ~2e-101 of
        # rates O(1), so the definition needs more than 50 digits (at 80,
        # alpha*d = 60 gets its sign wrong), and sides 32 and 48 agree to show
        # they suffice.  A torus sum of the Bregman terms left the gap at
        # alpha*d = 20 3.0e-9 off and flagged converged, and did not converge at 30
        zeta, rho, _ = row = _gap_row(alpha_d, snr)
        ref = spacing_gap_oracle(zeta, snr, 32, digits)
        ref_48 = spacing_gap_oracle(zeta, snr, 48, digits)
        gaps = sfcar_rate_gaps([row])[0]
        for value, want, want_48 in zip((gaps.kli_rate, gaps.mi_rate), ref, ref_48):
            assert abs((want_48 - want) / want) < 1e-20
            assert value == pytest.approx(float(want), rel=1e-15, abs=0)

    @pytest.mark.parametrize("snr", [1e-3, 1.0, 1e4])
    def test_at_the_end_of_the_series_domain(self, spacing_gap_oracle, snr):
        # at zeta = 1/8 the terms fall by 1/4 per order, the slowest the
        # series takes; the torus sum needs side 64 there, and 96 agrees
        row = (0.125, rho_from_zeta(0.125), snr)
        ref, ref_96 = spacing_gap_oracle(0.125, snr, 64), spacing_gap_oracle(0.125, snr, 96)
        gaps = sfcar_rate_gaps([row])[0]
        for value, want, want_96 in zip((gaps.kli_rate, gaps.mi_rate), ref, ref_96):
            assert abs((want_96 - want) / want) < 1e-40
            assert value == pytest.approx(float(want), rel=2e-15, abs=0)

    @pytest.mark.parametrize("zeta", [float(np.nextafter(0.125, 1.0)), 0.2, math.nan])
    def test_zeta_outside_the_series_domain_refused(self, zeta):
        rows = [_gap_row(3.0, 10.0), (zeta, 0.2, 10.0)]
        with pytest.raises(ValueError, match=r"zeta in \[0, 1/8\]") as info:
            sfcar_rate_gaps(rows)
        assert "\n" not in str(info.value)

    def test_gap_row_does_not_depend_on_the_batch(self):
        rows = [_gap_row(alpha_d, snr) for alpha_d, snr in
                ((3.0, 10.0), (3.0, 1e-3), (8.0, 1e4), (20.0, 1.0), (2.9, 0.99))]
        batch = sfcar_rate_gaps(rows)
        for row, res in zip(rows, batch):
            assert sfcar_rate_gaps([row]) == [res]

    @pytest.mark.parametrize("snr", [10.0, 1e4])
    def test_equal_the_rate_differences_where_those_resolve_them(self, snr):
        # at alpha*d = 3 the gap is ~1% of the rates, so their difference
        # holds it to ~1e-14 (at SNR 1e-3 the MI gap is 3e-5 of the rate, and
        # the difference is 6e-12 off the 50-digit gap, the gap 1e-16)
        row = _gap_row(3.0, snr)
        base = sfcar_rates(0.0, snr)
        rates = sfcar_rates_at_spacing(PhysicalField(1.0, 3.0), snr)
        gaps = sfcar_rate_gaps([row])[0]
        assert gaps.kli_rate == pytest.approx(base.kli_rate - rates.kli_rate, rel=1e-12, abs=0)
        assert gaps.mi_rate == pytest.approx(base.mi_rate - rates.mi_rate, rel=1e-12, abs=0)


class TestStartHalvedToTheBudget:
    PATHS = {
        "sfcar": lambda spec: [sfcar_rates(0.2499, 1.0, spec)],
        "car": lambda spec: [kli_rate_car(sfcar_from_snr(10.0, 0.2499, NoiseModel(1.0)).taps(),
                                          NoiseModel(1.0), spec)],
    }

    @pytest.mark.parametrize("path", PATHS)
    def test_every_side_is_a_power_of_two_within_the_budget(self, kernel_sides, path):
        # a torus budget of 17 to 31 used to integrate that side itself, whose
        # "half grid" is no rule; each start is now halved until it fits
        results = {}
        for budget in (16, 17, 31, 300, 3000):
            kernel_sides.clear()
            results[budget] = self.PATHS[path](QuadratureSpec(max_points_per_axis=budget))
            assert kernel_sides, budget
            for n in kernel_sides:
                assert n & (n - 1) == 0 and 16 <= n <= budget, (budget, kernel_sides)
        assert results[17] == results[31] == results[16]

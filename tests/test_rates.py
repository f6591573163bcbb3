import functools
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
        res = sfcar_rates(0.24, 1.0, QuadratureSpec(8, 1e-12, 16))
        assert not res.converged
        assert res.quadrature_points == 16

    def test_tiny_rates_need_relative_agreement(self):
        # rates ~1e-80 and ~1e-78 are not converged zeros: 8 and 16 nodes
        # cannot reach the ~1e-39-wide peak, and no absolute floor may
        # pass them
        res = sfcar_rates_at_spacing(PhysicalField(1.0, 1e-40), 1.0, QuadratureSpec(8, 1e-9, 16))
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
    SPEC = QuadratureSpec(points_per_axis=64, relative_tolerance=1e-9, max_points_per_axis=512)
    #: Rows converging at 128 and at 512 nodes, two whose SNR/scale is 0
    #: (zeta = 1/4, and an SNR that underflows against its scale), and one
    #: (alpha*d = 1e-100, which needs 2048 nodes) unconverged at 512.
    ROWS = (sfcar_row(0.0, 10.0), sfcar_row(0.2, 1.0), sfcar_row(0.25 * (1.0 - 4.1e-4), 1.0),
            sfcar_row(0.25, 1.0), (0.5, 2.0, 5e-324),
            sfcar_row_at_spacing(PhysicalField(1.0, 1e-100), 10.0), sfcar_row(0.1, 1e-3))

    def test_rows_reach_every_outcome(self):
        results = sfcar_rates_batch(self.ROWS, self.SPEC)
        assert [(r.quadrature_points, r.converged) for r in results] == [
            (128, True), (512, True), (512, True), (0, True), (0, True), (512, False),
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
        # the two zero rows never reach the kernel; the first call, at 128
        # nodes, compares 64 against 128 by the embedded rule, and the
        # zeta = 0 row stops there
        assert kernel_calls == [(5, 128), (4, 256), (4, 512)]

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
        # fully independent path: 20-digit adaptive 2-D quadrature with
        # mpmath's own elliptic integral for the power scale.  The
        # integrands are even in w1 and w2, so [0, pi]^2 / pi^2 is the
        # average over the whole torus.
        with mp.workdps(20):
            z, s0 = mp.mpf(zeta), mp.mpf(snr)
            a = (2 / mp.pi) * mp.ellipk((4 * z) ** 2)  # parameter m = k^2

            def spectral_snr(w1, w2):
                return s0 / (a * (1 - 2 * z * mp.cos(w1) - 2 * z * mp.cos(w2)))

            ref_kli = float(
                mp.quad(
                    lambda w1, w2: 0.5 * mp.log(1 + spectral_snr(w1, w2))
                    + 0.5 / (1 + spectral_snr(w1, w2)) - 0.5,
                    [0, mp.pi], [0, mp.pi],
                ) / mp.pi**2
            )
            ref_mi = float(
                mp.quad(
                    lambda w1, w2: 0.5 * mp.log(1 + spectral_snr(w1, w2)),
                    [0, mp.pi], [0, mp.pi],
                ) / mp.pi**2
            )
        res = sfcar_rates(zeta, snr)
        assert res.kli_rate == pytest.approx(ref_kli, rel=1e-12)
        assert res.mi_rate == pytest.approx(ref_mi, rel=1e-12)


MP_DPS = 40


def _mp_rates(delta, c):
    """(kli, mi) at 1 - 4 zeta = delta and s = c/(1 - 2 zeta cos w1 - 2 zeta
    cos w2), both mpmath numbers: the closed-form w2 integral, then mpmath's
    adaptive quadrature over w1 in [0, pi], split at the widths sqrt(delta)
    and sqrt(c) of the peak at w1 = 0 and at every decade below 0.1.
    Where c < 1 the KLI is ~c times the MI and the log's argument is
    1 + O(c), so log10(1/c) digits are added to the working precision."""
    extra = max(0, int(-mp.log10(c))) if c > 0 else 0
    with mp.workdps(mp.mp.dps + extra):
        return _mp_rates_split(delta, c)


def _mp_rates_split(delta, c):
    def parts(w):
        s2 = mp.sin(w / 2) ** 2
        lo, hi = delta + (1 - delta) * s2, 1 + (1 - delta) * s2
        a = (lo + hi) / 2
        r0, r1 = mp.sqrt(lo * hi), mp.sqrt((lo + c) * (hi + c))
        return mp.log((a + c + r1) / (a + r0)), c / r1

    cuts = {mp.mpf(10) ** -k for k in range(1, 16)} | {mp.sqrt(delta), mp.sqrt(c)}
    pts = [mp.mpf(0)] + sorted(p for p in cuts if 0 < p < 1) + [mp.mpf(1), mp.pi]
    mi = mp.quad(lambda w: parts(w)[0], pts) / (2 * mp.pi)
    kli = mi - mp.quad(lambda w: parts(w)[1], pts) / (2 * mp.pi)
    return float(kli), float(mi)


def _mp_rates_at_zeta(zeta, snr):
    with mp.workdps(MP_DPS):
        z = mp.mpf(zeta)
        scale = 2 / mp.pi * mp.ellipk((4 * z) ** 2)  # parameter m = k^2
        return _mp_rates(1 - 4 * z, mp.mpf(snr) / scale)


def _mp_rates_at_spacing(x, snr):
    delta, g = _mp_delta_scale(x)
    with mp.workdps(MP_DPS):
        return _mp_rates(delta, mp.mpf(snr) / g)


@functools.lru_cache(maxsize=None)
def _mp_delta_scale(x):
    # (delta, g) at alpha*d = x, mpmath numbers, for every SNR at that x.
    # rho = x K1(x); solve rho = (g - 1)/((1 - delta) g), g = (2/pi) K(1 - delta),
    # for delta = 1 - 4 zeta by plain bisection in log(delta), independent of
    # the library's Illinois solve, unless delta is below 1e-30, where
    # g = 1/(1 - rho) to far below double precision.
    # 1 - rho ~ x^2 ln(1/x) is formed with 2 log10(1/x) extra digits, or for
    # x <= 1e-20 from (x^2/4)(1 - 2 gamma - 2 ln(x/2)), within O(x^2) relative.
    if x <= 1e-20:
        with mp.workdps(MP_DPS):
            xm = mp.mpf(x)
            one_minus_rho = xm ** 2 / 4 * (1 - 2 * mp.euler - 2 * mp.log(xm / 2))
    else:
        with mp.workdps(MP_DPS + 2 * max(0, -math.floor(math.log10(x)))):
            xm = mp.mpf(x)
            one_minus_rho = 1 - xm * mp.besselk(1, xm)
    with mp.workdps(MP_DPS):
        rho = 1 - one_minus_rho
        g = 1 / one_minus_rho
        delta = mp.mpf(0)
        if 8 * mp.exp(-mp.pi * g) > mp.mpf(10) ** -30:
            def rho_of(t):
                d = mp.exp(t)
                gd = 2 / mp.pi * mp.ellipk((1 - d) ** 2)
                return (gd - 1) / ((1 - d) * gd), gd

            lo, hi = mp.log(mp.mpf(10) ** -35), mp.mpf(0)
            for _ in range(150):  # rho_of falls as t grows
                mid = (lo + hi) / 2
                if rho_of(mid)[0] > rho:
                    lo = mid
                else:
                    hi = mid
            delta = mp.exp((lo + hi) / 2)
            g = rho_of((lo + hi) / 2)[1]
        return delta, g


ZETA_GRID = (0.0, 0.1, 0.24, 0.2499, 0.25 * (1 - 1e-8), float(np.nextafter(0.25, 0.0)))
ALPHA_D_GRID = (0.01, 0.02, 0.296, 20.0 / 63.0, 0.5)


class TestOneDimensionalPathAccuracy:
    """Every point converges under the default budget and lands within
    1e-13 of a 40-digit evaluation, from zeta = 0 to the last double below
    1/4, at spacings where zeta rounds next to or onto 1/4 and at dense
    spacing.  At low SNR the rates there turn on 1 - 4 zeta itself, which
    no double zeta carries; those points hold to 1e-12.  abs=0 keeps
    pytest.approx from passing rates below 1e-12 outright."""

    @pytest.mark.parametrize("snr", [1e-4, 1.0, 1e5])
    @pytest.mark.parametrize("zeta", ZETA_GRID)
    def test_zeta_grid(self, zeta, snr):
        res = sfcar_rates(zeta, snr)
        assert res.converged
        ref = _mp_rates_at_zeta(zeta, snr)
        assert res.kli_rate == pytest.approx(ref[0], rel=1e-13, abs=0.0)
        assert res.mi_rate == pytest.approx(ref[1], rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("zeta", [0.1, 0.2499])
    def test_huge_snr_does_not_overflow(self, zeta):
        # (A + c)^2 overflows from c ~ 1e154; the kernel must not form it
        res = sfcar_rates(zeta, 1e300)
        assert res.converged
        ref = _mp_rates_at_zeta(zeta, 1e300)
        assert res.kli_rate == pytest.approx(ref[0], rel=1e-13, abs=0.0)
        assert res.mi_rate == pytest.approx(ref[1], rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("snr", [1.0, 10.0])
    @pytest.mark.parametrize("alpha_d", ALPHA_D_GRID)
    def test_spacing_grid(self, alpha_d, snr):
        res = sfcar_rates_at_spacing(PhysicalField(1.0, alpha_d), snr)
        assert res.converged
        ref = _mp_rates_at_spacing(alpha_d, snr)
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
        ref = _mp_rates_at_spacing(alpha_d, 1.0)
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
        ref = _mp_rates_at_spacing(alpha_d, snr)
        assert res.kli_rate == pytest.approx(ref[0], rel=1e-12, abs=0.0)
        assert res.mi_rate == pytest.approx(ref[1], rel=1e-12, abs=0.0)

    def test_tiny_snr_past_saturation_handoff(self):
        # zeta rounds to one ulp below 1/4 at alpha*d = 0.29, where the true
        # 1 - 4 zeta ~ 4.5e-17 exceeds c = SNR/scale ~ 8e-21 and sets the
        # width of the peak
        res = sfcar_rates_at_spacing(PhysicalField(1.0, 0.29), 1e-19)
        assert res.converged
        ref = _mp_rates_at_spacing(0.29, 1e-19)
        assert res.kli_rate == pytest.approx(ref[0], rel=1e-12, abs=0.0)
        assert res.mi_rate == pytest.approx(ref[1], rel=1e-12, abs=0.0)


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
                           QuadratureSpec(8, 1e-9, 16))
        assert (res.quadrature_points, res.converged) == (16, False)

    def test_each_grid_side_is_integrated_once(self, monkeypatch):
        sides = []
        kernel = _kernels_py.car_grid_sums
        monkeypatch.setattr(_kernels_py, "car_grid_sums",
                            lambda *args: sides.append(args[-1]) or kernel(*args))
        noise = NoiseModel(sigma2=1.0)
        res = kli_rate_car(sfcar_from_snr(10.0, 0.2499, noise).taps(), noise,
                           QuadratureSpec(8, 1e-9, 64))
        assert sorted(sides) == [16, 32, 64]
        assert (res.quadrature_points, res.converged) == (64, False)

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
    @pytest.mark.parametrize("snr", [1e-3, 10.0, 1e4])
    @pytest.mark.parametrize("alpha_d", [3.0, 8.0, 30.0])
    def test_against_the_definition_at_50_digits(self, spacing_gap_oracle, alpha_d, snr):
        # the reference subtracts the rates at 50 digits, with no Bregman
        # rewrite; its torus sides 32 and 48 agree far below the tolerance,
        # so it is the spectral integral.  Below SNR 1 the KLI gap is negative
        zeta, rho, _ = row = _gap_row(alpha_d, snr)
        ref, ref_48 = spacing_gap_oracle(zeta, snr, 32), spacing_gap_oracle(zeta, snr, 48)
        gaps = sfcar_rate_gaps([row])[0]
        assert (gaps.converged, gaps.quadrature_points) == (True, 32)
        for value, want, want_48 in zip((gaps.kli_rate, gaps.mi_rate), ref, ref_48):
            assert abs((want_48 - want) / want) < 1e-20
            assert value == pytest.approx(float(want), rel=1e-13, abs=0)

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

    def test_unconverged_within_a_small_budget_is_flagged(self):
        # the first call is at side 32, or at the budget where that is smaller
        spec = QuadratureSpec(points_per_axis=8, relative_tolerance=1e-12, max_points_per_axis=16)
        gaps = sfcar_rate_gaps([_gap_row(3.0, 10.0)], spec)[0]
        assert (gaps.converged, gaps.quadrature_points) == (False, 16)

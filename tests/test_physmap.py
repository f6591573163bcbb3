import math
import statistics

import mpmath as mp
import numpy as np
import pytest

from hgmrf import physmap
from hgmrf.physmap import (
    ZETA_MAX,
    PhysicalField,
    edge_correlation,
    edge_decorrelation,
    rho_from_zeta,
    spectral_parameters,
    zeta_from_rho,
    zeta_from_spacing,
)


class TestEdgeCorrelation:
    def test_unit_parameters(self):
        # alpha*d*K_1(alpha*d) at alpha = d = 1 is K_1(1)
        field = PhysicalField(alpha=1.0, spacing=1.0)
        assert edge_correlation(field) == pytest.approx(0.6019072301972346, rel=1e-12)

    def test_dense_sampling_limit(self):
        rho = edge_correlation(PhysicalField(alpha=1.0, spacing=1e-8))
        assert rho < 1.0
        assert 1.0 - rho < 1e-6

    def test_sparse_sampling_tail(self):
        rho = edge_correlation(PhysicalField(alpha=2.0, spacing=10.0))
        assert rho == pytest.approx(math.sqrt(math.pi * 20.0 / 2.0) * math.exp(-20.0), rel=0.05)

    def test_strictly_decreasing_in_spacing(self):
        ds = np.logspace(-6, math.log10(50.0), 80)
        vals = [edge_correlation(PhysicalField(alpha=1.0, spacing=d)) for d in ds]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_scale_invariance_in_alpha_d_product(self):
        # exact: both sides evaluate K_1 at the bit-identical product
        a, d, c = 0.7, 3.25, 2.0
        assert edge_correlation(PhysicalField(alpha=a, spacing=d)) == edge_correlation(
            PhysicalField(alpha=c * a, spacing=d / c)
        )

    def test_field_validation(self):
        with pytest.raises(ValueError):
            PhysicalField(alpha=0.0, spacing=1.0)
        with pytest.raises(ValueError):
            PhysicalField(alpha=1.0, spacing=-2.0)
        with pytest.raises(ValueError):
            PhysicalField(alpha=1.0, spacing=math.inf)
        with pytest.raises(ValueError, match=r"alpha\*spacing"):
            PhysicalField(alpha=1e-200, spacing=1e-200)
        with pytest.raises(ValueError, match=r"alpha\*spacing"):
            PhysicalField(alpha=1.0, spacing=1e-320)


class TestEdgeDecorrelation:
    @pytest.mark.parametrize("x", [1e-150, 1e-100, 1e-10, 1e-6, 0.3, 1.0, 2.0, 2.5, 10.0])
    def test_matches_high_precision(self, x):
        # 1 - x K1(x) ~ x^2 ln(1/x) needs 2 log10(1/x) digits beyond the 40;
        # for x <= 1e-20 the closed form (x^2/4)(1 - 2 gamma - 2 ln(x/2)),
        # whose relative error is O(x^2), gives it without them
        if x <= 1e-20:
            with mp.workdps(40):
                ref = float(mp.mpf(x) ** 2 / 4 * (1 - 2 * mp.euler - 2 * mp.log(mp.mpf(x) / 2)))
        else:
            with mp.workdps(40 + 2 * max(0, -math.floor(math.log10(x)))):
                ref = float(1 - mp.mpf(x) * mp.besselk(1, mp.mpf(x)))
        assert edge_decorrelation(PhysicalField(alpha=1.0, spacing=x)) == pytest.approx(
            ref, rel=2e-15, abs=0.0)

    def test_complements_edge_correlation(self):
        for d in (0.01, 0.3, 1.0, 5.0):
            field = PhysicalField(alpha=1.0, spacing=d)
            assert edge_decorrelation(field) == pytest.approx(1.0 - edge_correlation(field),
                                                              rel=1e-13)

    @pytest.mark.parametrize("alpha_d", [1e-6, 1e-10])
    def test_dense_scale_matches_high_precision(self, alpha_d):
        # where zeta is 1/4 the scale is 1/(1 - rho); from a rounded rho it
        # would be off by ~eps/(1 - rho): 1.5e-5 at 1e-6, all of it at 1e-10
        with mp.workdps(40):
            ref = float(1 / (1 - mp.mpf(alpha_d) * mp.besselk(1, mp.mpf(alpha_d))))
        _zeta, delta, scale = spectral_parameters(PhysicalField(alpha=1.0, spacing=alpha_d))
        assert delta == 0.0
        assert scale == pytest.approx(ref, rel=1e-14)


class TestRhoFromZeta:
    def test_endpoints(self):
        assert rho_from_zeta(0.0) == 0.0
        assert rho_from_zeta(0.25) == 1.0

    def test_value_at_tenth(self):
        # direct AGM evaluation: ((2/pi)K(0.4) - 1)/(0.4 (2/pi) K(0.4))
        assert rho_from_zeta(0.1) == pytest.approx(0.10549320842952437, rel=1e-12)

    def test_approach_to_one_is_logarithmic(self):
        # the divergence of K is only logarithmic, so rho(0.2499) is far
        # from 1 even this close to the endpoint
        assert rho_from_zeta(0.2499) == pytest.approx(0.6831094437271238, rel=1e-10)
        assert 0.91 < rho_from_zeta(ZETA_MAX) < 0.93

    def test_small_zeta_linearization(self):
        for z in (1e-4, 1e-5):
            assert rho_from_zeta(z) / z == pytest.approx(1.0, abs=1e-6)

    def test_series_branch_continuity(self):
        below = rho_from_zeta(np.nextafter(1e-6, 0.0))
        above = rho_from_zeta(np.nextafter(1e-6, 1.0))
        assert below == pytest.approx(above, rel=1e-10)

    def test_domain(self):
        with pytest.raises(ValueError):
            rho_from_zeta(-0.001)
        with pytest.raises(ValueError):
            rho_from_zeta(0.2500001)

    @pytest.mark.parametrize("zeta", [1e-300, 1e-8, 0.0099, 0.01, 0.0101, ZETA_MAX]
                             + [float(z) for z in np.linspace(0.0, ZETA_MAX, 41)[1:]])
    def test_matches_high_precision(self, zeta):
        # no branch near zeta = 0.01 (the series there was 1.2e-12 off); at
        # ZETA_MAX the 50-digit value is 0.91906499746737164553...
        assert rho_from_zeta(zeta) == pytest.approx(float(_mp_rho(zeta)), rel=1e-15, abs=0.0)

    def test_strictly_increasing(self):
        # zeta_from_rho inverts this map by a bracketing root solve
        rhos = [rho_from_zeta(z) for z in np.linspace(0.0, ZETA_MAX, 1000)]
        assert all(b > a for a, b in zip(rhos, rhos[1:]))


def _mp_rho(zeta):
    """rho = (g - 1)/(4 zeta g), g = (2/pi) K(16 zeta^2) from mpmath's ellipk
    (parameter convention), with the digits g - 1 ~ 4 zeta^2 cancels."""
    with mp.workdps(50 + 2 * max(0, int(-mp.log10(zeta)))):
        z = mp.mpf(zeta)
        g = 2 / mp.pi * mp.ellipk(16 * z * z)
        return (g - 1) / (4 * z * g)


class TestZetaFromRho:
    def test_endpoint(self):
        assert zeta_from_rho(0.0) == 0.0

    def test_round_trip(self):
        for rho in np.linspace(0.0, 0.8, 100):
            zeta = zeta_from_rho(rho)
            assert rho_from_zeta(zeta) == pytest.approx(rho, abs=1e-10)

    def test_inverse_of_forward(self):
        assert zeta_from_rho(0.10549320842952437) == pytest.approx(0.1, abs=1e-9)

    def test_root_solve_evaluation_counts(self, monkeypatch):
        # the Illinois solve takes ~20 evaluations of the map, a bisection
        # to adjacent floats ~60; its bisection fallback bounds it by about
        # twice a bisection's 64
        counts = []
        for name in ("rho_from_zeta", "_one_minus_rho_at"):
            f = getattr(physmap, name)
            monkeypatch.setattr(physmap, name, lambda x, f=f: counts.append(1) or f(x))
        per_solve = []
        rhos = [edge_correlation(PhysicalField(1.0, float(x))) for x in np.linspace(0.06, 1.6, 50)]
        for rho in rhos + [0.5, float(np.nextafter(0.5, 1.0))]:
            counts.clear()
            zeta_from_rho(rho)
            per_solve.append(len(counts))
        assert statistics.median(per_solve) <= 25
        assert max(per_solve) <= 2 * 64

    def test_smallest_rho_above_half_is_inside_the_t_bracket(self):
        # the solve in t = log(1 - 4 zeta) tops out at t = -1, where
        # 1 - rho ~ 0.83; at rho = 1/2, t ~ -4.1
        rho = float(np.nextafter(0.5, 1.0))
        zeta = zeta_from_rho(rho)
        assert rho_from_zeta(zeta) == pytest.approx(rho, abs=1e-12)
        assert zeta == pytest.approx(zeta_from_rho(0.5), rel=1e-15)
        assert 1.0 - 4.0 * zeta > math.exp(-5.0)

    def test_saturated_branch_maps_to_quarter(self):
        assert zeta_from_rho(0.9999) == pytest.approx(0.25, abs=1e-3)
        assert zeta_from_rho(0.9999) <= 0.25

    def test_domain(self):
        with pytest.raises(ValueError):
            zeta_from_rho(1.0)
        with pytest.raises(ValueError):
            zeta_from_rho(-0.2)

    @pytest.mark.parametrize("alpha_d", [0.296, 20.0 / 63.0])
    def test_scale_near_handoff_matches_high_precision_solve(self, alpha_d):
        # Here zeta rounds to within a few ulps of 1/4; the scale must not
        # inherit that rounding.
        field = PhysicalField(alpha=1.0, spacing=alpha_d)
        _delta, ref = _mp_delta_and_scale(edge_correlation(field))
        assert spectral_parameters(field)[2] == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("alpha_d", [0.2, 0.29])
    def test_saturated_delta_matches_high_precision_solve(self, alpha_d):
        # zeta is 1/4 or one ulp below it, but the rates at low SNR still
        # depend on the true 1 - 4 zeta
        field = PhysicalField(alpha=1.0, spacing=alpha_d)
        assert edge_correlation(field) > rho_from_zeta(ZETA_MAX)
        ref, _scale = _mp_delta_and_scale(edge_correlation(field))
        assert spectral_parameters(field)[1] == pytest.approx(ref, rel=1e-11, abs=0.0)

    @pytest.mark.parametrize("alpha_d", [0.2945, 0.296, 20.0 / 63.0, 0.34, 0.5, 1.0])
    def test_delta_matches_high_precision_solve(self, alpha_d):
        # where zeta is a few ulps below 1/4 a delta taken as 1 - 4 zeta
        # would be off by up to 26% (at 0.296)
        field = PhysicalField(alpha=1.0, spacing=alpha_d)
        ref, _scale = _mp_delta_and_scale(edge_correlation(field))
        assert spectral_parameters(field)[1] == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_defined_where_delta_leaves_normal_range(self):
        # about alpha*d = 0.0494, where 1 - 4 zeta reaches the smallest normal
        # double; a root solve into subnormal delta cannot meet the 1e-12
        # residual there
        deltas = []
        for alpha_d in np.linspace(0.047, 0.050, 301):
            zeta, delta, scale = spectral_parameters(PhysicalField(1.0, float(alpha_d)))
            assert delta >= 0.0 and math.isfinite(scale)
            assert zeta == 0.25 or delta >= 2.2e-308
            deltas.append(delta)
        assert deltas[0] == 0.0 < deltas[-1]
        assert all(b >= a for a, b in zip(deltas, deltas[1:]))

    def test_scale_continuous_across_saturation(self):
        # the two adjacent spacings between which rho falls through
        # rho_from_zeta(ZETA_MAX), the largest rho a double zeta < 1/4 reaches
        lo, hi = PhysicalField(1.0, 0.2944760646472484), PhysicalField(1.0, 0.29447606464724846)
        assert edge_correlation(lo) > rho_from_zeta(ZETA_MAX) >= edge_correlation(hi)
        above = spectral_parameters(lo)[2]
        below = spectral_parameters(hi)[2]
        assert below == pytest.approx(above, rel=1e-6)


def _mp_delta_and_scale(rho):
    """(1 - 4 zeta, (2/pi) K(4 zeta)) at edge correlation rho: solve
    rho = (g - 1)/((1 - delta) g), g = (2/pi) K(1 - delta), for delta by
    plain bisection in log(delta) at 40 digits, independent of the
    library's Illinois solve."""
    with mp.workdps(40):
        def rho_of(t):
            delta = mp.exp(t)
            g = 2 / mp.pi * mp.ellipk((1 - delta) ** 2)
            return (g - 1) / ((1 - delta) * g), g

        lo, hi = mp.log(mp.mpf(10) ** -60), mp.mpf(0)
        for _ in range(200):  # rho_of falls as t grows
            mid = (lo + hi) / 2
            if rho_of(mid)[0] > rho:
                lo = mid
            else:
                hi = mid
        return float(mp.exp((lo + hi) / 2)), float(rho_of((lo + hi) / 2)[1])


class TestZetaFromSpacing:
    def test_wide_spacing_decorrelates(self):
        assert zeta_from_spacing(PhysicalField(alpha=1.0, spacing=50.0)) < 1e-9

    def test_dense_spacing_saturates(self):
        zeta = zeta_from_spacing(PhysicalField(alpha=1.0, spacing=1e-8))
        assert zeta == pytest.approx(0.25, abs=1e-3)

    def test_unit_spacing_composition(self):
        zeta = zeta_from_spacing(PhysicalField(alpha=1.0, spacing=1.0))
        assert zeta == pytest.approx(zeta_from_rho(0.6019072301972346), abs=1e-12)
        assert zeta == pytest.approx(0.24921547956740725, abs=1e-9)

    def test_defined_where_rho_rounds_to_one(self):
        field = PhysicalField(alpha=1e-100, spacing=1e-100)
        assert edge_correlation(field) == 1.0
        assert zeta_from_spacing(field) == 0.25

    @pytest.mark.parametrize("alpha_d", [1.5, 2.0, 3.0, 5.0, 8.0, 20.0, 100.0, 400.0])
    def test_matches_high_precision_solve(self, alpha_d):
        # rho = alpha d K_1(alpha d) at 50 digits, then rho(zeta) = rho solved
        # for zeta in [rho/4, rho] (rho/zeta rises from 1 to 4)
        with mp.workdps(50):
            rho = alpha_d * mp.besselk(1, alpha_d)
        with mp.workdps(50 + 2 * int(-mp.log10(rho))):
            bracket = (rho / 4, min(rho, mp.mpf(ZETA_MAX)))
            ref = mp.findroot(lambda z: _mp_rho(z) / rho - 1, bracket, solver="illinois",
                              verify=False)
        field = PhysicalField(alpha=1.0, spacing=alpha_d)
        assert zeta_from_spacing(field) == pytest.approx(float(ref), rel=1e-15, abs=0.0)

    def test_strictly_decreasing_in_spacing(self):
        # restrict to the unsaturated range; beyond it the map is clamped
        ds = np.logspace(math.log10(0.35), math.log10(50.0), 40)
        vals = [zeta_from_spacing(PhysicalField(alpha=1.0, spacing=d)) for d in ds]
        assert all(b < a for a, b in zip(vals, vals[1:]))

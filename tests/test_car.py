import math

import numpy as np
import pytest

from hgmrf.car import (
    CarCoefficients,
    NoiseModel,
    SfcarParams,
    car_spectrum,
    sfcar_from_snr,
    sfcar_power,
    sfcar_snr,
    sfcar_spectrum,
)
from hgmrf.specfun import midpoint_grid

FOUR_PI_SQ = 4.0 * math.pi * math.pi


class TestCarCoefficients:
    def test_white_field(self):
        coeffs = CarCoefficients({(0, 0): 1.0})
        assert car_spectrum(coeffs, 0.3, -1.2) == pytest.approx(1.0 / FOUR_PI_SQ, rel=1e-15)

    def test_mirror_taps_added_automatically(self):
        coeffs = CarCoefficients({(0, 0): 1.0, (1, 0): -0.2})
        assert coeffs.theta[(-1, 0)] == -0.2

    def test_asymmetric_taps_rejected(self):
        with pytest.raises(ValueError, match="asymmetric"):
            CarCoefficients({(0, 0): 1.0, (1, 0): -0.2, (-1, 0): -0.1})

    def test_nonpositive_theta00_rejected(self):
        with pytest.raises(ValueError, match="theta_00"):
            CarCoefficients({(0, 0): 0.0})
        with pytest.raises(ValueError, match="theta_00"):
            CarCoefficients({(1, 0): 1.0, (-1, 0): 1.0})

    def test_invalid_spectrum_rejected_at_construction(self):
        with pytest.raises(ValueError, match="not positive"):
            CarCoefficients({(0, 0): 1.0, (1, 0): -0.6, (-1, 0): -0.6})

    def test_pointwise_spectrum_without_validation(self):
        coeffs = CarCoefficients({(0, 0): 1.0, (1, 0): -0.6, (-1, 0): -0.6}, validate=False)
        # denominator at (pi, 0) is 1 + 1.2 = 2.2
        assert car_spectrum(coeffs, math.pi, 0.0) == pytest.approx(1.0 / (8.8 * math.pi**2), rel=1e-14)
        with pytest.raises(ValueError, match="non-positive"):
            car_spectrum(coeffs, 0.0, 0.0)


class TestSfcar:
    def test_param_validation(self):
        with pytest.raises(ValueError):
            SfcarParams(kappa=1.0, zeta=0.25)
        with pytest.raises(ValueError):
            SfcarParams(kappa=1.0, zeta=-0.01)
        with pytest.raises(ValueError):
            SfcarParams(kappa=0.0, zeta=0.1)
        with pytest.raises(ValueError):
            NoiseModel(sigma2=0.0)
        with pytest.raises(ValueError):
            SfcarParams(kappa=math.inf, zeta=0.1)
        with pytest.raises(ValueError):
            NoiseModel(sigma2=math.inf)

    def test_spectrum_iid(self):
        params = SfcarParams(kappa=1.0, zeta=0.0)
        assert sfcar_spectrum(params, 1.1, -2.3) == pytest.approx(1.0 / FOUR_PI_SQ, rel=1e-15)

    def test_spectrum_origin(self):
        params = SfcarParams(kappa=1.0, zeta=0.2)
        assert sfcar_spectrum(params, 0.0, 0.0) == pytest.approx(5.0 / FOUR_PI_SQ, rel=1e-14)

    def test_spectrum_corner(self):
        params = SfcarParams(kappa=2.0, zeta=0.2)
        assert sfcar_spectrum(params, math.pi, math.pi) == pytest.approx(
            1.0 / (8.0 * math.pi**2 * 1.8), rel=1e-14
        )

    def test_matches_five_tap_car_spectrum(self):
        params = SfcarParams(kappa=1.3, zeta=0.21)
        coeffs = params.taps()
        rng = np.random.default_rng(20240817)
        w = rng.uniform(-np.pi, np.pi, size=(1000, 2))
        fs = sfcar_spectrum(params, w[:, 0], w[:, 1])
        fc = car_spectrum(coeffs, w[:, 0], w[:, 1])
        np.testing.assert_allclose(fs, fc, rtol=1e-13)

    def test_spectrum_extremes_at_origin_and_corner(self):
        params = SfcarParams(kappa=1.0, zeta=0.15)
        w = midpoint_grid(64)
        vals = sfcar_spectrum(params, w[:, None], w[None, :])
        assert vals.max() < sfcar_spectrum(params, 0.0, 0.0)
        assert vals.min() > sfcar_spectrum(params, math.pi, math.pi) - 1e-15


class TestPowerAndSnr:
    def test_unit_precision_white_field_has_unit_power(self):
        assert sfcar_power(SfcarParams(kappa=1.0, zeta=0.0)) == pytest.approx(1.0, rel=1e-15)
        assert sfcar_power(SfcarParams(kappa=4.0, zeta=0.0)) == pytest.approx(0.25, rel=1e-15)

    def test_power_at_zeta_eighth(self):
        # (2/pi) K(0.5) = 1.0731820071493645...
        assert sfcar_power(SfcarParams(kappa=1.0, zeta=0.125)) == pytest.approx(
            1.0731820071493645, rel=1e-13
        )

    def test_power_equals_spectrum_integral(self):
        n = 2048
        w = midpoint_grid(n)
        for zeta in (0.0, 0.1, 0.2, 0.24):
            params = SfcarParams(kappa=1.7, zeta=zeta)
            integral = float(np.mean(sfcar_spectrum(params, w[:, None], w[None, :]))) * FOUR_PI_SQ
            assert integral == pytest.approx(sfcar_power(params), rel=1e-6)

    def test_power_increasing_in_zeta(self):
        vals = [sfcar_power(SfcarParams(kappa=1.0, zeta=z)) for z in np.linspace(0, 0.249, 40)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_snr_values(self):
        assert sfcar_snr(SfcarParams(1.0, 0.0), NoiseModel(1.0)) == pytest.approx(1.0)
        assert sfcar_snr(SfcarParams(1.0, 0.0), NoiseModel(0.1)) == pytest.approx(10.0)
        assert sfcar_snr(SfcarParams(1.0, 0.125), NoiseModel(1.0)) == pytest.approx(
            1.0731820071493645, rel=1e-13
        )

    def test_from_snr_round_trip(self):
        noise = NoiseModel(sigma2=0.7)
        for snr in (0.01, 1.0, 10.0, 250.0):
            for zeta in (0.0, 0.1, 0.2499):
                params = sfcar_from_snr(snr, zeta, noise)
                assert sfcar_snr(params, noise) == pytest.approx(snr, rel=1e-12)

    @pytest.mark.parametrize("snr, zeta, sigma2", [(1.0, 0.25, 1.0), (1e308, 0.1, 1.0),
                                                   (1.0, 0.1, 1e-320)])
    def test_from_snr_names_its_inputs(self, snr, zeta, sigma2):
        # kappa = inf at sigma^2 = 1e-320 used to pass as a valid field
        with pytest.raises(ValueError, match="zeta") as info:
            sfcar_from_snr(snr, zeta, NoiseModel(sigma2))
        if zeta < 0.25:
            assert "SNR" in str(info.value) and "sigma^2" in str(info.value)

    def test_from_snr_trivial_kappas(self):
        assert sfcar_from_snr(1.0, 0.0, NoiseModel(1.0)).kappa == pytest.approx(1.0)
        assert sfcar_from_snr(10.0, 0.0, NoiseModel(1.0)).kappa == pytest.approx(0.1)

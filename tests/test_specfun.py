import math

import mpmath as mp
import numpy as np
import pytest

from hgmrf.specfun import (
    QuadratureSpec,
    agm,
    bessel_k1,
    elliptic_k,
    K1_CROSSOVER,
    one_minus_x_k1,
)


class TestEllipticK:
    def test_zero_modulus_is_half_pi(self):
        assert elliptic_k(0.0) == math.pi / 2

    def test_agm_value_at_half(self):
        # independently computed: K(0.5) = 1.685750354812596...
        assert elliptic_k(0.5) == pytest.approx(1.685750354812596, rel=1e-14)

    def test_near_singular_modulus_is_large_but_finite(self):
        val = elliptic_k(0.999999)
        assert val > 7.0
        assert math.isfinite(val)

    @pytest.mark.parametrize("bad", [-0.1, 1.0, 1.5, float("nan")])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            elliptic_k(bad)

    def test_strictly_increasing(self):
        grid = np.linspace(0.0, 0.9999, 100)
        vals = [elliptic_k(k) for k in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_against_integral_oracle(self, elliptic_k_oracle):
        for k in np.linspace(0.0, 0.98, 50):
            ref = elliptic_k_oracle(k)
            assert elliptic_k(k) == pytest.approx(ref, rel=1e-14)


    @pytest.mark.parametrize("k", [0.1, 0.5, 0.9, 0.999, 1 - 1e-8, 1 - 1e-15])
    def test_matches_high_precision(self, k):
        with mp.workdps(50):
            ref = mp.ellipk(mp.mpf(k) ** 2)
        assert elliptic_k(k) == pytest.approx(float(ref), rel=1e-15, abs=0.0)


class TestAgm:
    @pytest.mark.parametrize("j", [1, 4, 10, 20, 30, 40, 52, 53])
    def test_complement_as_k_prime_nears_one(self, j):
        # k' = 1 - 2^-j and 1 - k' are both exact doubles
        k_prime, one_minus = 1.0 - 2.0**-j, 2.0**-j
        with mp.workdps(50):
            mean = mp.agm(1, mp.mpf(k_prime))
            ratio = (1 - mean) / mp.mpf(one_minus)
        m, r = agm(k_prime, one_minus)
        assert m == pytest.approx(float(mean), rel=1e-15, abs=0.0)
        assert r == pytest.approx(float(ratio), rel=1e-15, abs=0.0)

    def test_complement_beyond_rounding_of_k_prime(self):
        # 1 - k' = 1e-300 rounds k' to 1; (1 - M)/(1 - k') = (1 + (1 - k')/8)/2 + ...
        assert agm(1.0, 1e-300) == (1.0, 0.5)


class TestBesselK1:
    def test_value_at_one(self):
        # independently computed: K_1(1) = 0.6019072301972346...
        assert bessel_k1(1.0) == pytest.approx(0.6019072301972346, rel=1e-12)

    def test_small_argument_limit(self):
        x = 1e-8
        val = bessel_k1(x)
        assert val == pytest.approx(1e8, rel=1e-6)
        assert x * val == pytest.approx(1.0, abs=1e-6)

    def test_large_argument_asymptotic(self):
        x = 20.0
        assert bessel_k1(x) == pytest.approx(math.sqrt(math.pi / 40.0) * math.exp(-20.0), rel=0.05)

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            bessel_k1(bad)

    @pytest.mark.parametrize("x", [1e3, 1e308, np.finfo(float).max])
    def test_zero_where_exp_underflows(self, x):
        # exp(-x) underflows from x ~ 745; the recurrence start 2(1 + x)
        # overflows from x ~ 9e307
        assert bessel_k1(x) == 0.0
        assert one_minus_x_k1(x) == 1.0

    def test_strictly_decreasing_and_positive(self):
        grid = np.logspace(-3, math.log10(50.0), 120)
        vals = [bessel_k1(x) for x in grid]
        assert all(v > 0 for v in vals)
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_x_k1_bounded_in_unit_interval(self):
        for x in np.logspace(-8, 1.5, 60):
            assert 0.0 < x * bessel_k1(x) < 1.0

    def test_crossover_continuity(self):
        below = bessel_k1(np.nextafter(K1_CROSSOVER, 0.0))
        above = bessel_k1(np.nextafter(K1_CROSSOVER, 4.0))
        assert below == pytest.approx(above, rel=1e-10)

    @pytest.mark.parametrize("x", [2.0, float(np.nextafter(2.0, 3.0)), 2.5, 3.3, 5.0, 8.0,
                                   13.0, 30.0, 77.7, 150.0, 300.0, 512.0, 700.0])
    def test_integral_branch_matches_high_precision(self, x):
        with mp.workdps(50):
            k1 = mp.besselk(1, x)
            complement = 1 - x * k1
        assert bessel_k1(x) == pytest.approx(float(k1), rel=2e-15, abs=0.0)
        assert one_minus_x_k1(x) == pytest.approx(float(complement), rel=2e-15, abs=0.0)

    def test_against_integral_oracle(self, bessel_k1_oracle):
        for x in np.logspace(math.log10(0.05), math.log10(30.0), 50):
            ref = bessel_k1_oracle(x)
            assert bessel_k1(x) == pytest.approx(ref, rel=1e-12)


class TestQuadratureSpec:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"points_per_axis": 4},
            {"points_per_axis": 64, "max_points_per_axis": 32},
            {"relative_tolerance": 0.0},
            {"relative_tolerance": 0.5},
        ],
    )
    def test_spec_validation(self, kwargs):
        with pytest.raises(ValueError):
            QuadratureSpec(**kwargs)

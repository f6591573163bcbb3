import math

import numpy as np
import pytest

from hgmrf.network import (
    NetworkConfig,
    communication_energy,
    density,
    evaluate_network,
    hop_count_total,
    total_energy,
)
from hgmrf.specfun import NonConvergenceError, QuadratureSpec


def brute_force_hops(n: int) -> int:
    c = n // 2
    idx = np.arange(n)
    return int(np.sum(np.abs(idx[:, None] - c) + np.abs(idx[None, :] - c)))


class TestDensity:
    def test_examples(self):
        assert density(NetworkConfig(n=3, spacing=0.5)) == pytest.approx(9.0)
        assert density(NetworkConfig(n=2, spacing=1.0)) == pytest.approx(4.0)

    def test_large_grid_limit(self):
        assert density(NetworkConfig(n=4000, spacing=1.0)) == pytest.approx(1.0, rel=1e-3)


class TestHopCount:
    def test_examples(self):
        assert hop_count_total(3) == 12
        assert hop_count_total(5) == 60
        assert hop_count_total(2) == 4

    def test_closed_form_equals_brute_force(self):
        for n in range(1, 301):
            assert hop_count_total(n) == brute_force_hops(n)

    def test_validation(self):
        with pytest.raises(ValueError):
            hop_count_total(0)


class TestTotalEnergy:
    def test_examples(self):
        cfg = NetworkConfig(n=3, spacing=1.0, sensing_energy=1.0,
                            comm_energy_coeff=1.0, loss_exponent=2.0)
        assert total_energy(cfg) == pytest.approx(21.0)
        cfg = NetworkConfig(n=3, spacing=0.5, sensing_energy=0.0,
                            comm_energy_coeff=2.0, loss_exponent=2.0)
        assert total_energy(cfg) == pytest.approx(6.0)

    def test_cubic_communication_scaling(self):
        def comm_per_cubed(n):
            cfg = NetworkConfig(n=n, spacing=1.0)
            return communication_energy(cfg) / n**3

        assert comm_per_cubed(101) == pytest.approx(comm_per_cubed(201), rel=0.2)
        # Cauchy ratio tightens for large n
        assert comm_per_cubed(256) == pytest.approx(comm_per_cubed(512), rel=0.05)

    def test_monotone_in_each_parameter(self):
        base = NetworkConfig(n=16, spacing=1.5, sensing_energy=1.0,
                             comm_energy_coeff=1.0, loss_exponent=2.0)
        e0 = total_energy(base)
        from dataclasses import replace

        assert total_energy(replace(base, sensing_energy=2.0)) > e0
        assert total_energy(replace(base, comm_energy_coeff=2.0)) > e0
        assert total_energy(replace(base, spacing=2.0)) > e0
        assert total_energy(replace(base, n=17)) > e0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            NetworkConfig(n=1, spacing=1.0)
        with pytest.raises(ValueError):
            NetworkConfig(n=4, spacing=0.0)
        with pytest.raises(ValueError):
            NetworkConfig(n=4, spacing=1.0, loss_exponent=1.5)
        with pytest.raises(ValueError):
            NetworkConfig(n=4, spacing=1.0, snr_per_joule=0.0)
        with pytest.raises(ValueError):
            NetworkConfig(n=4, spacing=1.0, sensing_energy=-1.0)

    @pytest.mark.parametrize("field", ["spacing", "sensing_energy", "comm_energy_coeff",
                                       "loss_exponent", "snr_per_joule", "alpha",
                                       "noise_sigma2"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_config_rejects_non_finite(self, field, value):
        # a NaN or infinite energy parameter used to reach the totals
        with pytest.raises(ValueError):
            NetworkConfig(**{"n": 4, "spacing": 1.0, field: value})


    @pytest.mark.parametrize("kwargs, quantity", [
        ({"spacing": 1e155}, "d^nu"),
        ({"spacing": 1e100, "loss_exponent": 3.5}, "d^nu"),
        ({"spacing": 1e-200, "alpha": 1e100}, "density"),
        ({"spacing": 1e100, "sensing_energy": 1e308}, "energy"),
    ])
    def test_config_names_the_overflowing_quantity(self, kwargs, quantity):
        # used to reach the user as a bare OverflowError from evaluate_network
        with pytest.raises(ValueError, match="spacing") as info:
            NetworkConfig(n=4, **kwargs)
        assert quantity in str(info.value)


class TestEvaluateNetwork:
    def test_wide_spacing_gives_uncorrelated_rates(self):
        cfg = NetworkConfig(n=32, spacing=50.0, sensing_energy=1.0,
                            snr_per_joule=1.0, alpha=1.0)
        report = evaluate_network(cfg)
        assert report.snr == pytest.approx(1.0)
        assert report.per_node_mi == pytest.approx(0.5 * math.log(2.0), abs=1e-6)

    def test_totals_are_exact_products(self):
        cfg = NetworkConfig(n=32, spacing=2.0, sensing_energy=1.0, snr_per_joule=10.0)
        report = evaluate_network(cfg)
        assert report.node_count == 1024
        assert report.total_kli == 1024 * report.per_node_kli
        assert report.total_mi == 1024 * report.per_node_mi
        assert report.efficiency_kli == report.total_kli / report.total_energy

    def test_energy_accounting(self):
        cfg = NetworkConfig(n=64, spacing=1.0, sensing_energy=1.0,
                            comm_energy_coeff=1.0, loss_exponent=2.0,
                            snr_per_joule=10.0)
        report = evaluate_network(cfg)
        assert report.total_energy == pytest.approx(4096 + brute_force_hops(64))

    def test_unconverged_rate_raises(self):
        config = NetworkConfig(n=8, spacing=0.02, alpha=1.0)
        spec = QuadratureSpec(points_per_axis=8, max_points_per_axis=16)
        with pytest.raises(NonConvergenceError):
            evaluate_network(config, spec)

    def test_zero_sensing_energy_rejected(self):
        cfg = NetworkConfig(n=8, spacing=1.0, sensing_energy=0.0)
        with pytest.raises(ValueError, match="zero-SNR"):
            evaluate_network(cfg)

    def test_efficiency_rescaling_without_comm_energy(self):
        # with E0 = 0 the SNR product is unchanged and energy scales by c
        base = NetworkConfig(n=16, spacing=2.0, sensing_energy=1.0,
                             comm_energy_coeff=0.0, snr_per_joule=4.0)
        scaled = NetworkConfig(n=16, spacing=2.0, sensing_energy=2.0,
                               comm_energy_coeff=0.0, snr_per_joule=2.0)
        eta = evaluate_network(base).efficiency_kli
        eta_scaled = evaluate_network(scaled).efficiency_kli
        assert eta_scaled == eta / 2.0

import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from hgmrf import experiments
from hgmrf.experiments import (
    FitResult,
    SweepResult,
    exp_area_scaling,
    exp_density_scaling,
    exp_energy_scaling,
    exp_snr_limits,
    exp_spacing_convergence,
    fit_power_law,
)
from hgmrf.network import NetworkConfig, evaluate_network, node_rates_batch
from hgmrf.physmap import PhysicalField, correlation_parameters
from hgmrf.specfun import NonConvergenceError, QuadratureSpec

FAST_QUAD = QuadratureSpec(points_per_axis=128, relative_tolerance=1e-8,
                           max_points_per_axis=2048)


class TestFitPowerLaw:
    def test_exact_quadratic(self):
        xs = np.linspace(1.0, 10.0, 10)
        fit = fit_power_law([(x, 3.0 * x**2) for x in xs])
        assert fit.estimates["exponent"] == pytest.approx(2.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.estimates["log_intercept"] == pytest.approx(math.log(3.0), abs=1e-10)

    def test_inverse_law(self):
        xs = np.logspace(0, 1, 12)
        fit = fit_power_law([(x, 5.0 / x) for x in xs])
        assert fit.estimates["exponent"] == pytest.approx(-1.0, abs=1e-12)

    def test_perturbed_two_thirds(self):
        xs = np.logspace(0, 2, 30)
        fit = fit_power_law([(x, x ** (2.0 / 3.0) * (1.0 + 0.01 * math.sin(x))) for x in xs])
        assert fit.estimates["exponent"] == pytest.approx(2.0 / 3.0, abs=0.01)

    def test_rejections(self):
        with pytest.raises(ValueError):
            fit_power_law([(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)])
        with pytest.raises(ValueError):
            fit_power_law([(1.0, 1.0), (1.0, 2.0), (1.0, 3.0), (1.0, 4.0)])
        with pytest.raises(ValueError):
            fit_power_law([(1.0, 1.0), (2.0, -2.0), (3.0, 3.0), (4.0, 4.0)])


class TestSweepResult:
    def test_requires_increasing_parameters(self):
        with pytest.raises(ValueError):
            SweepResult("x", ((2.0, {"y": 1.0}), (1.0, {"y": 2.0})))

    def test_requires_common_keys(self):
        with pytest.raises(ValueError):
            SweepResult("x", ((1.0, {"y": 1.0}), (2.0, {"z": 2.0})))

    def test_fit_model_checked(self):
        with pytest.raises(ValueError):
            FitResult(model="parabola", estimates={}, r_squared=1.0, window=(0, 1))


class TestAreaScaling:
    BASE = NetworkConfig(n=32, spacing=2.0, sensing_energy=1.0, comm_energy_coeff=1.0,
                         loss_exponent=2.0, snr_per_joule=10.0, alpha=1.0)

    def test_efficiency_exponent_near_minus_half(self):
        sweep, fit = exp_area_scaling(self.BASE, [32, 45, 64, 91, 128], FAST_QUAD)
        assert fit.model == "power_law"
        assert fit.estimates["exponent"] == pytest.approx(-0.5, abs=0.05)
        assert fit.r_squared > 0.999

    def test_information_linear_in_area(self):
        sweep, fit = exp_area_scaling(self.BASE, [32, 45, 64, 91, 128], FAST_QUAD)
        # the per-node rate is independent of n (fixed zeta, SNR) ...
        assert np.ptp(sweep.column("per_node_kli")) == 0.0
        # ... so information per area deviates from constant only by the
        # n^2/(n-1)^2 area convention, which shrinks as the grid grows
        per_area = sweep.column("total_kli") / sweep.column("area")
        window = sweep.column("area") >= sweep.column("area").max() / 10
        spread = np.ptp(per_area[window]) / per_area[window].mean()
        assert spread < 0.035

    def test_rows_reproducible(self):
        s1, _ = exp_area_scaling(self.BASE, [32, 45, 64, 91, 128], FAST_QUAD)
        s2, _ = exp_area_scaling(self.BASE, np.array([32, 45, 64, 91, 128]), FAST_QUAD)
        assert s1 == s2  # numpy integer sides are integers too

    def test_comm_free_degenerate_exponent_zero(self):
        base = replace(self.BASE, comm_energy_coeff=0.0)
        sweep, _ = exp_area_scaling(base, [32, 45, 64, 91, 128], FAST_QUAD)
        pts = list(zip(sweep.column("area"), sweep.column("efficiency_kli")))
        fit = fit_power_law(pts)
        assert fit.estimates["exponent"] == pytest.approx(0.0, abs=0.02)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            exp_area_scaling(self.BASE, [32, 64, 128], FAST_QUAD)

    def test_narrow_span_rejected(self):
        with pytest.raises(ValueError, match="decade"):
            exp_area_scaling(self.BASE, [32, 36, 40, 44, 48], FAST_QUAD)


class TestSpacingConvergence:
    def test_fitted_decay_tracks_double_rate(self):
        # the deficit decays like d * exp(-2 alpha d): the quadratic
        # leading order in zeta doubles the exponential rate relative to
        # the edge correlation itself
        sweep, fit = exp_spacing_convergence(1.0, 10.0, np.linspace(3.0, 8.0, 8))
        assert fit.model == "exponential_with_sqrt_prefactor"
        assert fit.estimates["decay_rate_kli"] == pytest.approx(1.93, abs=0.1)
        assert fit.r_squared > 0.999
        gaps = sweep.column("gap_kli")
        assert np.all(gaps > 0)
        assert np.all(np.diff(gaps) < 0)

    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    def test_d_prefactor_fit_recovers_double_rate(self, alpha):
        # on the grids of acceptance criterion 9 the gap goes as
        # d exp(-2 alpha d), so the fit with a d prefactor gives 2 alpha,
        # 2.024 and 4.048, where the paper's sqrt(d) prefactor biases it low
        ds = np.linspace(3.0 / alpha, 8.0 / alpha, 11)
        _, fit = exp_spacing_convergence(alpha, 10.0, ds)
        for tag in ("kli", "mi"):
            assert fit.estimates[f"decay_rate_{tag}_d_prefactor"] == pytest.approx(
                2.0 * alpha, rel=0.02)
            assert fit.estimates[f"decay_rate_{tag}"] < 2.0 * alpha

    def test_scale_invariance_in_alpha(self):
        _, fit1 = exp_spacing_convergence(1.0, 10.0, np.linspace(3.0, 6.0, 6))
        _, fit2 = exp_spacing_convergence(2.0, 10.0, np.linspace(1.5, 3.0, 6))
        assert fit2.estimates["decay_rate_kli"] == pytest.approx(
            2.0 * fit1.estimates["decay_rate_kli"], rel=0.02
        )

    def test_requires_tail_regime(self):
        with pytest.raises(ValueError, match="tail"):
            exp_spacing_convergence(1.0, 10.0, [1.0, 2.0, 3.0, 4.0])

    def test_wide_gaps_are_resolved_and_fitted(self, spacing_gap_oracle):
        # at d = 30 and 35 the gap is ~rho**2 ~ 1e-25; as the difference of
        # two rates it was zero or an ulp of the base rate, and was excluded
        # from the fit with a warning
        ds = [3.0, 4.0, 5.0, 6.0, 30.0, 35.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sweep, fit = exp_spacing_convergence(1.0, 10.0, ds)
        for tag, col in (("kli", 0), ("mi", 1)):
            gaps = sweep.column(f"gap_{tag}")
            assert np.all(gaps > 0)
            for d, gap in zip(ds[-2:], gaps[-2:]):
                zeta = correlation_parameters(PhysicalField(1.0, d))[1]
                want = float(spacing_gap_oracle(zeta, 10.0, 32)[col])
                assert gap == pytest.approx(want, rel=1e-13, abs=0)
            slope = np.polyfit(np.array(ds), np.log(gaps / np.sqrt(ds)), 1)[0]
            assert fit.estimates[f"decay_rate_{tag}"] == pytest.approx(-slope, rel=1e-12)

    def test_negative_kli_gap_refused_below_unit_snr(self):
        # the KLI integrand is convex at low SNR, so correlation adds KLI
        # there: its gap is negative and has no log to fit
        with pytest.raises(ValueError) as err:
            exp_spacing_convergence(1.0, 1e-3, [3.0, 4.0, 5.0, 6.0])
        message = str(err.value)
        assert message.startswith("the kli gap at spacing 3.0 is -")
        assert message.endswith(", not positive") and "\n" not in message


class TestDensityScaling:
    def test_sweep_behavior(self):
        ns = [64, 91, 128, 181, 256]
        sweep, fit = exp_density_scaling(400.0, 1.0, 10.0, ns, FAST_QUAD)
        # true decay carries a log(1/d) factor, so the fitted exponent
        # sits above -1 at desk scales
        assert -1.0 < fit.estimates["exponent"] < -0.75
        assert fit.r_squared > 0.99
        per_area = sweep.column("kli_per_area")
        assert np.all(np.diff(per_area) > 0)  # slow logarithmic growth

    def test_trichotomy_directions(self):
        ns = [64, 91, 128, 181, 256]
        sweep, _ = exp_density_scaling(400.0, 1.0, 10.0, ns, FAST_QUAD)
        decreasing = sweep.column("eta_nosense_nu2.5")
        increasing = sweep.column("eta_nosense_nu3.5")
        assert np.all(np.diff(decreasing[-3:]) < 0)
        assert np.all(np.diff(increasing[-3:]) > 0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            exp_density_scaling(-1.0, 1.0, 10.0, [32, 64, 128, 256], FAST_QUAD)
        with pytest.raises(ValueError):
            exp_density_scaling(400.0, 1.0, 10.0, [32, 40, 48, 56], FAST_QUAD)


class TestSnrLimits:
    def test_limit_exponents_and_slopes(self):
        sweep, fit = exp_snr_limits(0.1, FAST_QUAD)
        assert fit.estimates["low_snr_exponent_kli"] == pytest.approx(2.0, abs=0.05)
        assert fit.estimates["low_snr_exponent_mi"] == pytest.approx(1.0, abs=0.05)
        assert fit.estimates["high_snr_slope_kli"] == pytest.approx(1.0, abs=0.02)
        assert fit.estimates["high_snr_slope_mi"] == pytest.approx(1.0, abs=0.02)
        assert sweep.parameter_name == "snr"

    def test_needs_enough_low_points(self):
        with pytest.raises(ValueError):
            exp_snr_limits(0.1, FAST_QUAD, low_snr=[1e-4, 1e-3, 1e-2])


class TestEnergyScaling:
    BASE = NetworkConfig(n=64, spacing=2.0, sensing_energy=1.0, comm_energy_coeff=1.0,
                         loss_exponent=2.0, snr_per_joule=1.0, alpha=1.0)

    def test_area_sweep_exponent_two_thirds(self):
        ns = [32, 45, 64, 91, 128, 181, 256]
        sweep, fit = exp_energy_scaling(self.BASE, "fixed_sensing_area_sweep", ns, FAST_QUAD)
        assert fit.estimates["exponent"] == pytest.approx(2.0 / 3.0, abs=0.05)
        assert fit.estimates["exponent_mi"] == pytest.approx(2.0 / 3.0, abs=0.05)

    def test_sensing_sweep_logarithmic_trend(self):
        values = np.logspace(2, 6, 9)
        sweep, fit = exp_energy_scaling(self.BASE, "fixed_area_sensing_sweep", values, FAST_QUAD)
        assert fit.model == "logarithmic"
        ratios = sweep.column("mi_over_half_log_e")
        top = sweep.parameter_values >= values.max() / 10
        assert np.ptp(ratios[top]) / ratios[top].mean() < 0.1

    def test_unknown_scenario(self):
        with pytest.raises(ValueError, match="scenario"):
            exp_energy_scaling(self.BASE, "bogus", [1, 2, 3, 4], FAST_QUAD)

    def test_narrow_energy_span_rejected(self):
        with pytest.raises(ValueError, match="decades"):
            exp_energy_scaling(self.BASE, "fixed_area_sensing_sweep",
                               [100.0, 150.0, 200.0, 300.0], FAST_QUAD)


@pytest.mark.parametrize("sweep", [
    lambda ns: exp_area_scaling(TestAreaScaling.BASE, ns, FAST_QUAD),
    lambda ns: exp_density_scaling(400.0, 1.0, 10.0, ns, FAST_QUAD),
    lambda ns: exp_energy_scaling(TestEnergyScaling.BASE, "fixed_sensing_area_sweep", ns,
                                  FAST_QUAD),
], ids=["area", "density", "energy"])
@pytest.mark.parametrize("bad", [32.9, 90.5, 1.0, 0.0, -3.0, math.inf, math.nan])
def test_grid_side_not_an_integer_of_at_least_two_rejected(sweep, bad):
    # a side of 32.9 used to run at n = 32 and be tabulated as 32.9; a
    # density side of 1 divided by n - 1 = 0
    with pytest.raises(ValueError,
                       match=re.escape(f"grid side must be an integer >= 2, got {bad!r}")):
        sweep([64, bad, 128, 181, 256])


#: Grid sides of the CLI's default area, density and energy sweeps.
DEFAULT_SIDES = [32, 45, 64, 91, 128, 181, 256, 362, 512]

#: Report field of each network-sweep column that copies one.
REPORT_FIELDS = {"area": "area", "density": "density", "snr": "snr",
                 "per_node_kli": "per_node_kli", "per_node_mi": "per_node_mi",
                 "total_kli": "total_kli", "total_mi": "total_mi", "energy": "total_energy",
                 "efficiency_kli": "efficiency_kli", "efficiency_mi": "efficiency_mi"}


def _density_config(n):
    return NetworkConfig(n=n, spacing=math.sqrt(400.0) / (n - 1), snr_per_joule=10.0)


@pytest.mark.parametrize("run, config, integrated_rows", [
    (lambda ns: exp_area_scaling(TestAreaScaling.BASE, ns, FAST_QUAD),
     lambda n: replace(TestAreaScaling.BASE, n=n), 1),
    (lambda ns: exp_energy_scaling(TestEnergyScaling.BASE, "fixed_sensing_area_sweep", ns,
                                   FAST_QUAD),
     lambda n: replace(TestEnergyScaling.BASE, n=n), 1),
    (lambda ns: exp_density_scaling(400.0, 1.0, 10.0, ns, FAST_QUAD),
     _density_config, 9),
], ids=["area", "fixed_sensing_area_sweep", "density"])
def test_network_sweep_integrates_each_rate_once(monkeypatch, run, config, integrated_rows):
    # the per-node rates of a row depend on alpha, spacing and SNR only: a
    # sweep over n at one spacing and SNR integrates them once, where it
    # used to integrate them once per row; all rows go in one batch
    batches = []
    monkeypatch.setattr(experiments, "node_rates_batch",
                        lambda configs, spec: batches.append(len(configs))
                        or node_rates_batch(configs, spec))
    sweep, _ = run(DEFAULT_SIDES)
    assert batches == [integrated_rows]
    monkeypatch.undo()
    for x, row in sweep.rows:
        report = evaluate_network(config(int(x)), FAST_QUAD)
        for column, value in row.items():
            if column in REPORT_FIELDS:
                assert value == getattr(report, REPORT_FIELDS[column]), (x, column)


def test_network_sweep_with_one_unconverged_row_raises_as_evaluate_network():
    # the rows converge at 512 nodes but for the last, at alpha*d = 1e-100,
    # which needs 2048: the batch raises as evaluate_network does for it
    spec = QuadratureSpec(max_points_per_axis=1024)
    points = [(n, NetworkConfig(n=n, spacing=2.0)) for n in (8, 16, 32)]
    points.append((64, NetworkConfig(n=64, spacing=1e-100)))
    assert all(r.converged for r in node_rates_batch([c for _, c in points[:3]], spec))
    message = "^rate quadrature did not converge for this network$"
    with pytest.raises(NonConvergenceError, match=message):
        evaluate_network(points[-1][1], spec)
    with pytest.raises(NonConvergenceError, match=message):
        experiments._network_sweep("n", points, spec, lambda config, report: {})


def test_sensing_sweep_rows_equal_evaluate_network():
    values = np.logspace(2, 6, 9)
    sweep, _ = exp_energy_scaling(TestEnergyScaling.BASE, "fixed_area_sensing_sweep", values,
                                  FAST_QUAD)
    for x, row in sweep.rows:
        report = evaluate_network(replace(TestEnergyScaling.BASE, sensing_energy=x), FAST_QUAD)
        assert (row["snr"], row["energy"], row["total_kli"], row["total_mi"]) == (
            report.snr, report.total_energy, report.total_kli, report.total_mi)
    assert len(set(sweep.column("total_kli"))) == len(values)

"""Scaling-law sweeps and asymptote fitting.

Each experiment sweeps one knob of the network model, tabulates the
information/energy outputs, and fits the asymptotic law the sweep probes
(power law in area or density, sqrt-prefactor exponential decay in
spacing, logarithmic or power growth in energy).  Asymptotic fits default
to the top decade of the swept abscissa; pre-asymptotic points bias slope
estimates.  Fitted constants are published with their r^2 so downstream
consumers can judge fit quality; none of them are hard-coded anywhere.
Each sweep integrates the rates of all its rows in one batched quadrature
(``rates.sfcar_rates_batch``: one kernel call per doubling round) and
raises NonConvergenceError if any is unconverged.  The area, density and
energy sweeps tabulate ``network_report`` rows through one helper, which
integrates the per-node rates once for each distinct (alpha, spacing,
SNR) among its rows.
"""

import math
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .network import (NetworkConfig, communication_energy, measurement_snr, network_report,
                      node_rates_batch)
from .physmap import PhysicalField, correlation_parameters
from .rates import sfcar_rate_gaps, sfcar_rates_batch, sfcar_row, sfcar_row_at_spacing
from .specfun import DEFAULT_QUADRATURE, QuadratureSpec, require_converged

FIT_MODELS = ("power_law", "exponential_with_sqrt_prefactor", "logarithmic")

#: Loss exponents of the density sweep's sensing-free efficiencies, about nu = 3.
TRICHOTOMY_LOSS_EXPONENTS = (2.5, 3.0, 3.5)
#: SNRs of the high-SNR half of the snr sweep.
HIGH_SNR = (1e3, 1e4, 1e5)


@dataclass(frozen=True)
class SweepResult:
    """Ordered sweep table: one (parameter value, named outputs) per row."""

    parameter_name: str
    rows: Tuple[Tuple[float, Dict[str, float]], ...]

    def __post_init__(self):
        xs = [x for x, _ in self.rows]
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError("parameter values must be strictly increasing")
        keys = {frozenset(outputs) for _, outputs in self.rows}
        if len(keys) > 1:
            raise ValueError("every row must carry the same output keys")

    def column(self, key: str) -> np.ndarray:
        return np.array([outputs[key] for _, outputs in self.rows])

    @property
    def parameter_values(self) -> np.ndarray:
        return np.array([x for x, _ in self.rows])


@dataclass(frozen=True)
class FitResult:
    """Fitted asymptote: model family, named estimates, r^2, fit window;
    None for an estimate or r^2 that the data do not fix."""

    model: str
    estimates: Dict[str, Optional[float]]
    r_squared: Optional[float]
    window: Tuple[float, float]

    def __post_init__(self):
        if self.model not in FIT_MODELS:
            raise ValueError(f"unknown fit model {self.model!r}")


def _ols(x: np.ndarray, y: np.ndarray):
    """Least-squares line y = a + b x; returns (b, a, r^2), in closed form on
    x/max|x| centred: neither the scale of x nor its offset conditions it."""
    if len(x) < 2 or float(np.ptp(x)) == 0.0:
        raise ValueError("degenerate abscissa: no spread to fit")
    scale = float(np.max(np.abs(x)))
    u = x / scale
    u_mean = float(u.mean())
    u -= u_mean
    total = y - y.mean()
    slope = float(u @ total) / float(u @ u)
    resid = total - slope * u
    ss_tot = float(total @ total)
    r2 = 1.0 - float(resid @ resid) / ss_tot if ss_tot > 0 else 1.0
    return slope / scale, float(y.mean()) - slope * u_mean, r2


def fit_power_law(points: Sequence[Tuple[float, float]]) -> FitResult:
    """OLS of log y on log x; estimates exponent and log-intercept."""
    if len(points) < 4:
        raise ValueError("power-law fit needs at least 4 points")
    x = np.array([p[0] for p in points], dtype=np.float64)
    y = np.array([p[1] for p in points], dtype=np.float64)
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("power-law fit needs positive coordinates")
    exponent, intercept, r2 = _ols(np.log(x), np.log(y))
    return FitResult(
        model="power_law",
        estimates={"exponent": exponent, "log_intercept": intercept},
        r_squared=r2,
        window=(float(x.min()), float(x.max())),
    )


def _top_decade(xs: np.ndarray) -> np.ndarray:
    return xs >= xs.max() / 10.0


def _span_decades(xs: np.ndarray) -> float:
    return math.log10(float(xs.max()) / float(xs.min()))


def _grid_sides(values: Sequence[float]) -> List[int]:
    # sorted ints; a side that is not an integer >= 2 is refused, as by
    # NetworkConfig, not truncated
    bad = [v for v in values if not (float(v).is_integer() and v >= 2)]
    if bad:
        raise ValueError(f"grid side must be an integer >= 2, got {bad[0]!r}")
    return sorted(int(v) for v in values)


def _network_sweep(parameter_name: str, points: Sequence[Tuple[float, NetworkConfig]],
                   spec: QuadratureSpec, outputs: Callable[..., Dict[str, float]]):
    """Sweep table with the row outputs(config, report) at each (x, config)
    point; the per-node rates of the distinct (alpha, spacing, SNR) are
    integrated once each, all in one quadrature."""
    if len(points) < 4:
        raise ValueError("need at least 4 sweep points")
    keys = [(config.alpha, config.spacing, measurement_snr(config)) for _, config in points]
    distinct: Dict[Tuple[float, float, float], NetworkConfig] = {}
    for key, (_, config) in zip(keys, points):
        distinct.setdefault(key, config)
    rates = dict(zip(distinct, node_rates_batch(list(distinct.values()), spec)))
    rows = [(float(x), outputs(config, network_report(config, rates[key])))
            for key, (x, config) in zip(keys, points)]
    return SweepResult(parameter_name, tuple(rows))


def exp_area_scaling(base: NetworkConfig, n_values: Sequence[int],
                     spec: QuadratureSpec = DEFAULT_QUADRATURE):
    """Fixed spacing (fixed density), growing grid: total information vs
    area, and efficiency decay.

    Returns the sweep table and the power-law fit of KLI efficiency
    against area over the top decade (the MI exponent rides along in the
    estimates).  Requires >= 4 grid sizes spanning at least a decade of
    area.
    """
    def outputs(config, report):
        return {"area": report.area, "density": report.density, "snr": report.snr,
                "per_node_kli": report.per_node_kli, "per_node_mi": report.per_node_mi,
                "total_kli": report.total_kli, "total_mi": report.total_mi,
                "energy": report.total_energy, "efficiency_kli": report.efficiency_kli,
                "efficiency_mi": report.efficiency_mi}

    sweep = _network_sweep("n", [(n, replace(base, n=n)) for n in _grid_sides(n_values)],
                           spec, outputs)
    areas = sweep.column("area")
    if _span_decades(areas) < 1.0:
        raise ValueError("sweep must span at least one decade of area")
    sel = _top_decade(areas)
    exp_kli, icept, r2 = _ols(np.log(areas[sel]), np.log(sweep.column("efficiency_kli")[sel]))
    exp_mi, _, _ = _ols(np.log(areas[sel]), np.log(sweep.column("efficiency_mi")[sel]))
    # Linearity of information in area: affine-through-origin slope is the
    # mean per-area value over the same window.
    per_area = sweep.column("total_kli")[sel] / areas[sel]
    fit = FitResult(
        model="power_law",
        estimates={
            "exponent": exp_kli,
            "log_intercept": icept,
            "exponent_mi": exp_mi,
            "info_per_area": float(per_area.mean()),
        },
        r_squared=r2,
        window=(float(areas[sel].min()), float(areas[sel].max())),
    )
    return sweep, fit


def exp_spacing_convergence(alpha: float, snr: float, d_values: Sequence[float],
                            spec: QuadratureSpec = DEFAULT_QUADRATURE):
    """Decay of the information deficit as sensors spread out.

    Tabulates gaps Delta(d) = rate(zeta=0) - rate(d) for both measures and
    fits log(Delta/sqrt(d)) = log c - decay_rate * d, the paper's model.
    The gap goes as rho^2 ~ d exp(-2 alpha d), so the same gaps are also
    fitted as log(Delta/d) = log c' - rate * d, whose rate is the extra
    estimate decay_rate_<measure>_d_prefactor, near 2 alpha where the
    sqrt(d) prefactor leaves the fitted rate biased low.  Spacings must sit
    in the tail regime alpha*d >= 3, where the edge correlation is already
    exponentially small.

    The gaps come from ``rates.sfcar_rate_gaps`` at the rates' (rho, zeta),
    not as differences: a series, exact up to rounding, that takes no
    quadrature.  Raises NonConvergenceError if a rate is unconverged, and
    ValueError if a gap is not positive: the KLI gap below SNR 1, and any
    gap past alpha*d ~ 350, where it underflows.
    """
    d_values = sorted(float(d) for d in d_values)
    if len(d_values) < 4:
        raise ValueError("need at least 4 sweep points")
    if alpha * d_values[0] < 3.0:
        raise ValueError("spacings must satisfy alpha*d >= 3 (tail regime)")
    rate_rows, gap_rows = [], []
    for d in d_values:
        field = PhysicalField(alpha=alpha, spacing=d)
        # the row reads the parameters physmap cached for rho: one K_1 per spacing
        rho, zeta, *_ = correlation_parameters(field)
        rate_rows.append(sfcar_row_at_spacing(field, snr))
        gap_rows.append((zeta, rho, snr))
    rates, gaps = sfcar_rates_batch(rate_rows, spec), sfcar_rate_gaps(gap_rows)
    require_converged(rates)
    rows = [(d, {"rho": rho, "kli": res.kli_rate, "mi": res.mi_rate,
                 "gap_kli": gap.kli_rate, "gap_mi": gap.mi_rate})
            for d, (_, rho, _), res, gap in zip(d_values, gap_rows, rates, gaps)]
    sweep = SweepResult("spacing", tuple(rows))
    ds = sweep.parameter_values
    estimates: Dict[str, float] = {}
    r2: Dict[str, float] = {}
    for tag in ("kli", "mi"):
        gap = sweep.column(f"gap_{tag}")
        for d, g in zip(d_values, gap):
            if not g > 0.0:
                raise ValueError(f"the {tag} gap at spacing {d!r} is {float(g)!r}, not positive")
        slope, estimates[f"log_prefactor_{tag}"], r2[tag] = _ols(ds, np.log(gap / np.sqrt(ds)))
        estimates[f"decay_rate_{tag}"] = -slope
        estimates[f"decay_rate_{tag}_d_prefactor"] = -_ols(ds, np.log(gap / ds))[0]
    fit = FitResult(
        model="exponential_with_sqrt_prefactor",
        estimates=estimates,
        r_squared=r2["kli"],
        window=(float(ds.min()), float(ds.max())),
    )
    return sweep, fit


def exp_density_scaling(area: float, alpha: float, snr: float,
                        n_values: Sequence[int],
                        spec: QuadratureSpec = DEFAULT_QUADRATURE,
                        sensing_energy: float = 1.0,
                        comm_energy_coeff: float = 1.0):
    """Fixed coverage area, growing density: spacing d = sqrt(area)/(n-1).

    Tabulates per-node and per-area information, efficiency with sensing
    energy on, and -- with the sensing term zeroed, to isolate routing
    energy -- efficiency for each of TRICHOTOMY_LOSS_EXPONENTS.  Fits the
    power law of per-node KLI against density over the top decade and
    reports the per-area plateau estimate.  The d^nu link-cost model is
    dubious at very small spacing; treat the small-d end of these columns
    accordingly.
    """
    if not area > 0.0:
        raise ValueError("area must be positive")
    side = math.sqrt(area)

    def outputs(config, report):
        row = {"spacing": config.spacing, "density": report.density,
               "per_node_kli": report.per_node_kli, "per_node_mi": report.per_node_mi,
               "total_kli": report.total_kli, "total_mi": report.total_mi,
               "kli_per_area": report.total_kli / report.area,
               "energy": report.total_energy, "efficiency_kli": report.efficiency_kli}
        for nu in TRICHOTOMY_LOSS_EXPONENTS:
            comm = communication_energy(replace(config, loss_exponent=nu))
            row[f"eta_nosense_nu{nu:g}"] = report.total_kli / comm
        return row

    points = [(n, NetworkConfig(n=n, spacing=side / (n - 1), sensing_energy=sensing_energy,
                                comm_energy_coeff=comm_energy_coeff, loss_exponent=2.0,
                                snr_per_joule=snr / sensing_energy, alpha=alpha))
              for n in _grid_sides(n_values)]
    sweep = _network_sweep("n", points, spec, outputs)
    mus = sweep.column("density")
    if _span_decades(mus) < 1.0:
        raise ValueError("sweep must span at least one decade of density")
    sel = _top_decade(mus)
    exponent, icept, r2 = _ols(np.log(mus[sel]), np.log(sweep.column("per_node_kli")[sel]))
    fit = FitResult(
        model="power_law",
        estimates={
            "exponent": exponent,
            "log_intercept": icept,
            "info_per_area_plateau": float(sweep.column("kli_per_area")[sel].mean()),
        },
        r_squared=r2,
        window=(float(mus[sel].min()), float(mus[sel].max())),
    )
    return sweep, fit


def exp_snr_limits(zeta: float, spec: QuadratureSpec = DEFAULT_QUADRATURE,
                   low_snr: Sequence[float] = ()):
    """Low- and high-SNR limit behavior of the rates at fixed correlation.

    At low SNR the divergence rate falls off quadratically and the mutual
    information linearly; at high SNR both climb like half the log.  The
    sweep tabulates both regimes; the fit reports the low-SNR log-log
    exponents and the high-SNR increments normalized by (1/2) log of the
    SNR ratio.  At zeta = 1/4 every rate is exactly 0, so the low-SNR
    exponents and r^2 are None.  The high-SNR points are HIGH_SNR, above
    every low SNR.
    """
    low = sorted(float(s) for s in low_snr) or list(np.logspace(-4, -2, 7))
    high = list(HIGH_SNR)
    if len(low) < 4:
        raise ValueError("need at least 4 low-SNR points")
    if low[-1] >= high[0]:
        raise ValueError(f"low SNR {low[-1]!r} is not below the fixed high-SNR points {HIGH_SNR}")
    snrs = low + high
    results = require_converged(sfcar_rates_batch([sfcar_row(zeta, snr) for snr in snrs], spec))
    rows = [(snr, {"kli": res.kli_rate, "mi": res.mi_rate}) for snr, res in zip(snrs, results)]
    sweep = SweepResult("snr", tuple(rows))
    kli, mi = (np.array([out[key] for _, out in rows]) for key in ("kli", "mi"))
    exp_kli = exp_mi = r2 = None
    if zeta < 0.25:
        exp_kli, _, r2 = _ols(np.log(low), np.log(kli[:len(low)]))
        exp_mi, _, _ = _ols(np.log(low), np.log(mi[:len(low)]))
    half_log_ratio = 0.5 * math.log(high[-1] / high[0])
    estimates = {"low_snr_exponent_kli": exp_kli, "low_snr_exponent_mi": exp_mi,
                 "high_snr_slope_kli": float(kli[-1] - kli[len(low)]) / half_log_ratio,
                 "high_snr_slope_mi": float(mi[-1] - mi[len(low)]) / half_log_ratio}
    fit = FitResult(model="power_law", estimates=estimates, r_squared=r2,
                    window=(float(low[0]), float(low[-1])))
    return sweep, fit


ENERGY_SCENARIOS = ("fixed_area_sensing_sweep", "fixed_sensing_area_sweep")


def exp_energy_scaling(base: NetworkConfig, scenario: str,
                       sweep_values: Sequence[float],
                       spec: QuadratureSpec = DEFAULT_QUADRATURE):
    """Total information against total consumed energy.

    'fixed_area_sensing_sweep' sweeps sensing energy with the grid fixed
    (information grows like log E; the logarithmic fit's slope estimates
    the n^2/2 prefactor).  'fixed_sensing_area_sweep' sweeps the grid side
    with spacing and sensing energy fixed (information grows like E^{2/3};
    power-law fit).  The swept total energy must span >= 2 decades, and the
    sensing sweep's SNR beta*E_s must exceed 1, as mi_over_half_log_e divides by its log.
    """
    if scenario not in ENERGY_SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}")
    sensing = scenario == "fixed_area_sensing_sweep"
    values = sorted(map(float, sweep_values if sensing else _grid_sides(sweep_values)))

    def outputs(config, report):
        row = {"snr": report.snr, "energy": report.total_energy,
               "total_kli": report.total_kli, "total_mi": report.total_mi}
        if sensing:
            row["mi_over_half_log_e"] = report.total_mi / (
                report.node_count * 0.5 * math.log(report.snr))
        return row

    points = [(v, replace(base, sensing_energy=v) if sensing else replace(base, n=int(v)))
              for v in values]
    for v, config in points:
        if sensing and not measurement_snr(config) > 1.0:
            raise ValueError(f"sensing energy {v!r} gives beta*E_s = {measurement_snr(config)!r}, "
                             "not above 1")
    sweep = _network_sweep("sensing_energy" if sensing else "n", points, spec, outputs)
    energies = sweep.column("energy")
    if _span_decades(energies) < 2.0:
        raise ValueError("energy sweep must span at least 2 decades")
    if sensing:
        slope_mi, icept_mi, r2 = _ols(np.log(energies), sweep.column("total_mi"))
        slope_kli, icept_kli, _ = _ols(np.log(energies), sweep.column("total_kli"))
        model = "logarithmic"
        estimates = {"slope_mi": slope_mi, "intercept_mi": icept_mi,
                     "slope_kli": slope_kli, "intercept_kli": icept_kli}
    else:
        exp_kli, icept, r2 = _ols(np.log(energies), np.log(sweep.column("total_kli")))
        exp_mi, _, _ = _ols(np.log(energies), np.log(sweep.column("total_mi")))
        model = "power_law"
        estimates = {"exponent": exp_kli, "log_intercept": icept, "exponent_mi": exp_mi}
    fit = FitResult(model=model, estimates=estimates, r_squared=r2,
                    window=(float(energies.min()), float(energies.max())))
    return sweep, fit

"""Scaling-law sweeps and asymptote fitting.

Each experiment sweeps one knob of the network model, tabulates the
information/energy outputs, and fits the asymptotic law the sweep probes
(power law in area or density, sqrt-prefactor exponential decay in
spacing, logarithmic or power growth in energy).  Asymptotic fits default
to the top decade of the swept abscissa; pre-asymptotic points bias slope
estimates.  Fitted constants are published with their r^2 so downstream
consumers can judge fit quality; none of them are hard-coded anywhere.
"""

import math
import warnings
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .network import NetworkConfig, communication_energy, evaluate_network
from .physmap import PhysicalField, edge_correlation
from .rates import sfcar_rates, sfcar_rates_at_spacing
from .specfun import DEFAULT_QUADRATURE, QuadratureSpec

FIT_MODELS = ("power_law", "exponential_with_sqrt_prefactor", "logarithmic")

#: Spacing-decay fits need tighter quadrature: the gaps shrink below 1e-6.
SPACING_QUADRATURE = QuadratureSpec(points_per_axis=256, relative_tolerance=1e-11,
                                    max_points_per_axis=4096)


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
    """Least-squares line y = a + b x; returns (b, a, r^2)."""
    if len(x) < 2 or float(np.ptp(x)) == 0.0:
        raise ValueError("degenerate abscissa: no spread to fit")
    b, a = np.polyfit(x, y, 1)
    resid = y - (a + b * x)
    total = y - y.mean()
    ss_tot = float(total @ total)
    r2 = 1.0 - float(resid @ resid) / ss_tot if ss_tot > 0 else 1.0
    return float(b), float(a), r2


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


def exp_area_scaling(base: NetworkConfig, n_values: Sequence[int],
                     spec: QuadratureSpec = DEFAULT_QUADRATURE):
    """Fixed spacing (fixed density), growing grid: total information vs
    area, and efficiency decay.

    Returns the sweep table and the power-law fit of KLI efficiency
    against area over the top decade (the MI exponent rides along in the
    estimates).  Requires >= 4 grid sizes spanning at least a decade of
    area.
    """
    n_values = sorted(int(n) for n in n_values)
    if len(n_values) < 4:
        raise ValueError("need at least 4 sweep points")
    rows: List[Tuple[float, Dict[str, float]]] = []
    for n in n_values:
        report = evaluate_network(replace(base, n=n), spec)
        rows.append(
            (
                float(n),
                {
                    "area": report.area,
                    "density": report.density,
                    "snr": report.snr,
                    "per_node_kli": report.per_node_kli,
                    "per_node_mi": report.per_node_mi,
                    "total_kli": report.total_kli,
                    "total_mi": report.total_mi,
                    "energy": report.total_energy,
                    "efficiency_kli": report.efficiency_kli,
                    "efficiency_mi": report.efficiency_mi,
                },
            )
        )
    sweep = SweepResult("n", tuple(rows))
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
                            spec: QuadratureSpec = SPACING_QUADRATURE):
    """Decay of the information deficit as sensors spread out.

    Tabulates gaps Delta(d) = rate(zeta=0) - rate(d) for both measures and
    fits log(Delta/sqrt(d)) = log c - decay_rate * d.  Spacings must sit
    in the tail regime alpha*d >= 3, where the edge correlation is already
    exponentially small.

    A gap counts only if it exceeds the resolution floor
    ``spec.relative_tolerance * (rate(zeta=0) + rate(d))``: each of the two
    rates it is the difference of meets that relative tolerance, so a
    smaller gap (nonpositive, or a leftover ulp of the base rate at
    extreme spacing where the true gap is ~rho**2) is quadrature noise, not
    signal.  Such gaps are excluded from the fit with a warning.
    """
    d_values = sorted(float(d) for d in d_values)
    if len(d_values) < 4:
        raise ValueError("need at least 4 sweep points")
    if alpha * d_values[0] < 3.0:
        raise ValueError("spacings must satisfy alpha*d >= 3 (tail regime)")
    base = sfcar_rates(0.0, snr, spec)
    rows: List[Tuple[float, Dict[str, float]]] = []
    for d in d_values:
        field = PhysicalField(alpha=alpha, spacing=d)
        res = sfcar_rates_at_spacing(field, snr, spec)
        rows.append(
            (
                d,
                {
                    "rho": edge_correlation(field),
                    "kli": res.kli_rate,
                    "mi": res.mi_rate,
                    "gap_kli": base.kli_rate - res.kli_rate,
                    "gap_mi": base.mi_rate - res.mi_rate,
                },
            )
        )
    sweep = SweepResult("spacing", tuple(rows))
    ds = sweep.parameter_values
    estimates: Dict[str, float] = {}
    r2_primary = 0.0
    for tag, base_rate in (("kli", base.kli_rate), ("mi", base.mi_rate)):
        gaps = sweep.column(f"gap_{tag}")
        floor = spec.relative_tolerance * (base_rate + sweep.column(tag))
        usable = gaps > floor
        if not np.all(usable):
            warnings.warn(
                f"excluding {int(np.sum(~usable))} nonpositive or unresolved {tag} gaps"
                " from the fit",
                stacklevel=2,
            )
        if int(np.sum(usable)) < 4:
            raise ValueError(f"fewer than 4 usable {tag} gaps in the fit window")
        slope, icept, r2 = _ols(ds[usable], np.log(gaps[usable] / np.sqrt(ds[usable])))
        estimates[f"decay_rate_{tag}"] = -slope
        estimates[f"log_prefactor_{tag}"] = icept
        if tag == "kli":
            r2_primary = r2
    fit = FitResult(
        model="exponential_with_sqrt_prefactor",
        estimates=estimates,
        r_squared=r2_primary,
        window=(float(ds.min()), float(ds.max())),
    )
    return sweep, fit


def exp_density_scaling(area: float, alpha: float, snr: float,
                        n_values: Sequence[int],
                        spec: QuadratureSpec = DEFAULT_QUADRATURE,
                        sensing_energy: float = 1.0,
                        comm_energy_coeff: float = 1.0,
                        trichotomy_loss_exponents: Sequence[float] = (2.5, 3.0, 3.5)):
    """Fixed coverage area, growing density: spacing d = sqrt(area)/(n-1).

    Tabulates per-node and per-area information, efficiency with sensing
    energy on, and -- with the sensing term zeroed, to isolate routing
    energy -- efficiency for each requested loss exponent.  Fits the
    power law of per-node KLI against density over the top decade and
    reports the per-area plateau estimate.  The d^nu link-cost model is
    dubious at very small spacing; treat the small-d end of these columns
    accordingly.
    """
    n_values = sorted(int(n) for n in n_values)
    if len(n_values) < 4:
        raise ValueError("need at least 4 sweep points")
    if not area > 0.0:
        raise ValueError("area must be positive")
    side = math.sqrt(area)
    rows: List[Tuple[float, Dict[str, float]]] = []
    for n in n_values:
        d = side / (n - 1)
        config = NetworkConfig(
            n=n,
            spacing=d,
            sensing_energy=sensing_energy,
            comm_energy_coeff=comm_energy_coeff,
            loss_exponent=2.0,
            snr_per_joule=snr / sensing_energy,
            alpha=alpha,
        )
        report = evaluate_network(config, spec)
        outputs = {
            "spacing": d,
            "density": report.density,
            "per_node_kli": report.per_node_kli,
            "per_node_mi": report.per_node_mi,
            "total_kli": report.total_kli,
            "total_mi": report.total_mi,
            "kli_per_area": report.total_kli / report.area,
            "energy": report.total_energy,
            "efficiency_kli": report.efficiency_kli,
        }
        for nu in trichotomy_loss_exponents:
            comm = communication_energy(replace(config, loss_exponent=float(nu)))
            outputs[f"eta_nosense_nu{nu:g}"] = report.total_kli / comm
        rows.append((float(n), outputs))
    sweep = SweepResult("n", tuple(rows))
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
                   low_snr: Sequence[float] = (), high_snr: Sequence[float] = ()):
    """Low- and high-SNR limit behavior of the rates at fixed correlation.

    At low SNR the divergence rate falls off quadratically and the mutual
    information linearly; at high SNR both climb like half the log.  The
    sweep tabulates both regimes; the fit reports the low-SNR log-log
    exponents and the high-SNR increments normalized by (1/2) log of the
    SNR ratio.  At zeta = 1/4 every rate is exactly 0, so the low-SNR
    exponents and r^2 are None.
    """
    low = sorted(float(s) for s in low_snr) or list(np.logspace(-4, -2, 7))
    high = sorted(float(s) for s in high_snr) or [1e3, 1e4, 1e5]
    if len(low) < 4:
        raise ValueError("need at least 4 low-SNR points")
    rows: List[Tuple[float, Dict[str, float]]] = []
    for snr in low + high:
        res = sfcar_rates(zeta, snr, spec)
        rows.append((snr, {"kli": res.kli_rate, "mi": res.mi_rate}))
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
    power-law fit).  The swept total energy must span >= 2 decades.
    """
    if scenario not in ENERGY_SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}")
    values = sorted(float(v) for v in sweep_values)
    if len(values) < 4:
        raise ValueError("need at least 4 sweep points")
    sensing = scenario == "fixed_area_sensing_sweep"
    rows: List[Tuple[float, Dict[str, float]]] = []
    for v in values:
        config = replace(base, sensing_energy=v) if sensing else replace(base, n=int(v))
        report = evaluate_network(config, spec)
        outputs = {"snr": report.snr, "energy": report.total_energy,
                   "total_kli": report.total_kli, "total_mi": report.total_mi}
        if sensing:
            outputs["mi_over_half_log_e"] = report.total_mi / (
                report.node_count * 0.5 * math.log(report.snr))
        rows.append((v, outputs))
    sweep = SweepResult("sensing_energy" if sensing else "n", tuple(rows))
    energies = sweep.column("energy")
    if _span_decades(energies) < 2.0:
        raise ValueError("energy sweep must span at least 2 decades")
    if sensing:
        slope_mi, icept_mi, r2 = _ols(np.log(energies), sweep.column("total_mi"))
        slope_kli, icept_kli, _ = _ols(np.log(energies), sweep.column("total_kli"))
        fit = FitResult(
            model="logarithmic",
            estimates={
                "slope_mi": slope_mi,
                "intercept_mi": icept_mi,
                "slope_kli": slope_kli,
                "intercept_kli": icept_kli,
            },
            r_squared=r2,
            window=(float(energies.min()), float(energies.max())),
        )
    else:
        exp_kli, icept, r2 = _ols(np.log(energies), np.log(sweep.column("total_kli")))
        exp_mi, _, _ = _ols(np.log(energies), np.log(sweep.column("total_mi")))
        fit = FitResult(
            model="power_law",
            estimates={
                "exponent": exp_kli,
                "log_intercept": icept,
                "exponent_mi": exp_mi,
            },
            r_squared=r2,
            window=(float(energies.min()), float(energies.max())),
        )
    return sweep, fit

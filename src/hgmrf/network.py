"""Energy and information accounting for a grid sensor network.

n^2 sensors sit on an n-by-n grid with spacing d (meters); a fusion
center at (floor(n/2), floor(n/2)) collects every measurement over
minimum-hop routes, so delivering the sample from node (i, j) costs
|i - c| + |j - c| link transmissions at E0 * d^nu Joules each (nu >= 2 is
the propagation loss exponent).  Sensing costs E_s per node and sets the
measurement SNR linearly: SNR = beta * E_s.  Total gathered information
is n^2 times the per-node asymptotic rate; energy efficiency is
information per Joule.  Units are nats, Joules, meters throughout (SNR
linear; dB conversion belongs to the CLI).

The per-node rates depend on alpha, the spacing and the SNR, never on n:
``node_rates`` integrates them (``node_rates_batch`` for many networks in
one quadrature), ``network_report`` is the accounting for given rates, and
``evaluate_network`` chains the two.
"""

import math
import numbers
from dataclasses import dataclass
from typing import List, Sequence

from .physmap import PhysicalField
from .rates import RateResult, sfcar_rates_batch, sfcar_row_at_spacing
from .specfun import DEFAULT_QUADRATURE, NonConvergenceError, QuadratureSpec


@dataclass(frozen=True)
class NetworkConfig:
    """Grid geometry, energy parameters, and field description."""

    n: int
    spacing: float
    sensing_energy: float = 1.0      # E_s, Joules per node
    comm_energy_coeff: float = 1.0   # E_0, Joules per hop at unit spacing
    loss_exponent: float = 2.0       # nu >= 2
    snr_per_joule: float = 1.0       # beta, SNR per Joule of sensing energy
    alpha: float = 1.0               # field diffusion rate, 1/meters

    def __post_init__(self):
        # every comparison is false for NaN, so each check rejects it
        if not isinstance(self.n, numbers.Integral) or self.n < 2:
            raise ValueError(f"grid side must be an integer >= 2, got {self.n!r}")
        if not 0.0 < self.spacing < math.inf:
            raise ValueError("spacing must be positive and finite")
        if not 0.0 <= self.sensing_energy < math.inf:
            raise ValueError("sensing energy must be nonnegative and finite")
        # zero is allowed: the communication-free case is a meaningful
        # degenerate branch (efficiency then scales purely with sensing)
        if not 0.0 <= self.comm_energy_coeff < math.inf:
            raise ValueError("comm energy coefficient must be nonnegative and finite")
        if not 2.0 <= self.loss_exponent < math.inf:
            raise ValueError("loss exponent must be >= 2 and finite")
        if not 0.0 < self.snr_per_joule < math.inf:
            raise ValueError("snr_per_joule must be positive and finite")
        if not 0.0 < self.alpha < math.inf:
            raise ValueError("alpha must be positive and finite")
        for name, quantity in (("d^nu", lambda: self.spacing**self.loss_exponent),
                               ("the area", lambda: ((self.n - 1) * self.spacing) ** 2),
                               ("the density", lambda: density(self)),
                               ("the energy", lambda: total_energy(self))):
            try:
                finite = quantity() < math.inf
            except ArithmeticError:  # an overflow, or n^2 over an area of 0
                finite = False
            if not finite:
                energies = (f", E_s = {self.sensing_energy!r}, E_0 = {self.comm_energy_coeff!r}"
                            if name == "the energy" else "")
                raise ValueError(f"{name} overflows at n = {self.n:.6g}, "
                                 f"spacing = {self.spacing!r}, nu = {self.loss_exponent!r}"
                                 + energies)


@dataclass(frozen=True)
class NetworkReport:
    """Evaluated network: totals are exact products of the per-node rates."""

    node_count: int
    density: float        # nodes per square meter
    area: float           # ((n-1) d)^2, square meters
    snr: float
    per_node_kli: float
    per_node_mi: float
    total_kli: float
    total_mi: float
    total_energy: float
    efficiency_kli: float  # nats per Joule
    efficiency_mi: float


def density(config: NetworkConfig) -> float:
    """Node density mu = n^2 / ((n-1) d)^2."""
    return config.n**2 / ((config.n - 1) * config.spacing) ** 2


def measurement_snr(config: NetworkConfig) -> float:
    """SNR = beta * E_s, linear."""
    return config.snr_per_joule * config.sensing_energy


def hop_count_total(n: int) -> int:
    """Sum of minimum-hop counts to the center over the whole grid.

    sum_ij |i - floor(n/2)| + |j - floor(n/2)| = 2 n floor(n^2/4), exact.
    """
    if n < 1:
        raise ValueError("grid side must be >= 1")
    return 2 * n * (n * n // 4)


def communication_energy(config: NetworkConfig) -> float:
    """Total routing energy E0 * d^nu * hop_count_total(n), Joules."""
    return (
        config.comm_energy_coeff
        * config.spacing**config.loss_exponent
        * hop_count_total(config.n)
    )


def total_energy(config: NetworkConfig) -> float:
    """n^2 E_s + E0 d^nu * (exact hop sum); no Theta() abstraction."""
    return config.n**2 * config.sensing_energy + communication_energy(config)


def node_rates(config: NetworkConfig,
               spec: QuadratureSpec = DEFAULT_QUADRATURE) -> RateResult:
    """Per-node rates at the spacing and SNR = beta * E_s of the network.

    Raises ValueError for a zero-SNR network (E_s = 0: the SNR model ties
    measurement quality to sensing energy) and NonConvergenceError if the
    rate quadrature fails to converge.
    """
    return node_rates_batch([config], spec)[0]


def node_rates_batch(configs: Sequence[NetworkConfig],
                     spec: QuadratureSpec = DEFAULT_QUADRATURE) -> List[RateResult]:
    """``node_rates`` of each network, integrated together by
    ``rates.sfcar_rates_batch``: every network is validated, in order,
    before any is integrated, and NonConvergenceError is raised if any
    network's rates fail to converge."""
    rows = []
    for config in configs:
        if config.sensing_energy == 0.0:
            raise ValueError("zero-SNR network: sensing energy must be positive")
        field = PhysicalField(alpha=config.alpha, spacing=config.spacing)
        rows.append(sfcar_row_at_spacing(field, measurement_snr(config)))
    results = sfcar_rates_batch(rows, spec)
    if not all(r.converged for r in results):
        raise NonConvergenceError("rate quadrature did not converge for this network")
    return results


def network_report(config: NetworkConfig, rates: RateResult) -> NetworkReport:
    """Totals, energy and efficiencies of the network for its per-node
    rates (from ``node_rates``); arithmetic only."""
    nodes = config.n**2
    energy = total_energy(config)
    total_kli = nodes * rates.kli_rate
    total_mi = nodes * rates.mi_rate
    return NetworkReport(
        node_count=nodes,
        density=density(config),
        area=((config.n - 1) * config.spacing) ** 2,
        snr=measurement_snr(config),
        per_node_kli=rates.kli_rate,
        per_node_mi=rates.mi_rate,
        total_kli=total_kli,
        total_mi=total_mi,
        total_energy=energy,
        efficiency_kli=total_kli / energy,
        efficiency_mi=total_mi / energy,
    )


def evaluate_network(config: NetworkConfig,
                     spec: QuadratureSpec = DEFAULT_QUADRATURE) -> NetworkReport:
    """Full report: the per-node rates of ``node_rates`` and the
    accounting of ``network_report``; raises as ``node_rates``."""
    return network_report(config, node_rates(config, spec))

"""Information rates and energy scaling for sensor networks over 2-D
hidden Gauss-Markov random fields.

The library computes closed-form asymptotic Kullback-Leibler and
mutual-information rates for conditionally autoregressive lattice fields
observed in Gaussian noise, maps physical diffusion-field parameters to
lattice correlation, evaluates a minimum-hop-routing energy model, and
fits the resulting scaling laws.  Every spectral formula is cross-checked
against an exact finite-lattice oracle (closed-form precision eigenvalues
on a torus and with free boundaries, and Monte Carlo likelihood ratios).
"""

from .car import (
    CarCoefficients,
    NoiseModel,
    SfcarParams,
    car_spectrum,
    sfcar_from_snr,
    sfcar_power,
    sfcar_snr,
    sfcar_spectrum,
)
from .experiments import (
    FitResult,
    SweepResult,
    exp_area_scaling,
    exp_density_scaling,
    exp_energy_scaling,
    exp_snr_limits,
    exp_spacing_convergence,
    fit_power_law,
)
from .network import (
    NetworkConfig,
    NetworkReport,
    communication_energy,
    density,
    evaluate_network,
    hop_count_total,
    total_energy,
)
from .oracle import (
    LatticeSpec,
    MonteCarloSpec,
    finite_lattice_rates,
    sample_llr_per_node,
    torus_eigenvalues,
)
from .physmap import (
    PhysicalField,
    edge_correlation,
    rho_from_zeta,
    zeta_from_rho,
    zeta_from_spacing,
)
from .rates import RateResult, kli_integrand, kli_rate_car, sfcar_rates, sfcar_rates_at_spacing
from .specfun import (
    DEFAULT_QUADRATURE,
    NonConvergenceError,
    QuadratureSpec,
    bessel_k1,
    elliptic_k,
)

__version__ = "0.1.0"

__all__ = [
    "CarCoefficients",
    "DEFAULT_QUADRATURE",
    "FitResult",
    "LatticeSpec",
    "MonteCarloSpec",
    "NetworkConfig",
    "NetworkReport",
    "NoiseModel",
    "NonConvergenceError",
    "PhysicalField",
    "QuadratureSpec",
    "RateResult",
    "SfcarParams",
    "SweepResult",
    "bessel_k1",
    "car_spectrum",
    "communication_energy",
    "density",
    "edge_correlation",
    "elliptic_k",
    "evaluate_network",
    "exp_area_scaling",
    "exp_density_scaling",
    "exp_energy_scaling",
    "exp_snr_limits",
    "exp_spacing_convergence",
    "finite_lattice_rates",
    "fit_power_law",
    "hop_count_total",
    "kli_integrand",
    "kli_rate_car",
    "rho_from_zeta",
    "sample_llr_per_node",
    "sfcar_from_snr",
    "sfcar_power",
    "sfcar_rates",
    "sfcar_rates_at_spacing",
    "sfcar_snr",
    "sfcar_spectrum",
    "torus_eigenvalues",
    "total_energy",
    "zeta_from_rho",
    "zeta_from_spacing",
]

"""Special functions and the budget of the rate quadrature.

Exactly the primitives the rate formulas need: the arithmetic-geometric
mean with its complement, the complete elliptic integral of the first kind K(k) in the modulus
convention (K(0) = pi/2, K(k) -> inf as k -> 1), the modified Bessel
function K_1 and 1 - x K_1(x) without cancellation, and the budget and
convergence tests of the doubling quadrature.
All arithmetic is 64-bit binary floating point.
"""

import math
from dataclasses import dataclass

import numpy as np

EULER_GAMMA = 0.5772156649015328606

#: Argument where bessel_k1 switches from the ascending series to the
#: integral; both branches are good to ~5e-16 relative here.
K1_CROSSOVER = 2.0

#: Trapezoid rule for int_0^inf e^{-v^2} f(v) dv, h = 1/4 on v = 0..6.25:
#: v^2 and the weights h e^{-v^2}, halved at v = 0.  It converges like
#: e^{-2 pi a/h} for f analytic in |Im v| < a (Trefethen & Weideman, SIAM
#: Rev. 2014); the truncation leaves out ~1e-19.
_K1_V2 = (0.25 * np.arange(26)) ** 2
_K1_WEIGHTS = 0.25 * np.exp(-_K1_V2) * np.where(_K1_V2 == 0.0, 0.5, 1.0)


class NonConvergenceError(ArithmeticError):
    """Quadrature failed to meet its tolerance within the point budget."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Budget for the doubling quadrature of the rates.

    points_per_axis is the starting node count per integration axis: of
    the one-axis (w1) tanh rule of the symmetric first-order rates, and
    the side of the 2-D torus grid of the general-CAR rates.  Each kernel
    call at n points also returns the estimate of the n/2-point rule
    embedded in it, so the first call is at 2 points_per_axis and compares
    points_per_axis against twice that; the count doubles until the pair
    of one call agrees to relative_tolerance or it would exceed
    max_points_per_axis.  A budget below 2 points_per_axis, which holds no
    pair, is refused.
    """

    points_per_axis: int = 256
    relative_tolerance: float = 1e-9
    max_points_per_axis: int = 4096

    def __post_init__(self):
        if self.points_per_axis < 8:
            raise ValueError("points_per_axis must be >= 8")
        if self.max_points_per_axis < 2 * self.points_per_axis:
            raise ValueError("max_points_per_axis must be >= 2 points_per_axis")
        if not 0.0 < self.relative_tolerance <= 1e-2:
            raise ValueError("relative_tolerance must be in (0, 1e-2]")


DEFAULT_QUADRATURE = QuadratureSpec()


def elliptic_k(modulus: float) -> float:
    """Complete elliptic integral of the first kind, modulus convention.

    K(k) = int_0^{pi/2} dt / sqrt(1 - k^2 sin^2 t) = pi / (2*AGM(1, k')),
    k' = sqrt(1 - k^2), within 4e-16 relative of a 50-digit evaluation.

    Raises ValueError outside 0 <= k < 1 (K(1) is infinite).
    """
    k = float(modulus)
    if not 0.0 <= k < 1.0:
        raise ValueError(f"modulus must satisfy 0 <= k < 1, got {modulus}")
    # (1-k)(1+k) loses no precision near k = 1, unlike 1 - k*k.
    k_prime = math.sqrt((1.0 - k) * (1.0 + k))
    return math.pi / (2.0 * agm(k_prime, k * k / (1.0 + k_prime))[0])


def agm(k_prime: float, one_minus_k_prime: float) -> tuple[float, float]:
    """(M, (1 - M)/(1 - k')) with M = AGM(1, k'), 0 <= k' <= 1, to ~1e-16.

    1 - M is the sum of the AGM's positive steps c_n = a_{n-1} - a_n, with
    c_1 = (1 - k')/2 and c_{n+1} = c_n^2/(4 a_{n+1}) (DLMF 19.8), carried as
    r_n = c_n/c_1: the ratio is (1/2) sum r_n, with no cancellation as
    k' -> 1 and no use of a 1 - k' that underflows.
    """
    quarter_c1 = 0.125 * one_minus_k_prime
    a, g = 0.5 * (1.0 + k_prime), math.sqrt(k_prime)
    r = total = 1.0
    while r > 1e-17:
        a, g = 0.5 * (a + g), math.sqrt(a * g)
        r *= r * quarter_c1 / a
        total += r
    return a, 0.5 * total


def _k1_series_sums(x: float):
    # Ascending series: K1(x) = 1/x + ln(x/2) I1(x)
    #   - (x/4) sum_k [psi(k+1)+psi(k+2)] (x^2/4)^k / (k! (k+1)!),
    # with I1(x) = (x/2) sum_k (x^2/4)^k / (k! (k+1)!).  Returns both sums.
    q = 0.25 * x * x
    term = 1.0
    psi1 = -EULER_GAMMA
    psi2 = 1.0 - EULER_GAMMA
    sum_i1 = term
    sum_psi = term * (psi1 + psi2)
    k = 0
    while True:
        k += 1
        term *= q / (k * (k + 1))
        psi1 += 1.0 / k
        psi2 += 1.0 / (k + 1)
        sum_i1 += term
        contrib = term * (psi1 + psi2)
        sum_psi += contrib
        if abs(contrib) < 1e-18 * abs(sum_psi):
            break
    return sum_i1, sum_psi


def _k1_integral(x: float) -> float:
    # K_1(x) = int_0^inf e^{-x cosh t} cosh t dt (DLMF 10.32.8), with
    # sinh(t/2) = v/sqrt(2x): e^{-x} sqrt(2/x) times the integral of e^{-v^2}
    # (1 + v^2/x)/sqrt(1 + v^2/(2x)), analytic for |Im v| < sqrt(2x) >= 2,
    # where the rule errs by < 1e-20.  0 once e^{-x} underflows (x > ~745).
    e = math.exp(-x)
    if e == 0.0:
        return 0.0
    f = (1.0 + _K1_V2 / x) / np.sqrt(1.0 + _K1_V2 / (2.0 * x))
    return e * math.sqrt(2.0 / x) * float(_K1_WEIGHTS @ f)


def _k1_parts(x: float) -> tuple[float, float]:
    # (K_1(x), 1 - x K_1(x)) from one series or integral evaluation
    x = float(x)
    if not x > 0.0:
        raise ValueError(f"argument must be positive, got {x}")
    if x <= K1_CROSSOVER:
        sum_i1, sum_psi = _k1_series_sums(x)
        log_half_x = math.log(0.5 * x)
        return (1.0 / x + log_half_x * (0.5 * x * sum_i1) - 0.25 * x * sum_psi,
                0.25 * x * x * (sum_psi - 2.0 * log_half_x * sum_i1))
    k1 = _k1_integral(x)
    return k1, 1.0 - x * k1


def bessel_k1(x: float) -> float:
    """Modified Bessel function of the second kind, order 1.

    Ascending series up to x = 2; above, the integral of e^{-x cosh t}
    cosh t by a fixed 26-node trapezoid rule, within 5e-16 relative of a
    50-digit evaluation on [2, 700].  Limits: K_1(x) -> 1/x as x -> 0 and
    K_1(x) -> sqrt(pi/2x) e^{-x} as x -> inf; it is 0 from x ~ 745 up,
    where e^{-x} underflows.

    Raises ValueError for x <= 0.
    """
    return _k1_parts(x)[0]


def one_minus_x_k1(x: float) -> float:
    """1 - x K_1(x), without the cancellation of forming x K_1(x) first.

    Below the crossover the leading 1 of the ascending series cancels
    analytically: 1 - x K_1(x) = (x^2/4) [sum_psi - 2 ln(x/2) sum_I1], good
    to ~1e-15 relative as long as the result is a normal double (x above
    ~1e-154; it behaves like (x^2/2) ln(1/x)).  Above the crossover
    x K_1(x) < 0.28 and the plain difference is exact to rounding.  Raises
    ValueError for x <= 0.
    """
    return _k1_parts(x)[1]


def x_k1_pair(x: float) -> tuple[float, float]:
    """(x K_1(x), 1 - x K_1(x)) from one evaluation of K_1, bit for bit x
    times ``bessel_k1`` and ``one_minus_x_k1``; ValueError for x <= 0."""
    k1, complement = _k1_parts(x)
    return float(x) * k1, complement


def require_converged(results, what: str = "this sweep"):
    """The rate results, if each met its tolerance; else NonConvergenceError."""
    if not all(r.converged for r in results):
        raise NonConvergenceError(f"rate quadrature did not converge for {what}")
    return results


def close_enough(a: float, b: float, rtol: float, zero_floor: float) -> bool:
    """Relative agreement test; estimates whose magnitude and change are
    both at most zero_floor count as converged zeros."""
    diff = abs(a - b)
    scale = max(abs(a), abs(b))
    if diff <= rtol * scale:
        return True
    return scale <= zero_floor and diff <= zero_floor

"""Special functions and periodic quadrature.

Exactly the primitives the rate formulas need: the arithmetic-geometric
mean, the complete elliptic integral of the first kind K(k) in the modulus
convention (K(0) = pi/2, K(k) -> inf as k -> 1), the modified Bessel
function K_1 and 1 - x K_1(x) without cancellation, the midpoint grid on
(-pi, pi] and the convergence test of the doubling quadrature.
All arithmetic is 64-bit binary floating point.
"""

import math
from dataclasses import dataclass

import numpy as np

EULER_GAMMA = 0.5772156649015328606

#: Argument where bessel_k1 switches from the ascending series to the
#: continued fraction; both branches are good to ~1e-15 relative here.
K1_CROSSOVER = 2.0


class NonConvergenceError(ArithmeticError):
    """Quadrature failed to meet its tolerance within the point budget."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Budget for the doubling quadrature of the rates.

    points_per_axis is the starting node count per integration axis: of
    the one-axis (w1) tanh rule of the symmetric first-order rates,
    and the side of the 2-D midpoint grid of the general-CAR rates.  The
    count doubles until two successive estimates agree to
    relative_tolerance or it would exceed max_points_per_axis.
    """

    points_per_axis: int = 256
    relative_tolerance: float = 1e-9
    max_points_per_axis: int = 4096

    def __post_init__(self):
        if self.points_per_axis < 8:
            raise ValueError("points_per_axis must be >= 8")
        if self.max_points_per_axis < self.points_per_axis:
            raise ValueError("max_points_per_axis must be >= points_per_axis")
        if not 0.0 < self.relative_tolerance <= 1e-2:
            raise ValueError("relative_tolerance must be in (0, 1e-2]")


DEFAULT_QUADRATURE = QuadratureSpec()


def elliptic_k(modulus: float) -> float:
    """Complete elliptic integral of the first kind, modulus convention.

    K(k) = int_0^{pi/2} dt / sqrt(1 - k^2 sin^2 t) = pi / (2*AGM(1, k')),
    k' = sqrt(1 - k^2), exact to <= 1e-14 relative.

    Raises ValueError outside 0 <= k < 1 (K(1) is infinite).
    """
    k = float(modulus)
    if not 0.0 <= k < 1.0:
        raise ValueError(f"modulus must satisfy 0 <= k < 1, got {modulus}")
    # (1-k)(1+k) loses no precision near k = 1, unlike 1 - k*k.
    return math.pi / (2.0 * agm(1.0, math.sqrt((1.0 - k) * (1.0 + k))))


def agm(a: float, g: float) -> float:
    """Arithmetic-geometric mean of a, g > 0, to ~1e-16 relative."""
    while abs(a - g) > 1e-15 * a:
        a, g = 0.5 * (a + g), math.sqrt(a * g)
    return a


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


def _k1_series(x: float) -> float:
    sum_i1, sum_psi = _k1_series_sums(x)
    i1 = 0.5 * x * sum_i1
    return 1.0 / x + math.log(0.5 * x) * i1 - 0.25 * x * sum_psi


def _k1_continued_fraction(x: float) -> float:
    # Steed's continued fraction for K_0, then the Wronskian-style step up
    # to K_1; standard for x >= 2 (Temme's method).  Once exp(-x)
    # underflows (x above ~745) the result is exactly 0, and b = 2(1 + x)
    # below would overflow from x ~ 9e307.
    e = math.exp(-x)
    if e == 0.0:
        return 0.0
    xi = 1.0 / x
    b = 2.0 * (1.0 + x)
    d = 1.0 / b
    h = d
    delh = d
    q1, q2 = 0.0, 1.0
    a1 = 0.25
    q = a1
    c = a1
    a = -a1
    s = 1.0 + q * delh
    for i in range(2, 30001):
        a -= 2.0 * (i - 1)
        c = -a * c / i
        qnew = (q1 - b * q2) / a
        q1, q2 = q2, qnew
        q += c * qnew
        b += 2.0
        d = 1.0 / (b + a * d)
        delh = (b * d - 1.0) * delh
        h += delh
        dels = q * delh
        s += dels
        if abs(dels / s) < 1e-17:
            break
    else:  # pragma: no cover - converges in tens of iterations for x >= 2
        raise ArithmeticError("K1 continued fraction did not converge")
    h = a1 * h
    k0 = math.sqrt(math.pi / (2.0 * x)) * e / s
    return k0 * (x + 0.5 - h) * xi


def bessel_k1(x: float) -> float:
    """Modified Bessel function of the second kind, order 1.

    Ascending series below x = 2, Steed continued fraction above; both
    branches agree to ~1e-15 relative at the crossover and the overall
    relative error is <= 1e-12.  Limits: K_1(x) -> 1/x as x -> 0 and
    K_1(x) -> sqrt(pi/2x) e^{-x} as x -> inf; it is 0 from x ~ 745 up,
    where e^{-x} underflows.

    Raises ValueError for x <= 0.
    """
    x = float(x)
    if not x > 0.0:
        raise ValueError(f"argument must be positive, got {x}")
    if x <= K1_CROSSOVER:
        return _k1_series(x)
    return _k1_continued_fraction(x)


def one_minus_x_k1(x: float) -> float:
    """1 - x K_1(x), without the cancellation of forming x K_1(x) first.

    Below the crossover the leading 1 of the ascending series cancels
    analytically: 1 - x K_1(x) = (x^2/4) [sum_psi - 2 ln(x/2) sum_I1], good
    to ~1e-15 relative as long as the result is a normal double (x above
    ~1e-154; it behaves like (x^2/2) ln(1/x)).  Above the crossover
    x K_1(x) < 0.28 and the plain difference is exact to rounding.  Raises
    ValueError for x <= 0.
    """
    x = float(x)
    if not x > 0.0:
        raise ValueError(f"argument must be positive, got {x}")
    if x <= K1_CROSSOVER:
        sum_i1, sum_psi = _k1_series_sums(x)
        return 0.25 * x * x * (sum_psi - 2.0 * math.log(0.5 * x) * sum_i1)
    return 1.0 - x * _k1_continued_fraction(x)


def midpoint_grid(n: int) -> np.ndarray:
    """Midpoint nodes -pi + 2*pi*(k+1/2)/n, k = 0..n-1.

    The offset keeps the origin off the grid, where near-critical spectra
    peak."""
    return -np.pi + 2.0 * np.pi * (np.arange(n, dtype=np.float64) + 0.5) / n


def close_enough(a: float, b: float, rtol: float, zero_floor: float) -> bool:
    """Relative agreement test; estimates whose magnitude and change are
    both at most zero_floor count as converged zeros."""
    diff = abs(a - b)
    scale = max(abs(a), abs(b))
    if diff <= rtol * scale:
        return True
    return scale <= zero_floor and diff <= zero_floor

"""Reference values computed apart from the package, each with a tail bound.

Nothing here imports polya_verify, so a fault in the package's series or
Bessel code cannot hide in its own yardstick.  Every function returns a
``Truth`` whose ``tail`` bounds the truncation error of ``value``; the output
checks add it to their tolerances.  These sums have at most a few thousand
terms, so their rounding (below 1e-13 relative) is left out of ``tail``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Truth:
    value: float
    tail: float


def _odd_inv_fifth_tail(n0: int) -> float:
    """Upper bound for the sum of n^-5 over odd n >= n0.

    The first term plus the integral bound for the rest (step 2).
    """
    return n0**-5.0 + n0**-4.0 / 8.0


def equilateral() -> dict:
    """Unit equilateral triangle: lambda1 = 16 pi^2/3, T = sqrt(3)/320."""
    return {
        "lambda1": Truth(16.0 * math.pi**2 / 3.0, 0.0),
        "T": Truth(math.sqrt(3.0) / 320.0, 0.0),
        "F": Truth(math.pi**2 / 15.0, 0.0),
    }


def rect_lambda1(a: float, b: float) -> float:
    """Principal eigenvalue of (-a, a) x (-b, b)."""
    return (math.pi / (2.0 * a)) ** 2 + (math.pi / (2.0 * b)) ** 2


def rect_torsion(a: float, b: float, n_max: int = 4001) -> Truth:
    """Torsional rigidity of (-a, a) x (-b, b) by the single tanh series.

    With A >= B the longer and shorter half-widths (Timoshenko & Goodier,
    Theory of Elasticity, sec. 109, scaled to -Laplace(u) = 1):
    T = (4/3) A B^3 [1 - (192/pi^5)(B/A) sum_{n odd} tanh(n pi A/(2B))/n^5].
    Since tanh <= 1, the omitted terms are bounded by the odd n^-5 tail.
    """
    big, small = max(a, b), min(a, b)
    total = 0.0
    for n in range(1, n_max + 1, 2):
        total += math.tanh(n * math.pi * big / (2.0 * small)) / n**5
    scale = (4.0 / 3.0) * big * small**3
    factor = (192.0 / math.pi**5) * (small / big)
    return Truth(
        value=scale * (1.0 - factor * total),
        tail=scale * factor * _odd_inv_fifth_tail(n_max + 2),
    )


def rect_F(a: float, b: float) -> Truth:
    """lambda1 T / area for (-a, a) x (-b, b), from the tanh series."""
    lam = rect_lambda1(a, b)
    area = 4.0 * a * b
    tor = rect_torsion(a, b)
    return Truth(lam * tor.value / area, lam * tor.tail / area)


def _sech(x: float) -> float:
    """1/cosh(x) for x >= 0, written so that no intermediate overflows."""
    e = math.exp(-x)
    return 2.0 * e / (1.0 + e * e)


def rect_center_torsion(a: float, b: float, n_max: int = 401) -> Truth:
    """Torsion function at the centre of (-a, a) x (-b, b), by the sech series.

    u(0,0) = b^2/2 - (16 b^2/pi^3) sum_{n odd} (-1)^((n-1)/2) / (n^3 cosh(n pi a/(2b))).
    The terms alternate and shrink in magnitude, so the omitted part is at
    most the first omitted term.
    """
    total = 0.0
    for n in range(1, n_max + 1, 2):
        term = _sech(n * math.pi * a / (2.0 * b)) / n**3
        total += term if n % 4 == 1 else -term
    scale = 16.0 * b * b / math.pi**3
    n0 = n_max + 2
    return Truth(
        value=0.5 * b * b - scale * total,
        tail=scale * _sech(n0 * math.pi * a / (2.0 * b)) / n0**3,
    )


def sector_torsion(angle: float, radius: float, k_max: int = 4001) -> Truth:
    """Torsional rigidity of a sector with opening angle below pi/2.

    u = (r^2/4)(cos(2 t - angle)/cos(angle) - 1) plus the harmonic series in
    r^(k pi/angle) sin(k pi t/angle), odd k, that cancels it on the arc.
    Integrating gives, with rho = 2 angle/pi,
    T = (R^4/16) [tan(angle) - angle
                  - (128 angle^4/pi^5) sum_{k odd} 1/(k^2 (k - rho)(k + rho)^2)].
    Each omitted term is at most (k0/(k0 - rho)) k^-5 for k >= k0.
    """
    if not 0.0 < angle < math.pi / 2.0:
        raise ValueError(f"the series needs an angle in (0, pi/2), got {angle}")
    rho = 2.0 * angle / math.pi
    total = 0.0
    for k in range(1, k_max + 1, 2):
        total += 1.0 / (k * k * (k - rho) * (k + rho) ** 2)
    scale = radius**4 / 16.0
    prefactor = 128.0 * angle**4 / math.pi**5
    k0 = k_max + 2
    return Truth(
        value=scale * (math.tan(angle) - angle - prefactor * total),
        tail=scale * prefactor * (k0 / (k0 - rho)) * _odd_inv_fifth_tail(k0),
    )


def bessel_first_zero(order: int) -> float:
    """First positive zero of J_order, by scipy.special.jn_zeros."""
    from scipy.special import jn_zeros

    return float(jn_zeros(order, 1)[0])


def sector_lambda1(angle: float, radius: float) -> Truth:
    """(j_{nu,1}/R)^2 with nu = pi/angle, which must be a whole number here."""
    nu = math.pi / angle
    order = round(nu)
    if abs(nu - order) > 1e-12:
        raise ValueError(f"pi/angle must be a whole number, got {nu}")
    return Truth((bessel_first_zero(order) / radius) ** 2, 0.0)

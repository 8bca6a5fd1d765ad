"""Closed-form and series values: equilateral triangle, rectangles, sectors, Bessel zeros.

Every truncated series comes back as a SeriesValue carrying an explicit
tail bound, so callers can treat [value - tail_bound, value + tail_bound]
as an enclosure.  Rectangle torsion and centre values come from the
classical single series along the short side (tanh and sech), whose tail
bounds cover truncation and floating-point rounding; rect_F is
rect_lambda1 * T / area.  Bessel zeros are bracketed by the first sign
change of the ascending series, evaluated on an arbitrary-precision
substrate (the series cancels catastrophically in double precision once
the order grows), and narrowed by Illinois regula falsi.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .geometry import Rectangle, Sector


class AngleOutOfRange(ValueError):
    """Raised when a sector angle is outside the supported open range."""


class ConvergenceFailure(RuntimeError):
    """Raised when an iterative search fails to settle."""


@dataclass(frozen=True)
class SeriesValue:
    """Truncated series value with a bound on its distance from the true value."""

    value: float
    tail_bound: float
    terms_used: int

    def __post_init__(self) -> None:
        if self.tail_bound < 0:
            raise ValueError("tail_bound must be nonnegative")
        if self.terms_used < 1:
            raise ValueError("terms_used must be at least 1")


_UNIT_ROUNDOFF = 2.0**-53


def _require_terms(n_terms: int) -> None:
    if n_terms < 1:
        raise ValueError(f"n_terms must be at least 1, got {n_terms}")


def _odd_inv_fifth_tail(n0: int) -> float:
    """Upper bound for the sum of n^-5 over odd n >= n0: first term plus integral."""
    return n0**-5.0 + n0**-4.0 / 8.0


# ---------------------------------------------------------------------------
# Equilateral triangle (vertices (0,0), (1,0), (1/2, sqrt(3)/2))
# ---------------------------------------------------------------------------


def equilateral_exact() -> dict:
    """Exact torsional rigidity, principal eigenvalue, and their product ratio."""
    lambda1 = 16.0 * math.pi**2 / 3.0
    torsion = math.sqrt(3.0) / 320.0
    return {
        "T": torsion,
        "lambda1": lambda1,
        "F": math.pi**2 / 15.0,
    }


# ---------------------------------------------------------------------------
# Circular sector torsion
# ---------------------------------------------------------------------------


def sector_torsion(s: Sector, n_terms: int = 64) -> SeriesValue:
    """Torsional rigidity of a sector with opening angle below pi/2.

    T = (r^4/16) (tan(angle) - angle - (128 angle^4 / pi^5) * S) where S sums
    1/(n^2 (n + 2 angle/pi)^2 (n - 2 angle/pi)) over odd n.  Truncation
    makes the value an overestimate; tail_bound covers it and floating-point
    rounding.  The ratio q = 2 angle/pi carries about 1.35 unit roundoffs
    (the division and the float pi), which term n amplifies by at most
    1/(n - q) on top of its ten roundings, and the positive running sum adds
    one per term: the subtracted part is off by at most
    (n_terms + 20 + 2/(1 - q)) unit roundoffs of itself.  tan, the two
    subtractions and the scaling add at most eight unit roundoffs of
    tan(angle), which bounds every other intermediate.
    """
    _require_terms(n_terms)
    alpha = s.angle
    if not 0.0 < alpha < math.pi / 2.0:
        raise AngleOutOfRange(
            f"sector torsion series needs angle in (0, pi/2), got {alpha}"
        )
    r = 2.0 * alpha / math.pi
    total = 0.0
    for j in range(n_terms):
        n = 2 * j + 1
        total += 1.0 / (n * n * (n + r) * (n + r) * (n - r))
    prefactor = 128.0 * alpha**4 / math.pi**5
    scale = s.radius**4 / 16.0
    tan = math.tan(alpha)
    value = scale * (tan - alpha - prefactor * total)
    n0 = 2 * n_terms + 1
    truncation = scale * prefactor * (n0 / (n0 - 1.0)) * _odd_inv_fifth_tail(n0)
    rounding = (
        scale
        * _UNIT_ROUNDOFF
        * ((n_terms + 20 + 2.0 / (1.0 - r)) * prefactor * total + 8.0 * tan)
    )
    return SeriesValue(
        value=value,
        tail_bound=truncation + rounding,
        terms_used=n_terms,
    )


# ---------------------------------------------------------------------------
# Bessel first zeros (ascending series on an arbitrary-precision substrate)
# ---------------------------------------------------------------------------

# regula falsi steps allowed once the sign change is found: orders up to 100
# settle in at most 10, and bisection from the hunt step to 1e-12 takes 41
_BRACKET_MAXIT = 50


def _series_sign(nu: float, x, mp) -> tuple[int, object]:
    """Sign and value of J_nu(x) via the even part of the ascending series.

    Evaluates sum_m (-1)^m (x^2/4)^m / (m! Gamma(m + nu + 1)), which shares
    the positive zeros of J_nu.  Terms stop once they are geometric with
    ratio <= 1/2 and negligible against the largest term seen.  Returns
    (sign, sum); the sign is 0 when the sum is too small to resolve: within
    twice the last term (the omitted tail) plus 4 m^2 eps max|term|, which
    bounds the rounding of m recursive term updates and their summation.
    The order is taken to working precision too: the terms cancel, so a
    float rounding in nu + m would move a zero of order 33.3 by 3e-7.
    """
    nu = mp.mpf(nu)
    t = mp.mpf(x) ** 2 / 4
    term = 1 / mp.gamma(nu + 1)
    total = term
    largest = abs(term)
    cutoff = mp.mpf(10) ** (-(mp.mp.dps + 10))
    m = 0
    while True:
        m += 1
        term = -term * t / (m * (nu + m))
        total += term
        largest = max(largest, abs(term))
        if (m + 1) * (nu + m + 1) > 2 * t and abs(term) < cutoff * largest:
            break
        if m > 100000:  # pragma: no cover - defensive
            raise ConvergenceFailure("ascending series did not settle")
    if abs(total) <= 2 * abs(term) + 4 * m * m * mp.eps * largest:
        return 0, total
    return (1 if total > 0 else -1), total


def _outward(lo, hi) -> tuple[float, float]:
    """Floats enclosing the working-precision bracket [lo, hi]."""
    flo, fhi = float(lo), float(hi)
    if flo > lo:
        flo = math.nextafter(flo, -math.inf)
    if fhi < hi:
        fhi = math.nextafter(fhi, math.inf)
    return flo, fhi


def _exact(lo, hi) -> tuple[Fraction, Fraction]:
    """The working-precision bracket [lo, hi] itself, as binary rationals."""
    return tuple(Fraction(m) * Fraction(2) ** e for m, e in (lo.man_exp, hi.man_exp))


def _working(q, mp):
    """A float or Fraction at working precision: exact for a float."""
    q = Fraction(q)
    return mp.mpf(q.numerator) / q.denominator


def bessel_zero_bracket(nu: float | Fraction, tol: float | Fraction = 1e-12) -> tuple:
    """Bracket [lo, hi] of the first positive zero of J_nu, hi - lo <= tol.

    A hunt from x = nu, below the first zero, in steps shorter than the gap
    between zeros finds the first sign change of the series.  Illinois
    regula falsi on the series values then narrows the bracket.  Each trial
    point keeps a quarter of tol (or of the bracket) clear of both ends, so
    once one end is that close to the zero the next trial lands past it.
    The order enters the series at working precision, exactly for a float
    and rounded once for a Fraction.  For a float tol the endpoints are
    floats rounded outward; for a Fraction tol they are the
    working-precision endpoints themselves, as exact rationals, and the
    working precision grows with the digits tol asks for.  Either way the
    endpoints carry opposite series signs at working precision.  Raises
    ConvergenceFailure if a sign cannot be resolved or the bracket is still
    wider than tol after _BRACKET_MAXIT steps.
    """
    if nu < 0:
        raise ValueError(f"order must be nonnegative, got {nu}")
    if tol <= 0:
        raise ValueError("tol must be positive")
    import mpmath as mp

    endpoints = _exact if isinstance(tol, Fraction) else _outward
    nu_f = float(nu)
    hunt_start = nu_f if nu_f > 0 else 0.25
    dps = 30 + int(0.5 * (nu_f + 12.0))
    if endpoints is _exact:  # one more digit per decimal digit of 1/tol past 12
        dps += max(0, len(str(tol.denominator // tol.numerator)) - 13)
    with mp.workdps(dps):
        order = _working(nu, mp)
        lo = mp.mpf(hunt_start)
        step = min(1.0 + 0.1 * nu_f ** (1.0 / 3.0), 2.0)
        sign_lo, f_lo = _series_sign(order, lo, mp)
        if sign_lo <= 0:
            raise ConvergenceFailure(
                f"series not positive at hunt start x={float(lo)} for nu={nu}"
            )
        hi = lo + step
        sign, f_hi = _series_sign(order, hi, mp)
        hunts = 0
        while sign > 0:
            lo, f_lo = hi, f_hi
            hi = lo + step
            sign, f_hi = _series_sign(order, hi, mp)
            hunts += 1
            if hunts > 400:
                raise ConvergenceFailure(f"no sign change found for nu={nu}")
        side = 0  # the end the last trial replaced: 1 for lo, -1 for hi
        steps = 0
        tol_wp = _working(tol, mp)
        while True:
            if sign == 0:
                raise ConvergenceFailure(f"unresolved series sign for nu={nu}")
            bracket = endpoints(lo, hi)
            if bracket[1] - bracket[0] <= tol:
                return bracket
            if steps == _BRACKET_MAXIT:
                raise ConvergenceFailure(
                    f"bracket for nu={nu} still {float(hi - lo):.3g} wide after "
                    f"{steps} regula falsi steps"
                )
            steps += 1
            margin = min(tol_wp, hi - lo) / 4
            x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
            x = min(max(x, lo + margin), hi - margin)
            sign, f = _series_sign(order, x, mp)
            if sign == 0:  # x is within rounding of the zero: straddle it
                lo, hi = x - margin, x + margin
                (sign_lo, f_lo), (sign_hi, f_hi) = (
                    _series_sign(order, end, mp) for end in (lo, hi)
                )
                sign = -1 if (sign_lo, sign_hi) == (1, -1) else 0
            elif sign > 0:
                lo, f_lo = x, f
                if side == 1:
                    f_hi /= 2
            elif sign < 0:
                hi, f_hi = x, f
                if side == -1:
                    f_lo /= 2
            side = sign


@functools.lru_cache(maxsize=4096)
def _cached_bracket(nu: float, tol: float) -> tuple[float, float]:
    return bessel_zero_bracket(nu, tol)


def bessel_first_zero(nu: float, tol: float = 1e-12) -> float:
    """First positive zero of J_nu to within tol (default well under 1e-10)."""
    lo, hi = _cached_bracket(float(nu), float(tol))
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Rectangles R_{a,b} = (-a, a) x (-b, b); A >= B are the longer and shorter
# half-widths, and each series runs along the short side
# ---------------------------------------------------------------------------


def rect_lambda1(r: Rectangle) -> float:
    """Principal Dirichlet eigenvalue (pi/2a)^2 + (pi/2b)^2."""
    return (math.pi / (2.0 * r.a)) ** 2 + (math.pi / (2.0 * r.b)) ** 2


def _torsion_series(r: Rectangle, n_terms: int) -> tuple[float, float]:
    """Torsional rigidity by the tanh series, and a bound on its error.

    The omitted terms are positive and below n^-5, so truncation makes the
    value an overestimate by at most the odd n^-5 tail.  Each summed term
    carries a few roundings and the running sum one per term; with
    (192/pi^5)(B/A) * sum < 0.64 all of it stays below (n_terms + 24) unit
    roundoffs of (4/3) A B^3.
    """
    _require_terms(n_terms)
    big, small = max(r.a, r.b), min(r.a, r.b)
    ratio = big / small
    total = 0.0
    for j in range(n_terms):
        n = 2 * j + 1
        total += math.tanh(n * math.pi * ratio / 2.0) / n**5
    scale = (4.0 / 3.0) * big * small**3
    factor = (192.0 / math.pi**5) / ratio
    truncation = scale * factor * _odd_inv_fifth_tail(2 * n_terms + 1)
    rounding = scale * (n_terms + 24) * _UNIT_ROUNDOFF
    return scale * (1.0 - factor * total), truncation + rounding


def rect_torsion(r: Rectangle, n_terms: int = 64) -> SeriesValue:
    """Torsional rigidity by the single tanh series over n_terms odd n.

    T = (4/3) A B^3 [1 - (192/pi^5)(B/A) sum_{n odd} tanh(n pi A/(2B))/n^5]
    (Polya & Szego 1951; Timoshenko & Goodier, Theory of Elasticity,
    sec. 109).  The truncated value is an overestimate.
    """
    value, bound = _torsion_series(r, n_terms)
    return SeriesValue(value=value, tail_bound=bound, terms_used=n_terms)


def rect_F(r: Rectangle, n_terms: int = 64) -> SeriesValue:
    """The scale-invariant eigenvalue-torsion functional of a rectangle.

    rect_lambda1 * T / area, with T from the tanh series over n_terms odd n;
    the bound adds ten unit roundoffs of F for the eigenvalue, the area and
    the two products.
    """
    lam = rect_lambda1(r)
    area = 4.0 * r.a * r.b
    torsion, bound = _torsion_series(r, n_terms)
    value = lam * torsion / area
    return SeriesValue(
        value=value,
        tail_bound=lam * bound / area + 10.0 * _UNIT_ROUNDOFF * value,
        terms_used=n_terms,
    )


def _sech(x: float) -> float:
    """1/cosh(x) for x >= 0, written so that no intermediate overflows."""
    e = math.exp(-x)
    return 2.0 * e / (1.0 + e * e)


def rect_center_torsion(r: Rectangle, n_terms: int = 256) -> SeriesValue:
    """Value of the torsion function at the rectangle center.

    u(0,0) = B^2/2 - (16 B^2/pi^3) sum_{n odd} (-1)^((n-1)/2) sech(n pi A/(2B)) / n^3,
    summed over n_terms odd n.  The terms alternate and shrink, so the
    truncation error is at most the first omitted term.  Every partial sum
    is below sech(pi/2) < 0.4 and each term carries a few roundings, so the
    rounding stays below (n_terms + 10) unit roundoffs of B^2.
    """
    _require_terms(n_terms)
    big, small = max(r.a, r.b), min(r.a, r.b)
    ratio = big / small
    total = 0.0
    for j in range(n_terms):
        n = 2 * j + 1
        term = _sech(n * math.pi * ratio / 2.0) / n**3
        total += term if j % 2 == 0 else -term
    b2 = small * small
    scale = 16.0 * b2 / math.pi**3
    n0 = 2 * n_terms + 1
    truncation = scale * _sech(n0 * math.pi * ratio / 2.0) / n0**3
    rounding = b2 * (n_terms + 10) * _UNIT_ROUNDOFF
    return SeriesValue(
        value=0.5 * b2 - scale * total,
        tail_bound=truncation + rounding,
        terms_used=n_terms,
    )

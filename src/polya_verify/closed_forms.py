"""Closed-form and series values: equilateral triangle, rectangles, sectors, Bessel zeros.

Every truncated series comes back as a SeriesValue carrying an explicit
tail bound, so callers can treat [value - tail_bound, value + tail_bound]
as an enclosure.  Rectangle torsion and centre values come from the
classical single series along the short side (tanh and sech), whose tail
bounds cover truncation and floating-point rounding; rect_F is
rect_lambda1 * T / area.  Bessel zeros are bracketed by the first sign
change of the ascending series and narrowed by Illinois regula falsi.  The
series cancels catastrophically in double precision once the order grows,
so it is summed in exact integers at scale 2^bits, each term rounded down
for one end of an enclosure and up for the other, and the alternating tail
past the last term adds that term's upper bound to both ends.  A sign is
taken only when the enclosure excludes 0, so it is never wrong: too few
bits make the bracket raise ConvergenceFailure instead.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .geometry import Rectangle, Sector


class AngleOutOfRange(ValueError):
    """Raised when an angle argument is outside the admissible range."""


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
# Bessel first zeros (ascending series in exact-integer interval arithmetic)
# ---------------------------------------------------------------------------

# regula falsi steps allowed once the sign change is found: orders up to 100
# settle in at most 10, and bisection from the hunt step to 1e-12 takes 41
_BRACKET_MAXIT = 50


def _series_sign(p: int, q: int, X: int, S: int, bits: int) -> tuple[int, int, int]:
    """Sign of J_nu(x), nu = p/q, x = X/2^S, from an integer enclosure of a series.

    S(x) = sum_m (-t)^m / (m! (nu+1)_m) with t = x^2/4 equals
    Gamma(nu+1) (2/x)^nu J_nu(x), so it shares the positive zeros of J_nu
    and needs no Gamma.  With N = X^2 q, term m is term m-1 times
    N / (2^(2S+2) m (p + m q)).  Each term's magnitude is carried at scale
    2^bits as a pair of integers: the update multiplies by N, shifts right
    by 2S + 2 and divides by m (p + m q), rounded down for the lower bound
    and up for the upper one.  Rounding twice is rounding once, since
    floor(floor(z)/n) = floor(z/n) and ceil(ceil(z)/n) = ceil(z/n) for a
    positive integer n, so each bound is the exact product rounded once.
    Even terms add to both ends of the sum, odd terms subtract the upper
    bound from the low end and the lower bound from the high end.  The sum
    stops once the next term ratio is at most 1/2, that is
    2N <= (m+1)(p+(m+1)q) 2^(2S+2), and the last upper bound is at most one
    unit.  The omitted terms then alternate and shrink, so their sum is at
    most half that bound, by which the enclosure widens.

    Returns (sign, low, high) with low <= 2^bits S(x) <= high.  The sign is
    0 unless the enclosure excludes 0, so too few bits leave a sign
    unresolved but never make it wrong.
    """
    n = X * X * q
    shift = 2 * S + 2
    lo_term = hi_term = low = high = 1 << bits
    m = 0
    while True:
        m += 1
        den = m * (p + m * q)
        lo_term = (lo_term * n >> shift) // den
        hi_term = -((-hi_term * n >> shift) // den)
        if m % 2:
            low, high = low - hi_term, high - lo_term
        else:
            low, high = low + lo_term, high + hi_term
        if hi_term <= 1 and 2 * n <= (m + 1) * (p + (m + 1) * q) << shift:
            break
    low, high = low - hi_term, high + hi_term
    return (1 if low > 0 else -1 if high < 0 else 0), low, high


def _at_scale(v: float, S: int) -> int:
    """The integer X with X / 2^S = v, for a float v exact at scale 2^-S."""
    num, den = v.as_integer_ratio()
    return (num << S) // den


def _outward(lo: int, hi: int, S: int) -> tuple[float, float]:
    """Floats enclosing the exact bracket [lo, hi] / 2^S."""
    flo, fhi = lo / (1 << S), hi / (1 << S)  # each correctly rounded
    num, den = flo.as_integer_ratio()
    if num << S > lo * den:
        flo = math.nextafter(flo, -math.inf)
    num, den = fhi.as_integer_ratio()
    if num << S < hi * den:
        fhi = math.nextafter(fhi, math.inf)
    return flo, fhi


def bessel_zero_bracket(nu: float | Fraction, tol: float | Fraction = 1e-12) -> tuple:
    """Bracket [lo, hi] of the first positive zero of J_nu, hi - lo <= tol.

    A hunt from x = nu, below the first zero, in steps shorter than the gap
    between zeros finds the first sign change of the series.  Illinois
    regula falsi on the series values then narrows the bracket.  Each trial
    point is rounded half to even to a multiple of 2^-bits that keeps a
    quarter of tol (or of the bracket) clear of both ends, so once one end
    is that close to the zero the next trial lands past it.  Every point is
    an integer X at one scale 2^-S, S >= bits, at which the float hunt
    start and step are exact, and the order enters the series as its exact
    Fraction p/q, so the series (_series_sign) and the regula falsi steps
    run in integers: the Illinois halvings keep both end values as integers
    over one shared power of two.  The series' directed rounding encloses
    the true sum, and a sign counts only when the enclosure excludes 0:
    each endpoint carries the true sign of J_nu, and too few bits can only
    raise ConvergenceFailure, never give a wrong bracket.  A trial whose
    sign is unresolved is replaced by a straddle of it whose signs are
    checked.  For a float tol the endpoints are the floats X/2^S rounded
    outward; for a Fraction tol they are the exact dyadic endpoints, and
    the bits grow with the digits tol asks for.  A non-finite order or tol
    raises ValueError.  Raises ConvergenceFailure if a sign cannot be
    resolved, tol is below the working precision, or the bracket is still
    wider than tol after _BRACKET_MAXIT steps.
    """
    for name, value in (("order", nu), ("tol", tol)):
        if not isinstance(value, Fraction) and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if nu < 0:
        raise ValueError(f"order must be nonnegative, got {nu}")
    if tol <= 0:
        raise ValueError("tol must be positive")
    exact = isinstance(tol, Fraction)
    (p, q), nu_f = Fraction(nu).as_integer_ratio(), float(nu)
    dps = 30 + int(0.5 * (nu_f + 12.0))
    if exact:  # one more digit per decimal digit of 1/tol past 12
        dps += max(0, len(str(tol.denominator // tol.numerator)) - 13)
    bits = math.ceil(dps * math.log2(10))
    start = nu_f if nu_f > 0 else 0.25
    step = min(1.0 + 0.1 * nu_f ** (1.0 / 3.0), 2.0)
    S = max(bits, *(v.as_integer_ratio()[1].bit_length() - 1 for v in (start, step)))
    shift = S - bits  # a trial point X is a multiple of 2^shift
    tol_n, tol_d = Fraction(tol).as_integer_ratio()
    tol_units = (tol_n << bits - 2) // tol_d  # floor(tol 2^bits / 4)

    def evaluate(X: int) -> tuple[int, int]:
        # regula falsi steers by the enclosure's midpoint, doubled
        sign, low, high = _series_sign(p, q, X, S, bits)
        return sign, low + high

    lo, step = _at_scale(start, S), _at_scale(step, S)
    sign_lo, f_lo = evaluate(lo)
    if sign_lo <= 0:
        raise ConvergenceFailure(
            f"series not positive at hunt start x={start} for nu={nu}"
        )
    hi = lo + step
    sign, f_hi = evaluate(hi)
    hunts = 0
    while sign > 0:
        lo, f_lo = hi, f_hi
        hi = lo + step
        sign, f_hi = evaluate(hi)
        hunts += 1
        if hunts > 400:
            raise ConvergenceFailure(f"no sign change found for nu={nu}")
    side = 0  # the end the last trial replaced: 1 for lo, -1 for hi
    halvings = 0  # f_lo and f_hi are the end values times 2^halvings
    steps = 0
    while True:
        if sign == 0:
            raise ConvergenceFailure(f"unresolved series sign for nu={nu}")
        if exact:
            if (hi - lo) * tol_d <= tol_n << S:
                return Fraction(lo, 1 << S), Fraction(hi, 1 << S)
        else:
            bracket = _outward(lo, hi, S)
            if bracket[1] - bracket[0] <= tol:
                return bracket
        if steps == _BRACKET_MAXIT:
            raise ConvergenceFailure(
                f"bracket for nu={nu} still {(hi - lo) / (1 << S):.3g} wide after "
                f"{steps} regula falsi steps"
            )
        steps += 1
        units = min(tol_units, (hi - lo) >> shift + 2)
        if units == 0:
            raise ConvergenceFailure(f"tol {tol} is finer than the working precision")
        margin = units << shift
        # f_lo > 0 > f_hi, so the secant's zero is (hi f_lo - lo f_hi) / (f_lo - f_hi)
        den = (f_lo - f_hi) << shift
        x, rest = divmod(hi * f_lo - lo * f_hi, den)
        if 2 * rest > den or (2 * rest == den and x % 2):
            x += 1
        x = max(x, -(-(lo + margin) >> shift))
        x = min(x, (hi - margin) >> shift) << shift
        sign, f = evaluate(x)
        if sign == 0:  # x is within rounding of the zero: straddle it
            lo, hi = x - margin, x + margin
            (sign_lo, f_lo), (sign_hi, f_hi) = evaluate(lo), evaluate(hi)
            sign = -1 if (sign_lo, sign_hi) == (1, -1) else 0
            halvings = 0
        elif sign > 0:
            lo, f_lo = x, f << halvings
            if side == 1:  # halve f_hi: double f_lo over one more power of two
                f_lo, halvings = f_lo << 1, halvings + 1
        elif sign < 0:
            hi, f_hi = x, f << halvings
            if side == -1:
                f_hi, halvings = f_hi << 1, halvings + 1
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

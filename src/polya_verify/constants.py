"""Directed-rounded rational enclosures for the irrational constants the toolkit uses.

Every enclosure is a pair of exact rationals that bracket the target value:
alternating partial sums with remainder control for the arctangent series
behind pi, an Euler-Maclaurin tail bracket for zeta(5), and rational
bisection for algebraic roots.  Bessel zeros are bracketed by sign changes
of the ascending series summed in exact integers with directed rounding,
so their dyadic endpoints carry certified signs.  The only bracket from a
floating-point search is the reference-grade Airy one, located by mpmath
at high working precision and padded outward (the package's one use of
mpmath); certified inequality chains never consume it (they use the exact
rational lower-bound constant c1 instead).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

RationalLike = Union[int, float, str, Fraction]


class UnknownConstant(ValueError):
    """Raised when enclose() is asked for a constant it does not house."""


class DivisionByIntervalContainingZero(ZeroDivisionError):
    """Raised when dividing by an interval that straddles zero."""


def as_fraction(x: RationalLike) -> Fraction:
    """Convert ints, floats, Fractions, and plain/scientific strings exactly."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        try:
            return Fraction(x)
        except ValueError:
            return Fraction(float(x))
    return Fraction(x)


@dataclass(frozen=True)
class RationalInterval:
    """Closed interval [lo, hi] with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", as_fraction(self.lo))
        object.__setattr__(self, "hi", as_fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"empty interval: lo={self.lo} > hi={self.hi}")

    # -- queries ---------------------------------------------------------

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, x: RationalLike) -> bool:
        x = as_fraction(x)
        return self.lo <= x <= self.hi

    def straddles_zero(self) -> bool:
        return self.lo <= 0 <= self.hi

    def __float__(self) -> float:
        return float(self.midpoint)

    # -- arithmetic (outward by construction: endpoints are exact) --------

    def __neg__(self) -> "RationalInterval":
        return RationalInterval(-self.hi, -self.lo)

    def __add__(self, other: "RationalInterval") -> "RationalInterval":
        other = _coerce(other)
        return RationalInterval(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __sub__(self, other: "RationalInterval") -> "RationalInterval":
        return self + (-_coerce(other))

    def __rsub__(self, other: "RationalInterval") -> "RationalInterval":
        return _coerce(other) + (-self)

    def __mul__(self, other: "RationalInterval") -> "RationalInterval":
        other = _coerce(other)
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return RationalInterval(min(products), max(products))

    __rmul__ = __mul__

    def __truediv__(self, other: "RationalInterval") -> "RationalInterval":
        other = _coerce(other)
        if other.straddles_zero():
            raise DivisionByIntervalContainingZero(
                f"cannot divide by {other}: it contains zero"
            )
        return self * RationalInterval(1 / other.hi, 1 / other.lo)

    def __rtruediv__(self, other) -> "RationalInterval":
        return _coerce(other) / self

    def power(self, n: int) -> "RationalInterval":
        """Integer power, exact image set (even powers clamp at zero)."""
        if not isinstance(n, int):
            raise TypeError("power() wants an integer exponent")
        if n < 0:
            return RationalInterval(1, 1) / self.power(-n)
        if n == 0:
            return RationalInterval(1, 1)
        if n % 2 == 1 or self.lo >= 0:
            return RationalInterval(self.lo**n, self.hi**n)
        if self.hi <= 0:
            return RationalInterval(self.hi**n, self.lo**n)
        return RationalInterval(0, max(self.lo**n, self.hi**n))

    def intersect(self, other: "RationalInterval") -> "RationalInterval":
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        if lo > hi:
            raise ValueError(f"disjoint intervals: {self} and {other}")
        return RationalInterval(lo, hi)


def _coerce(x) -> RationalInterval:
    if isinstance(x, RationalInterval):
        return x
    f = as_fraction(x)
    return RationalInterval(f, f)


def point(x: RationalLike) -> RationalInterval:
    """Degenerate interval [x, x]."""
    f = as_fraction(x)
    return RationalInterval(f, f)


# ---------------------------------------------------------------------------
# Series and bisection builders
# ---------------------------------------------------------------------------


def _arctan_recip(m: int, tol: Fraction) -> RationalInterval:
    """Bracket arctan(1/m) between consecutive alternating partial sums."""
    x = Fraction(1, m)
    x2 = x * x
    term = x
    total = Fraction(0)
    prev = Fraction(0)
    k = 0
    while True:
        prev = total
        total += term if k % 2 == 0 else -term
        k += 1
        term *= x2 * Fraction(2 * k - 1, 2 * k + 1)
        if term <= tol:
            # one more partial sum so the last two straddle the limit
            final = total + (term if k % 2 == 0 else -term)
            return RationalInterval(min(total, final), max(total, final))


def _pi_interval(eps: Fraction) -> RationalInterval:
    """Machin: pi = 16 arctan(1/5) - 4 arctan(1/239)."""
    tol = eps / 64
    a = _arctan_recip(5, tol)
    b = _arctan_recip(239, tol)
    return point(16) * a - point(4) * b


def _root_bracket(c: Fraction, n: int, eps: Fraction) -> tuple[Fraction, Fraction]:
    """Rational (lo, hi) with lo**n <= c <= hi**n and hi - lo <= eps, by bisection."""
    lo, hi = Fraction(0), max(Fraction(1), c)
    while hi - lo > eps:
        mid = (lo + hi) / 2
        if mid**n <= c:
            lo = mid
        else:
            hi = mid
    return lo, hi


def _nth_root_interval(c: RationalInterval, n: int, eps: Fraction) -> RationalInterval:
    """Enclosure of c**(1/n) for nonnegative c, monotone in the endpoints."""
    if c.lo < 0:
        raise ValueError("nth root of an interval with negative endpoint")
    return RationalInterval(
        _root_bracket(c.lo, n, eps / 2)[0], _root_bracket(c.hi, n, eps / 2)[1]
    )


def _zeta5_interval(eps: Fraction) -> RationalInterval:
    """zeta(5) by scaled-integer partial sum plus an Euler-Maclaurin tail.

    Tail identity from N on:  sum_{n>=N} n^-5  =  1/(4N^4) + 1/(2N^5)
    + 5/(12N^6) - 7/(24N^8) + E  with |E| <= 1/(2 N^10).
    """
    n_terms = 1000
    while Fraction(1, n_terms**10) > eps / 4:
        n_terms *= 2
    scale = 10 ** max(45, _decimal_digits(eps) + 10)
    lo_sum = 0
    hi_sum = 0
    for n in range(1, n_terms):
        q, r = divmod(scale, n**5)
        lo_sum += q
        hi_sum += q + (1 if r else 0)
    partial = RationalInterval(Fraction(lo_sum, scale), Fraction(hi_sum, scale))
    big_n = n_terms
    tail_mid = (
        Fraction(1, 4 * big_n**4)
        + Fraction(1, 2 * big_n**5)
        + Fraction(5, 12 * big_n**6)
        - Fraction(7, 24 * big_n**8)
    )
    tail_err = Fraction(1, 2 * big_n**10)
    tail = RationalInterval(tail_mid - tail_err, tail_mid + tail_err)
    return partial + tail


def _decimal_digits(eps: Fraction) -> int:
    """Smallest d with 10**-d <= eps (clamped below at 1)."""
    d = 1
    while Fraction(1, 10**d) > eps and d < 400:
        d += 1
    return d


def _reference_bracket_neg_a1(eps: Fraction) -> RationalInterval:
    """Reference-grade bracket for the magnitude of the first Airy-function zero.

    The zero is located at high working precision and the bracket is
    validated by a sign change of the Airy function at its endpoints.
    """
    import mpmath as mp

    digits = max(30, _decimal_digits(eps) + 10)
    with mp.workdps(digits + 15):
        z = mp.airyaizero(1)  # negative real number
        delta = mp.mpf(10) ** (-digits)
        lo_pt, hi_pt = z - delta, z + delta
        if mp.sign(mp.airyai(lo_pt)) * mp.sign(mp.airyai(hi_pt)) < 0:
            pad = Fraction(0)
        else:  # pragma: no cover - defensive padding
            pad = Fraction(1, 10 ** (digits - 5))
        lo = as_fraction(mp.nstr(-hi_pt, digits + 5)) - pad
        hi = as_fraction(mp.nstr(-lo_pt, digits + 5)) + pad
    # outward nudge for the decimal-string conversion itself
    slack = Fraction(1, 10 ** (digits - 2))
    return RationalInterval(lo - slack, hi + slack)


def _bessel_zero_interval(nu: Fraction, eps: Fraction) -> RationalInterval:
    """Bracket for the first positive zero of J_nu.

    The order enters the series from its Fraction, and the endpoints are
    the exact dyadic bracket itself, so the width reaches any eps.
    """
    from . import closed_forms

    return RationalInterval(*closed_forms.bessel_zero_bracket(nu, eps))


# ---------------------------------------------------------------------------
# Constant registry
# ---------------------------------------------------------------------------

C1 = Fraction(2338107, 1000000)
K = Fraction(23, 10)


def _build(cid: str, eps: Fraction) -> RationalInterval:
    if cid == "pi":
        return _pi_interval(eps)
    if cid == "pi_pow_2":
        return _pi_interval(eps / 8).power(2)
    if cid == "pi_pow_5":
        return _pi_interval(eps / 1024).power(5)
    if cid == "pi_pow_2_3":
        return _nth_root_interval(_pi_interval(eps / 16).power(2), 3, eps / 2)
    if cid == "pi_pow_4_3":
        pi = _pi_interval(eps / 16)
        return pi * _nth_root_interval(pi, 3, eps / 16)
    if cid == "sqrt3":
        return _nth_root_interval(point(3), 2, eps)
    if cid == "two_pow_1_3":
        return _nth_root_interval(point(2), 3, eps)
    if cid == "two_pow_2_3":
        return _nth_root_interval(point(4), 3, eps)
    if cid == "zeta5":
        return _zeta5_interval(eps)
    if cid == "neg_a1":
        return _reference_bracket_neg_a1(eps)
    if cid.startswith("j_"):
        try:
            nu = as_fraction(cid[2:])
        except (ValueError, ZeroDivisionError) as exc:
            raise UnknownConstant(cid) from exc
        if nu < 0:
            raise UnknownConstant(cid)
        return _bessel_zero_interval(nu, eps)
    raise UnknownConstant(cid)


def enclose(constant_id: str, eps: RationalLike = Fraction(1, 10**12)) -> RationalInterval:
    """Rational enclosure of width <= eps for a housed constant.

    constant_id is a canonical id: pi, pi_pow_2, pi_pow_5, pi_pow_2_3,
    pi_pow_4_3, sqrt3, two_pow_1_3, two_pow_2_3, zeta5, neg_a1, or j_<nu>
    for the first zero of J_nu; anything else raises UnknownConstant.

    The result depends on (constant_id, eps) alone: each pair is built once
    per process and memoized, so the same call returns the same rational
    endpoints whatever ran before it.
    """
    eps_f = as_fraction(eps)
    if eps_f <= 0:
        raise ValueError("eps must be positive")
    return _enclosure(constant_id, eps_f)


@functools.cache
def _enclosure(constant_id: str, eps: Fraction) -> RationalInterval:
    result = _build(constant_id, eps)
    attempts = 0
    while result.width > eps and attempts < 8:
        attempts += 1
        result = _build(constant_id, eps / 4**attempts)
    if result.width > eps:
        raise UnknownConstant(
            f"could not tighten {constant_id} to requested width {eps}"
        )
    return result

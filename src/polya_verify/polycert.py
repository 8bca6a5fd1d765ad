"""Exact rational certificates that a one-variable polynomial is nonpositive.

The certifier works on an interval (0, dx] by carrying positive coefficients
down one degree at a time (a_i x^i <= a_i dx x^(i-1) for a_i > 0 and
0 < x <= dx), which proves P(x) <= c_0 for the reduced constant c_0.  When
c_0 > 0 the interval is split in half, the right half being handled by an
exact Taylor shift.  The certifier is Fraction arithmetic end to end, so a
returned certificate is a proof, not a numeric indication.

The module also builds the lemma polynomials whose nonpositivity underlies
the triangle lower-bound case analysis.  Their irrational coefficients are
first enclosed in rational intervals and then rounded upward once; since
the certification domain lies in x > 0, the rounded polynomial dominates
the true one pointwise and its certificate transfers.  The builders run on
an integer interval kernel: every coefficient is a pair of integers
(lo, hi) standing for [lo, hi] * 2^-P.  Sums, negation and integer
multiples are exact; a product floors its lower end and ceils its upper
end, so each pair encloses the exact rational result.  A lemma is one
coefficient tuple (dense, ascending), built once per process and handed
out as RationalIntervals with dyadic endpoints; the re-centered lemmas
shift the cached tuple with the same synthetic division that taylor_shift
applies to Fraction coefficients.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .constants import (
    C1,
    K,
    RationalInterval,
    as_fraction,
    enclose,
    point,
)


class DepthExhausted(RuntimeError):
    """Subdivision hit the depth limit without settling the sign."""

    def __init__(self, message: str, witness: dict):
        super().__init__(message)
        self.witness = witness


class ZeroWidthInterval(ValueError):
    """Raised when asked to certify over an empty interval."""


class UnknownName(KeyError):
    """Raised for a lemma-polynomial name the builder does not know."""


@dataclass(frozen=True)
class RationalPoly:
    """Dense rational polynomial; coeffs[i] multiplies x**i, trailing zeros trimmed."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        cleaned = [as_fraction(c) for c in self.coeffs]
        while cleaned and cleaned[-1] == 0:
            cleaned.pop()
        object.__setattr__(self, "coeffs", tuple(cleaned))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x: Fraction) -> Fraction:
        return eval_exact(self, x)

    def derivative(self) -> "RationalPoly":
        return RationalPoly(
            tuple(i * c for i, c in enumerate(self.coeffs) if i > 0)
        )

    def __neg__(self) -> "RationalPoly":
        return RationalPoly(tuple(-c for c in self.coeffs))


def eval_exact(poly: RationalPoly, x) -> Fraction:
    """Horner evaluation in exact rational arithmetic."""
    x = as_fraction(x)
    acc = Fraction(0)
    for c in reversed(poly.coeffs):
        acc = acc * x + c
    return acc


def _shift(coeffs: Sequence, c) -> list:
    """Ascending coefficients of p(x + c) by synthetic division.

    The entries and c may be Fractions, for an exact shift of a certified
    polynomial, or kernel intervals (_Scaled), for an outward-rounded shift
    of a lemma coefficient tuple: the same loop serves both.
    """
    b = list(coeffs)
    for i in range(len(b) - 1):
        for j in range(len(b) - 2, i - 1, -1):
            b[j] = b[j] + b[j + 1] * c
    return b


def taylor_shift(poly: RationalPoly, c) -> RationalPoly:
    """Exact coefficients of poly(x + c), by synthetic division."""
    return RationalPoly(tuple(_shift(poly.coeffs, as_fraction(c))))


@dataclass(frozen=True)
class Certificate:
    """Outcome of a nonpositivity run over (0, dx].

    intervals tile (0, dx] exactly; each entry (lo, hi, reduced_constant)
    records that the polynomial is at most reduced_constant <= 0 on (lo, hi].
    failure_witness, when set, is a point x with polynomial(x) > 0.
    """

    polynomial: RationalPoly
    dx: Fraction
    intervals: tuple[tuple[Fraction, Fraction, Fraction], ...]
    depth: int
    failure_witness: Optional[tuple[Fraction, Fraction]] = None

    @property
    def ok(self) -> bool:
        return self.failure_witness is None

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "dx": str(self.dx),
            "depth": self.depth,
            "polynomial": [str(c) for c in self.polynomial.coeffs],
            "intervals": [
                [str(lo), str(hi), str(c0)] for lo, hi, c0 in self.intervals
            ],
            "failure_witness": (
                None
                if self.failure_witness is None
                else [str(self.failure_witness[0]), str(self.failure_witness[1])]
            ),
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)


def _scan_constant(coeffs: Sequence[Fraction], width: Fraction) -> Fraction:
    """Reduced constant of the positive-coefficient carry on (0, width]."""
    carry = Fraction(0)
    for a in reversed(coeffs[1:]):
        carry = a + width * carry
        if carry < 0:
            carry = Fraction(0)
    return coeffs[0] + width * carry if coeffs else Fraction(0)


def certify_nonpositive(
    poly: RationalPoly, dx, max_depth: int = 40
) -> Certificate:
    """Prove poly <= 0 on (0, dx], subdividing as needed.

    Returns a Certificate whose intervals tile (0, dx].  A point where the
    polynomial is exactly positive yields ok=False with that witness.  If the
    sign cannot be settled within max_depth subdivisions (max_depth < 0 raises
    ValueError), DepthExhausted is raised with the offending subinterval.
    """
    if max_depth < 0:
        raise ValueError(f"max_depth must be nonnegative, got {max_depth}")
    dx = as_fraction(dx)
    if dx <= 0:
        raise ZeroWidthInterval(f"dx must be positive, got {dx}")
    if poly.degree < 0:  # the zero polynomial
        return Certificate(poly, dx, ((Fraction(0), dx, Fraction(0)),), 0)

    intervals: list[tuple[Fraction, Fraction, Fraction]] = []
    max_seen = 0

    def visit(local: RationalPoly, offset: Fraction, width: Fraction, depth: int):
        nonlocal max_seen
        max_seen = max(max_seen, depth)
        coeffs = local.coeffs if local.coeffs else (Fraction(0),)
        for probe in (width, width / 2):
            val = eval_exact(local, probe)
            if val > 0:
                return offset + probe, val
        c0 = _scan_constant(coeffs, width)
        if c0 <= 0:
            intervals.append((offset, offset + width, c0))
            return None
        if depth >= max_depth:
            raise DepthExhausted(
                f"depth {max_depth} exhausted on ({float(offset):.6g}, "
                f"{float(offset + width):.6g}] with reduced constant "
                f"{float(c0):.6g}",
                witness={
                    "lo": str(offset),
                    "hi": str(offset + width),
                    "reduced_constant": str(c0),
                },
            )
        half = width / 2
        bad = visit(local, offset, half, depth + 1)
        if bad is not None:
            return bad
        return visit(taylor_shift(local, half), offset + half, half, depth + 1)

    witness = visit(poly, Fraction(0), dx, 0)
    if witness is not None:
        return Certificate(poly, dx, tuple(intervals), max_seen, witness)
    return Certificate(poly, dx, tuple(intervals), max_seen)


# ---------------------------------------------------------------------------
# Lemma coefficient tuples: dense, ascending, integer interval kernel entries
# ---------------------------------------------------------------------------

# every lemma coefficient is an integer multiple of 2^-P at both ends
P = 256


class _Scaled:
    """Interval [lo, hi] * 2^-P with integer ends, rounded outward.

    Sums, negation and integer multiples are exact.  A product of two
    intervals sits at scale 2^-2P; ``>>`` floors its lower end (also for
    negative numbers) and the negated shift ceils its upper end.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: int, hi: int):
        self.lo = lo
        self.hi = hi

    def __add__(self, other: "_Scaled") -> "_Scaled":
        return _Scaled(self.lo + other.lo, self.hi + other.hi)

    def __neg__(self) -> "_Scaled":
        return _Scaled(-self.hi, -self.lo)

    def __mul__(self, other) -> "_Scaled":
        if isinstance(other, int):
            ends = (self.lo * other, self.hi * other)
            return _Scaled(min(ends), max(ends))
        ends = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return _Scaled(min(ends) >> P, -(-max(ends) >> P))

    def interval(self) -> RationalInterval:
        return RationalInterval(Fraction(self.lo, 1 << P), Fraction(self.hi, 1 << P))


def _scaled(value) -> _Scaled:
    """Outward kernel interval of an int, Fraction or RationalInterval.

    Dyadic endpoints at scale 2^-P, such as those of a built lemma, convert
    exactly.
    """
    iv = value if isinstance(value, RationalInterval) else point(value)
    lo, hi = iv.lo, iv.hi
    return _Scaled(
        (lo.numerator << P) // lo.denominator,
        -((-hi.numerator << P) // hi.denominator),
    )


def _poly(terms: dict) -> tuple:
    """Dense kernel coefficients from {degree: value}, values rational or intervals."""
    return tuple(_scaled(terms.get(deg, 0)) for deg in range(max(terms) + 1))


def _add(p: tuple, q: tuple) -> tuple:
    if len(p) < len(q):
        p, q = q, p
    return tuple(a + b for a, b in zip(p, q)) + p[len(q):]


def _mul(p: tuple, q: tuple) -> tuple:
    out = [_Scaled(0, 0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return tuple(out)


def _pow(p: tuple, n: int) -> tuple:
    out = _poly({0: 1})
    for _ in range(n):
        out = _mul(out, p)
    return out


# ---------------------------------------------------------------------------
# The lemma polynomials
# ---------------------------------------------------------------------------

_COEFF_EPS = Fraction(1, 10**30)


def _c_ratio() -> RationalInterval:
    """k * 2^(1/3) / pi^(2/3), the coefficient in the medium-aspect case."""
    return (
        point(K)
        * enclose("two_pow_1_3", _COEFF_EPS)
        / enclose("pi_pow_2_3", _COEFF_EPS)
    )


def _p1_acute_intervals() -> tuple:
    """Degree-33 polynomial whose nonpositivity gives the medium-aspect case.

    5x^3 (1 + 4 A(x)^2) - 3 B(x) (1 + C x^2)^2 with
    A = x^3 + x^9/3 + 2x^15/5, B = x^3 + x^9/3 + 2x^15/15,
    C = k 2^(1/3) / pi^(2/3).
    """
    a_poly = _poly({3: 1, 9: Fraction(1, 3), 15: Fraction(2, 5)})
    b_poly = _poly({3: 1, 9: Fraction(1, 3), 15: Fraction(2, 15)})
    quad = _poly({0: 1, 2: _c_ratio()})
    first = _add(_poly({3: 5}), _mul(_poly({0: 20}), _mul(_poly({3: 1}), _pow(a_poly, 2))))
    second = _mul(_poly({0: -3}), _mul(b_poly, _pow(quad, 2)))
    return _add(first, second)


def _monotone_product_intervals() -> tuple:
    """Degree-22 product whose increase drives the thin-acute reduction.

    (x^6/3 + c2 x^9 + 2x^12/15 + 17x^18/315)
      * (pi^2 + 2^(2/3) c1 pi^(4/3) x^2 + c1^2 (pi/2)^(2/3) x^4),
    c2 = -124 zeta(5) / pi^5.
    """
    zeta5 = enclose("zeta5", _COEFF_EPS)
    pi2 = enclose("pi_pow_2", _COEFF_EPS)
    pi43 = enclose("pi_pow_4_3", _COEFF_EPS)
    pi23 = enclose("pi_pow_2_3", _COEFF_EPS)
    pi5 = enclose("pi_pow_5", _COEFF_EPS)
    cbrt4 = enclose("two_pow_2_3", _COEFF_EPS)
    c1 = point(C1)
    c2 = -(point(124) * zeta5 / pi5)
    series = _poly(
        {6: Fraction(1, 3), 9: c2, 12: Fraction(2, 15), 18: Fraction(17, 315)}
    )
    quad = _poly({0: pi2, 2: cbrt4 * c1 * pi43, 4: c1 * c1 * pi23 / cbrt4})
    return _mul(series, quad)


def _neg_p1prime_intervals() -> tuple:
    product = _monotone_product_intervals()
    return tuple(-c * deg for deg, c in enumerate(product) if deg > 0)


def _q_mgeq3_intervals() -> tuple:
    """Degree-31 polynomial for the thin-triangle threshold reduction.

    (1 + x^6/3 + 2x^12/5)^2
      - (1 - x^6/8)^4 (1 + C x^2)^2 (1 - D x^3),
    C = c1 / (2^(1/3) pi^(2/3)), D = 372 zeta(5) / pi^5.
    """
    zeta5 = enclose("zeta5", _COEFF_EPS)
    pi23 = enclose("pi_pow_2_3", _COEFF_EPS)
    pi5 = enclose("pi_pow_5", _COEFF_EPS)
    cbrt2 = enclose("two_pow_1_3", _COEFF_EPS)
    c_iv = point(C1) / (cbrt2 * pi23)
    d_iv = point(372) * zeta5 / pi5
    part1 = _pow(_poly({0: 1, 6: Fraction(1, 3), 12: Fraction(2, 5)}), 2)
    part2 = _mul(
        _mul(
            _pow(_poly({0: 1, 6: Fraction(-1, 8)}), 4),
            _pow(_poly({0: 1, 2: c_iv}), 2),
        ),
        _poly({0: 1, 3: -d_iv}),
    )
    return _add(part1, tuple(-c for c in part2))


_LEMMA_BUILDERS = {
    "P1_acute": _p1_acute_intervals,
    "negP1prime_mono": _neg_p1prime_intervals,
    "Q_mgeq3": _q_mgeq3_intervals,
}

# re-centered lemmas: name -> (lemma, c), the coefficients of lemma(x + c).
# A certificate of P2_acute on (0, dx] covers P1_acute on (49/100, 49/100 +
# dx]; one of negP1prime_mono_shifted extends negP1prime_mono past 444/1000.
RECENTERED = {
    "P2_acute": ("P1_acute", Fraction(49, 100)),
    "negP1prime_mono_shifted": ("negP1prime_mono", Fraction(444, 1000)),
}


@functools.cache
def _lemma(name: str) -> tuple:
    """RationalInterval coefficients of a named lemma, built once per process.

    A re-centered lemma reads its base back into the kernel exactly (the
    endpoints are dyadic at scale 2^-P) and shifts it by an outward
    interval around its re-centering point.
    """
    if name in RECENTERED:
        base, c = RECENTERED[name]
        kernel = _shift([_scaled(iv) for iv in _lemma(base)], _scaled(c))
    elif name in _LEMMA_BUILDERS:
        kernel = _LEMMA_BUILDERS[name]()
    else:
        raise UnknownName(name)
    return tuple(coeff.interval() for coeff in kernel)


def build_lemma_polynomial(name: str, rounding: str = "upper"):
    """Construct a lemma polynomial with controlled coefficient rounding.

    rounding="upper" returns a RationalPoly of upper-rounded coefficients
    (dominates the true polynomial pointwise for x > 0, so nonpositivity
    certificates transfer).  rounding="interval" returns the dense list of
    RationalInterval coefficients.
    """
    coeffs = _lemma(name)
    if rounding == "interval":
        return list(coeffs)
    if rounding == "upper":
        return RationalPoly(tuple(iv.hi for iv in coeffs))
    raise ValueError(f"unknown rounding mode {rounding!r}")

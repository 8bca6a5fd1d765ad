"""Rational interval arithmetic and constant enclosures."""

import math
import sys
import threading
from fractions import Fraction

import mpmath
import pytest

from polya_verify import constants
from polya_verify.constants import (
    C1,
    DivisionByIntervalContainingZero,
    K,
    RationalInterval,
    UnknownConstant,
    as_fraction,
    enclose,
)

# correctly rounded float64 values; compounded float arithmetic such as
# math.pi**5 lands a few ulps away and falls outside tight brackets
REFERENCE = {
    "pi": 3.141592653589793,
    "pi_pow_2": 9.869604401089358,
    "pi_pow_5": 306.01968478528147,
    "pi_pow_2_3": 2.1450293971110255,
    "pi_pow_4_3": 4.60115111447049,
    "two_pow_1_3": 1.2599210498948732,
    "two_pow_2_3": 1.5874010519681996,
    "zeta5": 1.03692775514337,
}


def test_as_fraction_is_exact_on_rational_inputs():
    assert as_fraction(3) == Fraction(3)
    assert as_fraction(Fraction(2, 7)) == Fraction(2, 7)
    assert as_fraction("5/8") == Fraction(5, 8)
    assert as_fraction(0.5) == Fraction(1, 2)


def test_named_constants_are_the_advertised_rationals():
    assert K == Fraction(23, 10)
    assert C1 == Fraction(2338107, 1000000)


@pytest.mark.parametrize("cid,ref", sorted(REFERENCE.items()))
def test_enclosures_bracket_reference_values(cid, ref):
    iv = enclose(cid, eps=Fraction(1, 10**12))
    assert iv.width <= Fraction(1, 10**12)
    assert float(iv.lo) <= ref <= float(iv.hi) or iv.contains(as_fraction(ref))


@pytest.mark.parametrize("cid", ["zeta5", "pi_pow_2", "two_pow_1_3"])
def test_enclosure_depends_only_on_constant_and_width(cid):
    # a certificate's constants must be recomputable from (constant, width)
    # alone, whatever was enclosed earlier in the process
    eps = Fraction(1, 10**8)
    constants._enclosure.cache_clear()
    cold = enclose(cid, eps)
    for other, width in ((cid, Fraction(1, 10**30)), (cid, Fraction(1, 10)), ("pi", eps)):
        enclose(other, width)
        assert enclose(cid, eps) == cold
    assert enclose(cid, "1e-8") == cold


def test_enclose_from_threads_on_a_cold_memo_matches_a_serial_call():
    # frequent thread switches, so that the workers race to build the same
    # (constant, width) pairs
    queries = [("pi_pow_2", Fraction(1, 10**30)), ("zeta5", Fraction(1, 10**15)),
               ("pi_pow_4_3", Fraction(1, 10**20)), ("sqrt3", Fraction(1, 10**12))]
    constants._enclosure.cache_clear()
    serial = [enclose(cid, eps) for cid, eps in queries]
    constants._enclosure.cache_clear()
    start = threading.Barrier(4)
    results = [None] * 4

    def worker(k):
        start.wait()
        results[k] = [enclose(cid, eps) for cid, eps in queries]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    assert results == [serial] * 4


@pytest.mark.parametrize(
    "cid,nu,eps,digits",
    [
        ("j_3", Fraction(3), Fraction(1, 10**20), 60),
        ("j_1/3", Fraction(1, 3), Fraction(1, 10**20), 60),
        # a regula falsi trial lands within rounding of this zero
        ("j_3", Fraction(3), Fraction(1, 10**80), 120),
    ],
    ids=["j_3", "j_1/3", "j_3-at-1e-80"],
)
def test_bessel_zero_enclosures_reach_any_width(cid, nu, eps, digits):
    iv = enclose(cid, eps)
    assert iv.width <= eps
    with mpmath.workdps(digits):
        zero = mpmath.besseljzero(mpmath.mpf(nu.numerator) / nu.denominator, 1)
        lo = mpmath.mpf(iv.lo.numerator) / iv.lo.denominator
        hi = mpmath.mpf(iv.hi.numerator) / iv.hi.denominator
        assert lo <= zero <= hi


def test_unknown_constant_raises():
    with pytest.raises(UnknownConstant):
        enclose("feigenbaum")
    with pytest.raises(UnknownConstant):
        enclose("π")  # display spellings are not ids; pi is
    with pytest.raises(UnknownConstant):
        enclose("neg_a1")  # the Airy zero enters only as the rationals K < C1


def test_interval_addition_and_subtraction():
    a = RationalInterval(Fraction(1, 3), Fraction(1, 2))
    b = RationalInterval(Fraction(-1, 4), Fraction(1, 4))
    s = a + b
    assert s.lo == Fraction(1, 12) and s.hi == Fraction(3, 4)
    d = a - b
    assert d.lo == Fraction(1, 12) and d.hi == Fraction(3, 4)
    assert (1 - a).lo == Fraction(1, 2)


def test_interval_multiplication_covers_sign_cases():
    neg = RationalInterval(Fraction(-2), Fraction(-1))
    pos = RationalInterval(Fraction(3), Fraction(5))
    mix = RationalInterval(Fraction(-1), Fraction(2))
    assert (neg * pos).lo == Fraction(-10) and (neg * pos).hi == Fraction(-3)
    assert (mix * mix).lo == Fraction(-2) and (mix * mix).hi == Fraction(4)
    assert (pos * 2).lo == Fraction(6)


def test_interval_division_and_zero_straddle_guard():
    pos = RationalInterval(Fraction(1), Fraction(2))
    div = RationalInterval(Fraction(4), Fraction(8)) / pos
    assert div.lo == Fraction(2) and div.hi == Fraction(8)
    with pytest.raises(DivisionByIntervalContainingZero):
        pos / RationalInterval(Fraction(-1), Fraction(1))


def test_interval_power_of_sign_straddling_base_is_tight():
    mix = RationalInterval(Fraction(-2), Fraction(3))
    sq = mix.power(2)
    assert sq.lo == Fraction(0) and sq.hi == Fraction(9)
    cube = mix.power(3)
    assert cube.lo == Fraction(-8) and cube.hi == Fraction(27)


def test_interval_predicates_and_float_view():
    iv = RationalInterval(Fraction(-1, 2), Fraction(1, 3))
    assert iv.straddles_zero
    assert iv.contains(Fraction(0))
    assert not iv.contains(Fraction(1))
    assert iv.midpoint == Fraction(-1, 12)
    assert float(iv) == pytest.approx(-1.0 / 12.0)


def test_interval_intersection_requires_overlap():
    a = RationalInterval(Fraction(0), Fraction(2))
    b = RationalInterval(Fraction(1), Fraction(3))
    both = a.intersect(b)
    assert both.lo == Fraction(1) and both.hi == Fraction(2)
    with pytest.raises(ValueError):
        a.intersect(RationalInterval(Fraction(5), Fraction(6)))


def test_derived_power_enclosures_are_consistent():
    p2 = enclose("pi_pow_2")
    p5 = enclose("pi_pow_5")
    p10 = p5 * p5
    p10_alt = p2.power(5)
    # both enclose pi^10, so they must overlap
    assert p10.lo <= p10_alt.hi and p10_alt.lo <= p10.hi
    roots = enclose("two_pow_1_3").power(3)
    assert roots.contains(Fraction(2))

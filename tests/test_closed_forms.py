"""Closed forms, series with tails, and Bessel zero brackets."""

import math
from fractions import Fraction

import mpmath
import pytest
from scipy.special import jn_zeros

from polya_verify import closed_forms
from polya_verify.closed_forms import (
    AngleOutOfRange,
    ConvergenceFailure,
    SeriesValue,
    bessel_first_zero,
    bessel_zero_bracket,
    equilateral_exact,
    rect_F,
    rect_center_torsion,
    rect_lambda1,
    rect_torsion,
    sector_torsion,
)
from polya_verify.geometry import Rectangle, Sector

# classical first zeros of the Bessel functions J_nu
BESSEL_ZEROS = {
    0.0: 2.404825557695773,
    1.0: 3.8317059702075123,
    2.0: 5.1356223018406826,
    3.0: 6.380161895923984,
    4.0: 7.588342434503804,
}


def test_equilateral_exact_values():
    vals = equilateral_exact()
    assert vals["T"] == pytest.approx(math.sqrt(3.0) / 320.0, rel=1e-15)
    assert vals["lambda1"] == pytest.approx(16.0 * math.pi**2 / 3.0, rel=1e-15)
    assert vals["F"] == pytest.approx(math.pi**2 / 15.0, rel=1e-15)
    area = math.sqrt(3.0) / 4.0
    assert vals["F"] == pytest.approx(vals["lambda1"] * vals["T"] / area, rel=1e-12)


@pytest.mark.parametrize("nu,zero", sorted(BESSEL_ZEROS.items()))
def test_bessel_first_zeros_match_classical_values(nu, zero):
    assert bessel_first_zero(nu) == pytest.approx(zero, abs=1e-10)


def test_bessel_zero_bracket_contains_the_zero():
    lo, hi = bessel_zero_bracket(2.5, tol=1e-12)
    assert hi - lo <= 1e-12
    assert lo <= 5.763459196894550 <= hi  # first zero of J_{5/2}


# plain regula falsi without the Illinois halving stalls at order 80
BRACKET_ORDERS = (0.5, 2.5) + tuple(float(nu) for nu in range(1, 21)) + (50.0, 80.0)


def _count_series_signs(monkeypatch):
    """Record every series evaluation the bracket makes, through the module global."""
    series_sign = closed_forms._series_sign
    calls = []

    def counting_series_sign(*args):
        calls.append(args)
        return series_sign(*args)

    monkeypatch.setattr(closed_forms, "_series_sign", counting_series_sign)
    return calls


@pytest.mark.parametrize("nu", BRACKET_ORDERS)
def test_bessel_zero_bracket_signs_width_and_cost(monkeypatch, nu):
    calls = _count_series_signs(monkeypatch)
    tol = 1e-12
    lo, hi = bessel_zero_bracket(nu, tol=tol)
    assert 0.0 < hi - lo <= tol
    assert 0 < len(calls) <= 20, len(calls)
    with mpmath.workdps(60):
        assert mpmath.besselj(nu, lo) > 0 > mpmath.besselj(nu, hi)
        assert lo <= mpmath.besseljzero(nu, 1) <= hi
    if nu.is_integer():
        assert abs(float(jn_zeros(int(nu), 1)[0]) - 0.5 * (lo + hi)) <= tol


def test_bessel_zero_brackets_of_orders_1_to_20_cost_274_series_evaluations(monkeypatch):
    calls = _count_series_signs(monkeypatch)
    for nu in range(1, 21):
        bessel_zero_bracket(float(nu), tol=1e-12)
    assert len(calls) == 274


@pytest.mark.parametrize("bad", (math.inf, -math.inf, math.nan), ids=str)
def test_bessel_zero_bracket_rejects_a_non_finite_order_or_tol(bad):
    with pytest.raises(ValueError, match="order must be finite"):
        bessel_zero_bracket(bad)
    with pytest.raises(ValueError, match="tol must be finite"):
        bessel_zero_bracket(2.0, tol=bad)


# orders inexact in binary
INEXACT_ORDERS = (7.1, 33.3, math.pi / 0.05)

# orders of the series kernel tests: integer, inexact in binary, half-integer, large
SERIES_ORDERS = (Fraction(0), Fraction(1, 3), Fraction(5, 2), Fraction(20))


def _mp(q):
    return mpmath.mpf(q.numerator) / q.denominator


def _near_zero_points(nu, bits=120):
    """Dyadic points 1e-30 below and above the first zero, with the series sign there."""
    with mpmath.workdps(80):
        zero = mpmath.besseljzero(_mp(nu), 1)
        offset = mpmath.mpf(10) ** -30
        return [
            (Fraction(int(mpmath.nint(x * 2**bits)), 2**bits), sign)
            for x, sign in ((zero - offset, 1), (zero + offset, -1))
        ]


def _series_sign_at(nu, x, S, bits):
    """The series kernel at the point x, a multiple of 2^-S."""
    X = x * 2**S
    assert X.denominator == 1
    return closed_forms._series_sign(nu.numerator, nu.denominator, int(X), S, bits)


@pytest.mark.parametrize("nu", SERIES_ORDERS, ids=str)
def test_series_sign_encloses_the_normalized_bessel_function(nu):
    bits = 200
    # the kernel takes dyadic points: 4/3 (nu + 1 at nu = 1/3) is taken
    # at its nearest multiple of 2^-bits
    points = [
        Fraction(round(x * 2**bits), 2**bits)
        for x in (Fraction(1, 2), nu + 1, 3 * nu + 9)
    ]
    points += [x for x, _ in _near_zero_points(nu)]
    for x in points:
        sign, low, high = _series_sign_at(nu, x, bits, bits)
        with mpmath.workdps(80):
            # Gamma(nu+1) (2/x)^nu J_nu(x), the series the kernel sums
            order, x_mp = _mp(nu), _mp(x)
            value = mpmath.gamma(order + 1) * (2 / x_mp) ** order
            value *= mpmath.besselj(order, x_mp)
            assert low <= value * 2**bits <= high, (x, low, high)
            assert high - low <= 2**bits * mpmath.mpf(10) ** -40
            assert sign == mpmath.sign(value)


@pytest.mark.parametrize("nu", SERIES_ORDERS, ids=str)
def test_series_sign_is_unresolved_not_wrong_at_too_few_bits(nu):
    for x, true_sign in _near_zero_points(nu):
        signs = {_series_sign_at(nu, x, 120, bits)[0] for bits in range(4, 120, 4)}
        assert signs <= {0, true_sign}
        # 2^-60 is far above the series value 1e-30 from the zero
        assert _series_sign_at(nu, x, 120, 60)[0] == 0


@pytest.mark.parametrize("nu", INEXACT_ORDERS)
def test_bessel_zero_bracket_for_orders_inexact_in_binary(nu):
    # the series terms cancel, so the order must enter them exactly:
    # rounding nu + m to a float moves the order-33.3 bracket 2.7e-7 above
    # the zero
    lo, hi = bessel_zero_bracket(nu, tol=1e-12)
    assert hi - lo <= 1e-12
    with mpmath.workdps(60):
        assert lo <= mpmath.besseljzero(mpmath.mpf(nu), 1) <= hi


def test_bessel_zero_bracket_step_cap_raises(monkeypatch):
    monkeypatch.setattr(closed_forms, "_BRACKET_MAXIT", 2)
    with pytest.raises(ConvergenceFailure):
        bessel_zero_bracket(3.0, tol=1e-12)


def test_bessel_zero_bracket_rejects_a_tol_below_working_precision():
    # a float tol gets 120 bits at order 1: trial points cannot keep
    # tol/4 clear of the ends on a grid of 2^-120
    with pytest.raises(ConvergenceFailure, match="working precision"):
        bessel_zero_bracket(1.0, tol=1e-40)


def _fraction_series_sign(nu, x, bits):
    """The series kernel on Fraction points that _series_sign replaced."""
    p, q = nu.numerator, nu.denominator
    t = x * x / 4
    ratio_num, c = t.numerator * q, t.denominator
    lo_term = hi_term = low = high = 1 << bits
    m = 0
    while True:
        m += 1
        den = c * m * (p + m * q)
        lo_term = lo_term * ratio_num // den
        hi_term = -(-hi_term * ratio_num // den)
        if m % 2:
            low, high = low - hi_term, high - lo_term
        else:
            low, high = low + lo_term, high + hi_term
        if hi_term <= 1 and 2 * ratio_num <= c * (m + 1) * (p + (m + 1) * q):
            break
    low, high = low - hi_term, high + hi_term
    return (1 if low > 0 else -1 if high < 0 else 0), low, high


def _fraction_bracket(nu, tol, series_sign=_fraction_series_sign):
    """The Fraction bracket that the integer one replaced, kept as its reference."""
    exact = isinstance(tol, Fraction)
    order, nu_f = Fraction(nu), float(nu)
    dps = 30 + int(0.5 * (nu_f + 12.0))
    if exact:
        dps += max(0, len(str(tol.denominator // tol.numerator)) - 13)
    bits = math.ceil(dps * math.log2(10))
    scale = 1 << bits

    def evaluate(x):
        sign, low, high = series_sign(order, x, bits)
        return sign, low + high

    def outward(lo, hi):
        flo, fhi = float(lo), float(hi)
        if flo > lo:
            flo = math.nextafter(flo, -math.inf)
        if fhi < hi:
            fhi = math.nextafter(fhi, math.inf)
        return flo, fhi

    lo = Fraction(nu_f if nu_f > 0 else 0.25)
    step = Fraction(min(1.0 + 0.1 * nu_f ** (1.0 / 3.0), 2.0))
    sign_lo, f_lo = evaluate(lo)
    assert sign_lo > 0
    hi = lo + step
    sign, f_hi = evaluate(hi)
    while sign > 0:
        lo, f_lo = hi, f_hi
        hi = lo + step
        sign, f_hi = evaluate(hi)
    side = 0
    for _ in range(closed_forms._BRACKET_MAXIT + 1):
        assert sign != 0
        bracket = (lo, hi) if exact else outward(lo, hi)
        if bracket[1] - bracket[0] <= tol:
            return bracket
        units = math.floor(min(Fraction(tol), hi - lo) * scale / 4)
        assert units > 0
        margin = Fraction(units, scale)
        x = round((hi - f_hi * (hi - lo) / (f_hi - f_lo)) * scale)
        x = max(x, math.ceil((lo + margin) * scale))
        x = min(x, math.floor((hi - margin) * scale))
        x = Fraction(x, scale)
        sign, f = evaluate(x)
        if sign == 0:
            lo, hi = x - margin, x + margin
            (sign_lo, f_lo), (sign_hi, f_hi) = evaluate(lo), evaluate(hi)
            sign = -1 if (sign_lo, sign_hi) == (1, -1) else 0
        elif sign > 0:
            lo, f_lo = x, f
            if side == 1:
                f_hi = Fraction(f_hi, 2)
        elif sign < 0:
            hi, f_hi = x, f
            if side == -1:
                f_lo = Fraction(f_lo, 2)
        side = sign
    raise AssertionError(f"no bracket for nu={nu} at tol={tol}")


FLOAT_TOLS = (1e-12, 1e-9, Fraction(1, 10**14), Fraction(1, 10**20))
FRACTION_TOLS = tuple(Fraction(1, 10**k) for k in (12, 20, 30, 40, 50))
EQUIVALENCE_CASES = (
    [(nu, FLOAT_TOLS) for nu in (0.0, 1 / 3) + BRACKET_ORDERS + INEXACT_ORDERS]
    + [
        (nu, FRACTION_TOLS)
        for nu in map(Fraction, (0, "1/3", "7/10", "3/2", "5/2", 20))
    ]
    # a regula falsi trial lands within rounding of this zero (a straddle)
    + [(Fraction(3), (Fraction(1, 10**80),))]
)


@pytest.mark.parametrize(
    "nu,tols", EQUIVALENCE_CASES, ids=[f"{nu!s}" for nu, _ in EQUIVALENCE_CASES]
)
def test_bessel_zero_bracket_matches_the_fraction_bracket_it_replaced(nu, tols):
    for tol in tols:
        bracket = bessel_zero_bracket(nu, tol)
        assert repr(bracket) == repr(_fraction_bracket(nu, tol)), tol


def _kinked_series(slope_below, slope_above, zero=Fraction(31, 10)):
    """A stand-in for the series kernel: a line through zero, kinked there."""

    def series_sign(nu, x, bits):
        slope = slope_below if x < zero else slope_above
        v = math.floor((zero - x) * slope * 2**bits)
        return (v > 0) - (v < 0), v, v

    return series_sign


@pytest.mark.parametrize("slopes", [(1, 7), (7, 1)], ids=["lo-kept", "hi-kept"])
def test_illinois_halvings_at_either_end_match_the_fraction_bracket(monkeypatch, slopes):
    # regula falsi keeps the upper end of every first Bessel zero tried; the
    # kink makes each end in turn the one kept and halved
    series = _kinked_series(*slopes)
    monkeypatch.setattr(
        closed_forms,
        "_series_sign",
        lambda p, q, X, S, bits: series(Fraction(p, q), Fraction(X, 2**S), bits),
    )
    for tol in (1e-12, Fraction(1, 10**14)):
        reference = _fraction_bracket(2.0, tol, series)
        assert repr(bessel_zero_bracket(2.0, tol)) == repr(reference)


def test_bessel_zero_is_increasing_in_the_order():
    zeros = [bessel_first_zero(nu) for nu in (1.0, 2.0, 4.0, 8.0, 16.0)]
    assert all(a < b for a, b in zip(zeros, zeros[1:]))


def test_rect_lambda1_closed_form_and_scaling():
    assert rect_lambda1(Rectangle(0.5, 0.5)) == pytest.approx(2.0 * math.pi**2, rel=1e-15)
    assert rect_lambda1(Rectangle(1.0, 1.0)) == pytest.approx(math.pi**2 / 2.0, rel=1e-15)
    base = rect_lambda1(Rectangle(0.7, 0.3))
    assert rect_lambda1(Rectangle(1.4, 0.6)) == pytest.approx(base / 4.0, rel=1e-12)


def test_rect_torsion_unit_square_frozen_value():
    tor = rect_torsion(Rectangle(0.5, 0.5), n_terms=256)
    assert isinstance(tor, SeriesValue)
    assert tor.tail_bound >= 0.0
    assert tor.terms_used >= 1
    # 40-digit tanh series (see _mp_torsion)
    assert tor.value == pytest.approx(0.03514425373878843, abs=5e-9)
    # a short truncation still lands within its own advertised tail
    short = rect_torsion(Rectangle(0.5, 0.5), n_terms=64)
    assert abs(short.value - 0.03514425373878843) <= short.tail_bound + 1e-12


def test_rect_torsion_scales_like_the_fourth_power():
    small = rect_torsion(Rectangle(0.5, 0.5), n_terms=64).value
    big = rect_torsion(Rectangle(1.0, 1.0), n_terms=64).value
    assert big == pytest.approx(16.0 * small, rel=1e-12)


def test_rect_torsion_tail_shrinks_with_more_terms():
    coarse = rect_torsion(Rectangle(1.0, 1.0), n_terms=8)
    fine = rect_torsion(Rectangle(1.0, 1.0), n_terms=256)
    assert fine.tail_bound < coarse.tail_bound
    assert abs(fine.value - coarse.value) <= coarse.tail_bound + fine.tail_bound


def test_rect_F_square_value_and_scale_invariance():
    f = rect_F(Rectangle(1.0, 1.0), n_terms=64)
    assert f.value == pytest.approx(0.6937197627466949, abs=1e-9)  # 40-digit value
    f_scaled = rect_F(Rectangle(0.5, 0.5), n_terms=64)
    assert f_scaled.value == pytest.approx(f.value, rel=1e-12)


def test_rect_F_strip_limit_direction():
    f2 = rect_F(Rectangle(2.0, 1.0), n_terms=128).value
    f8 = rect_F(Rectangle(8.0, 1.0), n_terms=256).value
    limit = math.pi**2 / 12.0
    assert f2 < f8 < limit


def test_rect_center_torsion_values():
    s = math.sqrt(2.0) / 2.0
    center = rect_center_torsion(Rectangle(s, s), n_terms=256)
    assert center.value == pytest.approx(0.14734270464132874, abs=1e-8)
    unit = rect_center_torsion(Rectangle(0.5, 0.5), n_terms=256)
    assert unit.value == pytest.approx(0.0736713523206644, abs=1e-8)
    # center of the square is where the torsion function peaks
    tor = rect_torsion(Rectangle(0.5, 0.5), n_terms=64)
    assert center.value == pytest.approx(2.0 * unit.value, rel=1e-10)
    assert unit.value > tor.value  # peak exceeds the mean (T / area here)


def _mp_torsion(a, b):
    """Torsional rigidity of (-a, a) x (-b, b) to 40 digits.

    The tanh series with sum_{n odd} tanh(n x)/n^5 written as
    (31/32) zeta(5) - sum_{n odd} 2/((exp(2 n x) + 1) n^5), whose terms
    fall at least like exp(-pi n).
    """
    with mpmath.workdps(40):
        big, small = mpmath.mpf(max(a, b)), mpmath.mpf(min(a, b))
        x = mpmath.pi * big / (2 * small)
        total = (1 - mpmath.mpf(2) ** -5) * mpmath.zeta(5) - mpmath.fsum(
            2 / ((mpmath.exp(2 * n * x) + 1) * n**5) for n in range(1, 80, 2)
        )
        return 4 * big * small**3 / 3 * (1 - 192 / mpmath.pi**5 * (small / big) * total)


def _mp_center(a, b):
    """Torsion function at the centre of (-a, a) x (-b, b) to 40 digits."""
    with mpmath.workdps(40):
        big, small = mpmath.mpf(max(a, b)), mpmath.mpf(min(a, b))
        x = mpmath.pi * big / (2 * small)
        total = mpmath.fsum(
            (-1) ** k * mpmath.sech((2 * k + 1) * x) / (2 * k + 1) ** 3 for k in range(40)
        )
        return small**2 / 2 - 16 * small**2 / mpmath.pi**3 * total


def _mp_F(a, b):
    with mpmath.workdps(40):
        lam = (mpmath.pi / (2 * a)) ** 2 + (mpmath.pi / (2 * b)) ** 2
        return lam * _mp_torsion(a, b) / (4 * mpmath.mpf(a) * b)


@pytest.mark.parametrize("n_terms", (1, 8, 64, 600))
@pytest.mark.parametrize("aspect", (1.0, 1.5, 2.0, 100.0, 200.0))
def test_rect_series_enclose_the_40_digit_values(aspect, n_terms):
    r = Rectangle(aspect, 1.0)
    for series, truth in (
        (rect_torsion(r, n_terms=n_terms), _mp_torsion(aspect, 1.0)),
        (rect_F(r, n_terms=n_terms), _mp_F(aspect, 1.0)),
        (rect_center_torsion(r, n_terms=n_terms), _mp_center(aspect, 1.0)),
    ):
        assert series.terms_used == n_terms
        assert abs(series.value - truth) <= series.tail_bound, (series, truth)


def test_rect_F_default_terms_on_a_wide_rectangle():
    f = rect_F(Rectangle(200.0, 1.0))
    assert abs(f.value - _mp_F(200.0, 1.0)) <= f.tail_bound
    assert f.tail_bound < 1e-9


def test_rect_series_are_symmetric_in_the_half_widths():
    wide, tall = Rectangle(0.7, 0.3), Rectangle(0.3, 0.7)
    assert rect_torsion(wide).value == rect_torsion(tall).value
    assert rect_center_torsion(wide).value == rect_center_torsion(tall).value
    f_wide, f_tall = rect_F(wide), rect_F(tall)
    assert abs(f_wide.value - f_tall.value) <= f_wide.tail_bound


def _double_sum_F(a, b, n):
    """F by the double sine series over n x n odd indices.

    Returns (value, truncation bound, rounding bound); the rounding bound is
    the classical n^2 unit roundoffs of a recursive sum of positive terms.
    """
    s = a * a + b * b
    total = 0.0
    for i in range(n):
        p = 2 * i + 1
        for j in range(n):
            q = 2 * j + 1
            total += s / (b * b * p**4 * q * q + a * a * q**4 * p * p)
    prefactor = 4**3 / math.pi**4
    n0 = 2 * n + 1
    # omitted p >= n0, all q: s/(b^2 p^4 q^2) summed, and the same in q
    odd_fourth_tail = n0**-4.0 + n0**-3.0 / 6.0
    tail = s * odd_fourth_tail * (math.pi**2 / 8.0) * (1.0 / b**2 + 1.0 / a**2)
    value = prefactor * total
    return value, prefactor * tail, n * n * 2.0**-53 * value


def _double_sum_center(a, b, n):
    """u(0, 0) by the alternating double sine series over n x n odd indices.

    Returns (value, truncation bound, rounding bound).
    """
    c = a * a / (b * b)
    total = magnitude = 0.0
    for i in range(n):
        p = 2 * i + 1
        inner = 0.0
        for j in range(n):
            q = 2 * j + 1
            term = 1.0 / (q * (1.0 + c * q * q / (p * p)))
            inner += term if j % 2 == 0 else -term
            magnitude += term / p**3
        total += inner / p**3 if i % 2 == 0 else -inner / p**3
    prefactor = 4**3 * a * a / math.pi**4
    q0 = 2 * n + 1
    # q truncation: first omitted term per p; p truncation: each omitted
    # alternating inner sum is below 1 in magnitude
    q_tail = sum(
        1.0 / ((2 * i + 1) ** 3 * q0 * (1.0 + c * q0 * q0 / (2 * i + 1) ** 2))
        for i in range(n)
    )
    p_tail = q0**-3.0 + 0.25 * q0**-2.0
    return (
        prefactor * total,
        prefactor * (q_tail + p_tail),
        n * n * 2.0**-53 * prefactor * magnitude,
    )


@pytest.mark.parametrize("aspect", (1.0, 3.0))
def test_rect_series_agree_with_the_double_sine_series(aspect):
    r = Rectangle(aspect, 1.0)
    for single, (value, tail, rounding) in (
        (rect_F(r, n_terms=64), _double_sum_F(aspect, 1.0, 200)),
        (rect_center_torsion(r, n_terms=64), _double_sum_center(aspect, 1.0, 200)),
    ):
        assert abs(single.value - value) <= single.tail_bound + tail + rounding


def test_sector_torsion_scaling_and_positivity():
    base = sector_torsion(Sector(math.pi / 3.0, 1.0), n_terms=64)
    scaled = sector_torsion(Sector(math.pi / 3.0, 2.0), n_terms=64)
    assert base.value > 0.0
    assert scaled.value == pytest.approx(16.0 * base.value, rel=1e-10)
    assert base.tail_bound < 1e-8


def test_sector_torsion_grows_with_angle():
    narrow = sector_torsion(Sector(math.pi / 6.0, 1.0), n_terms=64).value
    wide = sector_torsion(Sector(1.4, 1.0), n_terms=64).value
    assert narrow < wide
    # the series formula needs tan(angle), so the right angle is rejected
    with pytest.raises(AngleOutOfRange):
        sector_torsion(Sector(math.pi / 2.0, 1.0), n_terms=64)


def _mp_sector_torsion(angle):
    """Torsional rigidity of Sector(angle, 1) to 40 digits (the same series, summed by nsum)."""
    with mpmath.workdps(40):
        alpha = mpmath.mpf(angle)
        q = 2 * alpha / mpmath.pi
        total = mpmath.nsum(
            lambda j: 1 / ((2 * j + 1) ** 2 * (2 * j + 1 + q) ** 2 * (2 * j + 1 - q)),
            [0, mpmath.inf],
        )
        return (mpmath.tan(alpha) - alpha - 128 * alpha**4 / mpmath.pi**5 * total) / 16


@pytest.mark.parametrize("angle", (0.3, math.pi / 3.0, 1.4, 1.5))
def test_sector_torsion_encloses_the_40_digit_value(angle):
    # at 4000 terms rounding exceeds the truncation tail by up to 1500x
    truth = _mp_sector_torsion(angle)
    for n_terms in (64, 600, 4000):
        tor = sector_torsion(Sector(angle, 1.0), n_terms=n_terms)
        assert abs(tor.value - truth) <= tor.tail_bound, (n_terms, tor)


def test_series_value_is_a_frozen_record():
    tor = rect_torsion(Rectangle(1.0, 1.0), n_terms=16)
    with pytest.raises(AttributeError):
        tor.value = 0.0


@pytest.mark.parametrize("n_terms", (0, -3))
@pytest.mark.parametrize(
    "series, shape",
    [
        (sector_torsion, Sector(math.pi / 3.0, 1.0)),
        (rect_torsion, Rectangle(1.0, 0.5)),
        (rect_F, Rectangle(1.0, 0.5)),
        (rect_center_torsion, Rectangle(1.0, 0.5)),
    ],
    ids=["sector_torsion", "rect_torsion", "rect_F", "rect_center_torsion"],
)
def test_series_reject_a_nonpositive_term_count(series, shape, n_terms):
    with pytest.raises(ValueError, match="n_terms"):
        series(shape, n_terms=n_terms)

"""Closed forms, series with tails, and Bessel zero brackets."""

import math

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


@pytest.mark.parametrize("nu", BRACKET_ORDERS)
def test_bessel_zero_bracket_signs_width_and_cost(monkeypatch, nu):
    series_sign = closed_forms._series_sign
    calls = []

    def counting_series_sign(*args):
        calls.append(args[1])
        return series_sign(*args)

    monkeypatch.setattr(closed_forms, "_series_sign", counting_series_sign)
    tol = 1e-12
    lo, hi = bessel_zero_bracket(nu, tol=tol)
    assert 0.0 < hi - lo <= tol
    assert len(calls) <= 20, len(calls)
    with mpmath.workdps(60):
        assert series_sign(nu, lo, mpmath)[0] == 1
        assert series_sign(nu, hi, mpmath)[0] == -1
        assert lo <= mpmath.besseljzero(nu, 1) <= hi
    if nu.is_integer():
        assert abs(float(jn_zeros(int(nu), 1)[0]) - 0.5 * (lo + hi)) <= tol


@pytest.mark.parametrize("nu", (7.1, 33.3, math.pi / 0.05))
def test_bessel_zero_bracket_for_orders_inexact_in_binary(nu):
    # the series terms cancel, so the order must enter them at working
    # precision: rounding nu + m to a float moves the order-33.3 bracket
    # 2.7e-7 above the zero
    lo, hi = bessel_zero_bracket(nu, tol=1e-12)
    assert hi - lo <= 1e-12
    with mpmath.workdps(60):
        assert lo <= mpmath.besseljzero(mpmath.mpf(nu), 1) <= hi


def test_bessel_zero_bracket_step_cap_raises(monkeypatch):
    monkeypatch.setattr(closed_forms, "_BRACKET_MAXIT", 2)
    with pytest.raises(ConvergenceFailure):
        bessel_zero_bracket(3.0, tol=1e-12)


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

"""Exact polynomial certificates: evaluation, shifting, soundness."""

import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polya_verify import polycert
from polya_verify.constants import RationalInterval, point
from polya_verify.polycert import (
    Certificate,
    DepthExhausted,
    RationalPoly,
    UnknownName,
    ZeroWidthInterval,
    build_lemma_polynomial,
    certify_nonpositive,
    eval_exact,
    taylor_shift,
)

LEMMAS = ("P1_acute", "P2_acute", "negP1prime_mono", "negP1prime_mono_shifted", "Q_mgeq3")


def test_eval_exact_matches_horner_by_hand():
    p = RationalPoly((Fraction(1), Fraction(-2), Fraction(3, 4)))
    x = Fraction(2, 3)
    assert eval_exact(p, x) == 1 - 2 * x + Fraction(3, 4) * x * x


def test_taylor_shift_agrees_with_direct_substitution():
    p = RationalPoly((Fraction(-1), Fraction(0), Fraction(2), Fraction(5, 7)))
    c = Fraction(3, 11)
    q = taylor_shift(p, c)
    for x in (Fraction(0), Fraction(1, 2), Fraction(-2, 5), Fraction(7, 3)):
        assert eval_exact(q, x) == eval_exact(p, x + c)


coeff = st.fractions(
    min_value=-3, max_value=3, max_denominator=20
)


@given(st.lists(coeff, min_size=1, max_size=7), coeff)
@settings(max_examples=60, deadline=None)
def test_taylor_shift_round_trips(coeffs, c):
    p = RationalPoly(tuple(coeffs))
    assert taylor_shift(taylor_shift(p, c), -c).coeffs == p.coeffs


def test_certificate_on_simple_negative_polynomial():
    p = RationalPoly((Fraction(-1), Fraction(0), Fraction(1, 2)))  # x^2/2 - 1
    cert = certify_nonpositive(p, Fraction(1))
    assert cert.ok
    assert cert.failure_witness is None
    assert sum(hi - lo for lo, hi, _ in cert.intervals) == Fraction(1)
    for _, _, c0 in cert.intervals:
        assert c0 <= 0


def test_certificate_finds_witness_on_positive_polynomial():
    p = RationalPoly((Fraction(1, 10),))
    cert = certify_nonpositive(p, Fraction(1, 2))
    assert not cert.ok
    x, value = cert.failure_witness
    assert 0 < x <= Fraction(1, 2)
    assert value == Fraction(1, 10)


def test_certificate_depth_exhaustion_on_interior_double_root():
    # -(3x - 1)^2 touches zero at the non-dyadic point 1/3, so no finite
    # dyadic subdivision reaches a nonpositive interval bound there
    p = RationalPoly((Fraction(-1), Fraction(6), Fraction(-9)))
    with pytest.raises(DepthExhausted):
        certify_nonpositive(p, Fraction(1), max_depth=12)


def test_zero_width_interval_rejected():
    p = RationalPoly((Fraction(-1),))
    with pytest.raises((ZeroWidthInterval, ValueError)):
        certify_nonpositive(p, Fraction(0))


def test_certified_polynomials_are_nonpositive_on_dense_float_grids():
    rng = random.Random(20240817)
    xs = np.linspace(1e-9, 1.0, 2000)
    certified = 0
    for _ in range(300):
        deg = rng.randint(0, 6)
        coeffs = [Fraction(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(deg + 1)]
        p = RationalPoly(tuple(coeffs))
        try:
            cert = certify_nonpositive(p, Fraction(1), max_depth=14)
        except DepthExhausted:
            continue
        vals = np.polyval([float(c) for c in reversed(p.coeffs)], xs)
        if cert.ok:
            certified += 1
            assert vals.max() <= 1e-9, f"certified poly positive: {p.coeffs}"
        else:
            x, value = cert.failure_witness
            assert value > 0
            assert eval_exact(p, x) == value
    assert certified >= 20  # the sample really exercises the passing branch


def test_certificate_json_round_trip():
    p = RationalPoly((Fraction(-1), Fraction(1, 3)))
    cert = certify_nonpositive(p, Fraction(1))
    data = json.loads(cert.to_json())
    assert data["ok"] is True
    assert data["polynomial"] == ["-1", "1/3"]
    assert isinstance(data["intervals"], list)
    restored = [Fraction(c) for _, _, c in data["intervals"]]
    assert all(c <= 0 for c in restored)


@pytest.mark.parametrize("name", LEMMAS)
def test_lemma_builders_produce_both_roundings(name):
    upper = build_lemma_polynomial(name, rounding="upper")
    intervals = build_lemma_polynomial(name, rounding="interval")
    assert isinstance(upper, RationalPoly)
    assert len(upper.coeffs) == len(intervals)
    for c, iv in zip(upper.coeffs, intervals):
        assert isinstance(iv, RationalInterval)
        assert c == iv.hi  # upper rounding takes the top endpoint


def test_interval_rounding_returns_a_fresh_list():
    # the lemma is built once per process; callers still own what they get
    first = build_lemma_polynomial("P1_acute", rounding="interval")
    first.clear()
    assert len(build_lemma_polynomial("P1_acute", rounding="interval")) == 34


def test_lemma_builder_rejects_unknown_names():
    with pytest.raises(UnknownName):
        build_lemma_polynomial("P3_acute", rounding="upper")


def test_certificate_intervals_tile_the_requested_domain():
    poly = build_lemma_polynomial("Q_mgeq3", rounding="upper")
    cert = certify_nonpositive(poly, Fraction(686, 1000))
    assert cert.ok
    cover = sorted((lo, hi) for lo, hi, _ in cert.intervals)
    assert cover[0][0] == 0
    assert cover[-1][1] == Fraction(686, 1000)
    for (_, hi_prev), (lo_next, _) in zip(cover, cover[1:]):
        assert hi_prev == lo_next


def test_upper_rounding_dominates_interval_true_value():
    # the certified upper polynomial must majorize any polynomial with
    # coefficients drawn from the interval enclosure, for x > 0
    upper = build_lemma_polynomial("P1_acute", rounding="upper")
    intervals = build_lemma_polynomial("P1_acute", rounding="interval")
    x = Fraction(1, 3)
    top = eval_exact(upper, x)
    low_poly = RationalPoly(tuple(iv.lo for iv in intervals))
    assert eval_exact(low_poly, x) <= top


# ---------------------------------------------------------------------------
# The integer interval kernel against exact RationalInterval arithmetic
# ---------------------------------------------------------------------------


def _exact_poly(terms):
    return tuple(point(0) + terms.get(deg, 0) for deg in range(max(terms) + 1))


def _exact_add(p, q):
    if len(p) < len(q):
        p, q = q, p
    return tuple(a + b for a, b in zip(p, q)) + p[len(q):]


def _exact_mul(p, q):
    out = [point(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return tuple(out)


def _exact_pow(p, n):
    out = _exact_poly({0: 1})
    for _ in range(n):
        out = _exact_mul(out, p)
    return out


def _exact_lemma(name, monkeypatch):
    """The builders' formulas run on exact RationalInterval entries."""
    for attr, fn in (
        ("_poly", _exact_poly),
        ("_add", _exact_add),
        ("_mul", _exact_mul),
        ("_pow", _exact_pow),
    ):
        monkeypatch.setattr(polycert, attr, fn)
    if name in polycert.RECENTERED:
        base, c = polycert.RECENTERED[name]
        return polycert._shift(polycert._LEMMA_BUILDERS[base](), c)
    return polycert._LEMMA_BUILDERS[name]()


@pytest.mark.parametrize("name", LEMMAS)
def test_kernel_lemma_encloses_the_exact_interval_result(name, monkeypatch):
    kernel = build_lemma_polynomial(name, rounding="interval")
    exact = _exact_lemma(name, monkeypatch)
    assert len(kernel) == len(exact)
    for k, e in zip(kernel, exact):
        assert k.lo <= e.lo and e.hi <= k.hi
        assert k.width - e.width <= Fraction(1, 10**60)
        for end in (k.lo, k.hi):  # dyadic at the kernel's scale
            assert (end * 2**polycert.P).denominator == 1


def test_kernel_products_round_outward_on_both_signs():
    ends = [Fraction(-7, 3), Fraction(-1, 10**40), Fraction(0), Fraction(2, 9), Fraction(5, 2)]
    for a in ends:
        for b in ends:
            for c in ends:
                for d in ends:
                    if a > b or c > d:
                        continue
                    x, y = RationalInterval(a, b), RationalInterval(c, d)
                    got = (polycert._scaled(x) * polycert._scaled(y)).interval()
                    want = x * y
                    assert got.lo <= want.lo and want.hi <= got.hi
                    # each end moves by at most (|x| + |y| + 1) units of 2^-P
                    assert got.width - want.width <= Fraction(12, 2**polycert.P)
                    # sums, negation and integer multiples stay exact
                    s = polycert._scaled(x) + polycert._scaled(y)
                    t = -s * -3
                    assert (t.lo, t.hi) == (3 * s.lo, 3 * s.hi)

"""Individual eigenvalue and torsion bounds with their validity gates."""

import math
from fractions import Fraction

import pytest

from polya_verify.bounds import (
    AngleOutOfRange,
    BoundValue,
    DomainError,
    eig_lb_diameter_height,
    eig_lb_sector,
    thinning_upper,
    torsion_lb_equilateral_test,
    torsion_lb_obtuse_test,
    upper_chain,
)
from polya_verify.closed_forms import equilateral_exact

EQ_B = math.sqrt(3.0) / 2.0


def test_equilateral_test_bound_is_sharp_at_the_equilateral():
    bound = torsion_lb_equilateral_test(0.5, EQ_B)
    assert bound.value == pytest.approx(equilateral_exact()["T"], rel=1e-14)
    assert bound.kind == "LowerOnT"


def test_equilateral_test_bound_is_exact_on_rationals():
    bound = torsion_lb_equilateral_test(Fraction(1, 2), Fraction(1, 2))
    # denominator 1 - a + a^2 + b^2 equals 1 at a = b = 1/2
    assert bound.exact == Fraction(1, 640)


def test_obtuse_test_bound_exact_value_and_domain():
    bound = torsion_lb_obtuse_test(Fraction(1, 2), Fraction(1, 2))
    assert bound.exact == Fraction(1, 768)
    with pytest.raises(DomainError):
        torsion_lb_obtuse_test(0.0, 0.5)
    with pytest.raises(DomainError):
        torsion_lb_obtuse_test(1.0, 0.5)


def test_torsion_bounds_stay_below_oracle_truth_at_equilateral():
    truth = equilateral_exact()["T"]
    assert torsion_lb_equilateral_test(0.5, EQ_B).value <= truth * (1 + 1e-12)


def test_sector_eigenvalue_bound_gates_and_minorant_direction():
    with pytest.raises(AngleOutOfRange):
        eig_lb_sector(math.pi / 2.0, 1.0)
    with pytest.raises(DomainError):
        eig_lb_sector(math.pi / 6.0, 0.0)
    plain = eig_lb_sector(math.pi / 6.0, 1.0, minorized=False)
    minor = eig_lb_sector(math.pi / 6.0, 1.0, minorized=True)
    assert minor.value <= plain.value  # algebraic minorant sits below the zero
    assert minor.value >= 0.8 * plain.value  # and is not wildly loose


def test_sector_bound_is_below_the_equilateral_eigenvalue():
    lam = equilateral_exact()["lambda1"]
    bound = eig_lb_sector(math.pi / 3.0, EQ_B, minorized=True)
    assert bound.value <= lam


def test_diameter_height_bound_value_and_gate():
    bound = eig_lb_diameter_height(1.0, EQ_B)
    assert bound.value == pytest.approx(math.pi**2 * (1.0 + 2.0 / math.sqrt(3.0)) ** 2, rel=1e-12)
    assert bound.value <= equilateral_exact()["lambda1"]
    with pytest.raises(DomainError):
        eig_lb_diameter_height(0.0, 1.0)


def test_upper_chain_at_the_equilateral_saturates_the_eig_cap():
    vals = equilateral_exact()
    area = math.sqrt(3.0) / 4.0
    chain = upper_chain(
        {"lambda1": vals["lambda1"], "T": vals["T"], "area": area, "P": 3.0},
        "triangle",
    )
    assert chain.value == pytest.approx(2.0 * math.pi**2 / 27.0, rel=1e-12)
    assert chain.details["eig_cap_holds"]
    assert chain.details["tor_cap_holds"]
    assert chain.details["factor_eig"] == pytest.approx(math.pi**2 / 9.0, rel=1e-12)
    assert chain.details["factor_tor"] == pytest.approx(0.6, rel=1e-12)
    assert chain.details["product"] == pytest.approx(vals["F"], rel=1e-12)


def test_upper_chain_square_kind_uses_the_tangential_cap():
    lam = math.pi**2 / 2.0
    tor = 0.5623081179743798
    chain = upper_chain(
        {"lambda1": lam, "T": tor, "area": 4.0, "P": 8.0}, "square"
    )
    assert chain.value == pytest.approx(math.pi**2 / 12.0, rel=1e-12)
    assert chain.details["factor_eig"] == pytest.approx(math.pi**2 / 8.0, rel=1e-12)
    assert chain.details["tor_cap_holds"]


def test_upper_chain_rejects_unknown_kinds_and_bad_metrics():
    good = {"lambda1": 1.0, "T": 1.0, "area": 1.0, "P": 1.0}
    with pytest.raises(DomainError):
        upper_chain(good, "ellipse")
    with pytest.raises(DomainError):
        upper_chain({**good, "area": 0.0}, "triangle")


def test_thinning_upper_monotone_toward_the_floor():
    floor = math.pi**2 / 24.0
    caps = [
        thinning_upper(t / 2.0, 1.0 + 2.0 * math.hypot(0.5, t)).value
        for t in (0.5, 0.1, 0.01, 0.001, 1e-6)
    ]
    assert all(a > b for a, b in zip(caps, caps[1:]))
    assert caps[-1] > floor
    # the excess decays like sqrt(area), about 1e-3 at height 1e-6
    assert caps[-1] - floor < 0.01
    with pytest.raises(DomainError):
        thinning_upper(-1.0, 3.0)


def test_bound_value_records_kind_and_validity():
    bound = eig_lb_diameter_height(1.0, 0.5)
    assert isinstance(bound, BoundValue)
    assert bound.kind == "LowerOnLambda"
    assert bound.validity

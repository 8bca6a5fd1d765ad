"""Analytic bounds on torsional rigidity, the principal eigenvalue, and their ratio.

Each bound is returned as a BoundValue stating its direction (what it
bounds, from which side) and the validity hypothesis under which it holds.
Bounds are computed in floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

from . import closed_forms
from .closed_forms import AngleOutOfRange
from .constants import C1

Number = Union[int, float, Fraction]


class DomainError(ValueError):
    """Raised when an input lies outside the formula's domain."""


KINDS = ("LowerOnT", "LowerOnLambda", "LowerOnF", "UpperOnF", "UpperOnLambda")


@dataclass(frozen=True)
class BoundValue:
    """A one-sided bound: its float value, direction, and validity regime."""

    value: float
    kind: str
    validity: str
    details: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown bound kind {self.kind!r}")


def torsion_lb_equilateral_test(a: Number, b: Number) -> BoundValue:
    """Lower bound b^3 / (80 (1 - a + a^2 + b^2)) on torsional rigidity.

    Comes from inserting the affine image of the equilateral torsion
    function into the variational quotient; equality holds only at the
    equilateral apex.  Symmetric under a -> 1 - a.
    """
    af, bf = float(a), float(b)
    if bf <= 0:
        raise DomainError(f"apex height must be positive, got b={b}")
    return BoundValue(
        value=bf**3 / (80.0 * (1.0 - af + af * af + bf * bf)),
        kind="LowerOnT",
        validity="any apex with b > 0; tight only at the equilateral apex",
    )


def torsion_lb_obtuse_test(a: Number, b: Number) -> BoundValue:
    """Lower bound (1-a) a b^3 / (48 (a - a^2 + b^2)), for wide obtuse apexes.

    Comes from a piecewise-quadratic test function peaked over the foot of
    the apex; needs 0 < a < 1 so both pieces are nondegenerate.
    """
    af, bf = float(a), float(b)
    if not 0.0 < af < 1.0:
        raise DomainError(f"apex abscissa must lie in (0, 1), got a={a}")
    if bf <= 0:
        raise DomainError(f"apex height must be positive, got b={b}")
    return BoundValue(
        value=(1.0 - af) * af * bf**3 / (48.0 * (af - af * af + bf * bf)),
        kind="LowerOnT",
        validity="apex strictly between the base endpoints (0 < a < 1)",
    )


def eig_lb_sector(theta: float, b: float, minorized: bool = False) -> BoundValue:
    """Eigenvalue lower bound (theta/b) j_{pi/theta}^2 via an equal-area sector.

    theta must be the smallest interior angle (at most pi/3) and b the apex
    height, so the triangle area is b/2.  With minorized=True the Bessel
    zero is replaced by its certified algebraic lower bound
    nu + c1 2^(-1/3) nu^(1/3), which avoids any Bessel evaluation.
    """
    if not 0.0 < theta <= math.pi / 3.0 + 1e-12:
        raise AngleOutOfRange(
            f"smallest angle must lie in (0, pi/3], got {theta}"
        )
    if b <= 0:
        raise DomainError(f"apex height must be positive, got b={b}")
    nu = math.pi / theta
    if minorized:
        j_sq = (nu + float(C1) * 2.0 ** (-1.0 / 3.0) * nu ** (1.0 / 3.0)) ** 2
        how = "certified algebraic minorant of the Bessel zero"
    else:
        j_sq = closed_forms.bessel_first_zero(nu) ** 2
        how = "first Bessel zero evaluated to 1e-12"
    return BoundValue(
        value=(theta / b) * j_sq,
        kind="LowerOnLambda",
        validity="theta is the smallest interior angle; area equals b/2",
        details={"nu": nu, "route": how},
    )


def eig_lb_diameter_height(d: Number, h: Number) -> BoundValue:
    """Eigenvalue lower bound pi^2 (1/d + 1/h)^2 from diameter and height.

    d is the diameter and h the height perpendicular to the longest side.
    """
    df, hf = float(d), float(h)
    if df <= 0 or hf <= 0:
        raise DomainError("diameter and height must be positive")
    return BoundValue(
        value=math.pi**2 * (1.0 / df + 1.0 / hf) ** 2,
        kind="LowerOnLambda",
        validity="d the diameter, h the height onto the longest side",
    )


def upper_chain(metrics: dict, domain_kind: str) -> BoundValue:
    """Certified upper bound on the eigenvalue-torsion ratio via two factors.

    Factors the functional as (lambda1 area^2 / P^2) * (T P^2 / area^3) and
    caps each: the isoperimetric eigenvalue cap (pi^2/9 for triangles,
    pi^2/8 for tangential quadrilaterals) and the torsion-perimeter cap 2/3.
    The product of caps is the certified bound; the factor product equals
    the functional itself, which callers can cross-check.
    """
    lam, tor = metrics["lambda1"], metrics["T"]
    area, per = metrics["area"], metrics["P"]
    if min(lam, tor, area, per) <= 0:
        raise DomainError("metrics must be positive")
    if domain_kind == "triangle":
        cap_eig = math.pi**2 / 9.0
        validity = "triangles"
    elif domain_kind in ("tangential", "tangential-quadrilateral", "square"):
        cap_eig = math.pi**2 / 8.0
        validity = "tangential quadrilaterals"
    else:
        raise DomainError(f"unknown domain kind {domain_kind!r}")
    cap_tor = 2.0 / 3.0
    factor_eig = lam * area**2 / per**2
    factor_tor = tor * per**2 / area**3
    return BoundValue(
        value=cap_eig * cap_tor,
        kind="UpperOnF",
        validity=validity,
        details={
            "factor_eig": factor_eig,
            "factor_tor": factor_tor,
            "cap_eig": cap_eig,
            "cap_tor": cap_tor,
            "eig_cap_holds": factor_eig <= cap_eig * (1.0 + 1e-12),
            "tor_cap_holds": factor_tor <= cap_tor,
            "product": factor_eig * factor_tor,
        },
    )


def thinning_upper(area: float, P: float) -> BoundValue:
    """Upper bound (pi^2/24)(1 + 2 sqrt(pi) sqrt(area)/P)^2 for inradius-tight domains.

    Valid for convex domains with P * inradius / 2 = area (triangles and
    tangential polygons); tends to pi^2/24 as area/P^2 -> 0.
    """
    if area <= 0 or P <= 0:
        raise DomainError("area and perimeter must be positive")
    return BoundValue(
        value=(math.pi**2 / 24.0)
        * (1.0 + 2.0 * math.sqrt(math.pi) * math.sqrt(area) / P) ** 2,
        kind="UpperOnF",
        validity="convex domains with perimeter * inradius = 2 * area",
    )

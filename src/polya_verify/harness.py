"""Replay, certification, and survey driver for the shape functional.

The central quantity is F(D) = lambda_1(D) * T(D) / |D|: the first
Dirichlet eigenvalue times the torsional rigidity over the area.  This
module replays the analytic case arguments that pin F strictly between
pi^2/24 and pi^2/12 on triangles, runs the polynomial nonpositivity
certificates those arguments rest on, and surveys triangle and rectangle
families against the finite element oracle.

Every replayed case produces a CaseReport holding EvidenceItem entries.
Each item records the check performed, the method that settled it, and a
numeric margin.  Methods:

- "exact-rational": settled in integer/Fraction arithmetic, no rounding,
  and holding on the whole stated region (a polynomial identity or an
  exact bound, never a finite sample of points);
- "certificate": settled by a polynomial nonpositivity certificate over
  outward-rounded rational coefficients;
- "grid+modulus": settled by sampling together with an explicit
  truncation bound or continuity modulus;
- "oracle": cross-checked against the finite element solver.

The verdict is "Verified" when every item is exact-rational or
certificate, "VerifiedNumerically" when any item leans on grid or oracle
evidence, and "Failed" (with a witness inside the failing item) when any
check turns out false.
"""

from __future__ import annotations

import concurrent.futures
import functools
import itertools
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from . import bounds, closed_forms, geometry, pde_oracle, polycert
from .constants import C1, K, as_fraction, enclose, point
from .geometry import Rectangle, Triangle

Number = Union[int, float, Fraction]

PI = math.pi
PI_SQ = math.pi**2
F_LOWER_LIMIT = PI_SQ / 24.0
F_UPPER_LIMIT = PI_SQ / 12.0

METHODS = ("exact-rational", "certificate", "grid+modulus", "oracle")

REPLAY_IDS = (
    "acute-1a",
    "acute-1b",
    "acute-2",
    "obtuse-1",
    "obtuse-2",
    "obtuse-3",
    "upper-triangle",
    "upper-tangential",
    "rect-monotone",
    "sharpness-thinning",
)

_ZETA5 = float(enclose("zeta5", Fraction(1, 10**15)).midpoint)


class OutOfRegion(ValueError):
    """The input lies outside the region where an exact test applies."""


class CellSubdivisionFailure(RuntimeError):
    """Adaptive cell subdivision hit its depth cap before certifying."""


class UnknownCase(KeyError):
    """No replayed case carries the requested name."""


# ---------------------------------------------------------------------------
# Evidence containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EvidenceItem:
    """One logged check: what was tested, how, and with what slack."""

    check: str
    method: str
    margin: float
    passed: bool = True
    detail: str = ""

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown evidence method {self.method!r}")

    def to_json_dict(self) -> dict:
        return {
            "check": self.check,
            "method": self.method,
            "margin": self.margin,
            "passed": self.passed,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class CaseReport:
    """Replay outcome for one case: evidence list plus derived verdict."""

    case_id: str
    region: str
    evidence: tuple
    verdict: str
    notes: str = ""

    def to_json_dict(self) -> dict:
        return {
            "case_id": self.case_id,
            "region": self.region,
            "evidence": [item.to_json_dict() for item in self.evidence],
            "verdict": self.verdict,
            "notes": self.notes,
        }


def _derive_verdict(evidence: Sequence[EvidenceItem]) -> str:
    if any(not item.passed for item in evidence):
        return "Failed"
    if all(item.method in ("exact-rational", "certificate") for item in evidence):
        return "Verified"
    return "VerifiedNumerically"


def _report(case_id: str, region: str, evidence: list, notes: str = "") -> CaseReport:
    return CaseReport(
        case_id=case_id,
        region=region,
        evidence=tuple(evidence),
        verdict=_derive_verdict(evidence),
        notes=notes,
    )


# ---------------------------------------------------------------------------
# Exact-arithmetic helpers
# ---------------------------------------------------------------------------


def arctan_enclosure(x: Number, terms: int = 6) -> tuple:
    """Alternating-series bracket (lower, upper) of arctan x for 0 < x <= 1."""
    x = as_fraction(x)
    if not 0 < x <= 1:
        raise ValueError(f"bracket needs 0 < x <= 1, got {x}")
    n = terms + (terms % 2)  # even term count: last partial sum sits below
    partials = []
    s = Fraction(0)
    for k in range(n):
        s += Fraction((-1) ** k) * x ** (2 * k + 1) / (2 * k + 1)
        partials.append(s)
    return partials[-1], partials[-2]


def tan_lower_frac(x: Number) -> Fraction:
    """Rational minorant x + x^3/3 + 2x^5/15 of tan x, valid on (0, pi/2)."""
    x = as_fraction(x)
    return x + x**3 / 3 + Fraction(2, 15) * x**5


def tan_upper_quintic_frac(x: Number) -> Fraction:
    """Rational majorant x + x^3/3 + 2x^5/5 of tan x, valid on (0, 1)."""
    x = as_fraction(x)
    return x + x**3 / 3 + Fraction(2, 5) * x**5


def identity_vanishes(fn: Callable[..., Fraction], degrees: Sequence[int]) -> bool:
    """Exact zero test for a polynomial map given per-variable degree caps.

    Evaluates fn on a rational grid with (degree + 1) nodes per variable;
    a polynomial of at most those degrees vanishing on the grid is zero.
    """
    grids = [
        [Fraction(i + 1, deg + 2) for i in range(deg + 1)] for deg in degrees
    ]
    return all(fn(*pt) == 0 for pt in itertools.product(*grids))


# ---------------------------------------------------------------------------
# Case formulas: the acute ratio bounds that the survey reports
# ---------------------------------------------------------------------------


def _g_acute_1a(a: Number, b: Number) -> Number:
    """Band ratio bound at (a, b): exact on rationals, float otherwise.

    Fraction(3, 5) * x is 0.6 * x on a float x, so one formula serves both.
    """
    if all(isinstance(v, (int, Fraction)) for v in (a, b)):
        a, b = as_fraction(a), as_fraction(b)
    else:
        a, b = float(a), float(b)
    u = (1 - a) ** 2 + b * b
    return Fraction(3, 5) * (u + b) ** 2 / (u * (u + a))


def _f_acute_1b(x: float) -> float:
    tl = x + x**3 / 3.0 + 2.0 * x**5 / 15.0
    tu = x + x**3 / 3.0 + 2.0 * x**5 / 5.0
    c = float(K) * 2.0 ** (1.0 / 3.0) / PI ** (2.0 / 3.0)
    return 0.6 * x * tl / (1.0 + 4.0 * tu * tu) * (1.0 / x + c / x ** (1.0 / 3.0)) ** 2


def _f_mgeq3(b: float) -> float:
    gb = math.atan(1.0 / b)
    c = float(C1) / (2.0 ** (1.0 / 3.0) * PI ** (2.0 / 3.0))
    last = 1.0 / b - gb - 124.0 * _ZETA5 * gb**4 / PI**5
    return (
        0.75
        * (b * b / gb)
        * (1.0 + b / math.sqrt(b * b + 1.0)) ** 2
        * (1.0 + c * gb ** (2.0 / 3.0)) ** 2
        * last
    )


def xb_ge_3_exact(b: Number) -> bool:
    """Exact test of x_b >= 3 for rational 0 < b <= 1/2, no square roots.

    At height b the right-angle circle meets the chart at
    a_b = 1/2 - sqrt(1/4 - b^2), and x_b = (1 - a_b)/b.  x_b >= 3
    rearranges to 1/2 + sqrt(1/4 - b^2) >= 3b; for b <= 1/6 the right side
    is already below 1/2, otherwise both sides square to the comparison
    1/4 - b^2 >= (3b - 1/2)^2, whose difference is b(3 - 10b).
    """
    b = as_fraction(b)
    if not 0 < b <= Fraction(1, 2):
        raise OutOfRegion(f"x_b needs 0 < b <= 1/2, got {b}")
    if b <= Fraction(1, 6):
        return True
    return Fraction(1, 4) - b * b >= (3 * b - Fraction(1, 2)) ** 2


# ---------------------------------------------------------------------------
# Adaptive rational cell certification for the acute band function g
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CellCertificate:
    """Record of a successful cell-subdivision floor proof for g."""

    floor: Fraction
    box: tuple
    cells: int
    max_depth: int


def _g_cell_lower(a0: Fraction, a1: Fraction, b0: Fraction, b1: Fraction) -> Fraction:
    """Exact lower bound for g on [a0,a1] x [b0,b1] by interval monotonicity.

    With u = (1-a)^2 + b^2, the numerator (u+b)^2 only grows with u and b
    while the denominator u(u+a) only grows with u and a, so the corner
    values below bound g on the whole cell.
    """
    u_lo = (1 - a1) ** 2 + b0 * b0
    u_hi = (1 - a0) ** 2 + b1 * b1
    return Fraction(3, 5) * (u_lo + b0) ** 2 / (u_hi * (u_hi + a1))


def certify_g_floor(
    floor: Number = Fraction(201, 200),
    box: Optional[tuple] = None,
    max_depth: int = 18,
) -> CellCertificate:
    """Prove g >= floor on a box by adaptive exact-rational subdivision.

    The default box [0, 1/2] x [43/50, 29/10] covers the acute band; the
    default floor 201/200 sits strictly below the band's corner minimum,
    leaving room for the interval slack to contract under subdivision.
    Raises CellSubdivisionFailure if some cell resists to max_depth.
    """
    if box is None:
        box = (Fraction(0), Fraction(1, 2), Fraction(43, 50), Fraction(29, 10))
    return _g_floor(as_fraction(floor), tuple(box), max_depth)


@functools.cache
def _g_floor(floor: Fraction, box: tuple, max_depth: int) -> CellCertificate:
    a0, a1, b0, b1 = (as_fraction(v) for v in box)
    stack = [(a0, a1, b0, b1, 0)]
    cells = 0
    deepest = 0
    while stack:
        a0, a1, b0, b1, depth = stack.pop()
        if _g_cell_lower(a0, a1, b0, b1) >= floor:
            cells += 1
            deepest = max(deepest, depth)
            continue
        if depth >= max_depth:
            raise CellSubdivisionFailure(
                f"cell [{a0},{a1}] x [{b0},{b1}] resisted at depth {depth} "
                f"(floor {floor})"
            )
        # split the direction contributing most slack to u = (1-a)^2 + b^2
        if (b1 - b0) * (b0 + b1) >= (a1 - a0) * (2 - a0 - a1):
            mid = (b0 + b1) / 2
            stack.append((a0, a1, b0, mid, depth + 1))
            stack.append((a0, a1, mid, b1, depth + 1))
        else:
            mid = (a0 + a1) / 2
            stack.append((a0, mid, b0, b1, depth + 1))
            stack.append((mid, a1, b0, b1, depth + 1))
    return CellCertificate(floor=floor, box=box, cells=cells, max_depth=deepest)


# ---------------------------------------------------------------------------
# Certificate plan
# ---------------------------------------------------------------------------

# lemma -> right end dx of its certified window (0, dx]; the replays' window
# arithmetic reads the windows from here
_CERT_PLAN = {
    "P2_acute": Fraction(285, 1000),
    "negP1prime_mono": Fraction(444, 1000),
    "negP1prime_mono_shifted": Fraction(444, 1000),
    "Q_mgeq3": Fraction(686, 1000),
}


def certify_all(max_depth: int = 40) -> list:
    """Run the four planned lemma certificates; returns per-run summaries."""
    out = []
    for name, dx in _CERT_PLAN.items():
        poly = polycert.build_lemma_polynomial(name, rounding="upper")
        t0 = time.perf_counter()
        cert = polycert.certify_nonpositive(poly, dx, max_depth=max_depth)
        elapsed = time.perf_counter() - t0
        out.append(
            {
                "lemma": name,
                "dx": str(dx),
                "ok": cert.ok,
                "depth": cert.depth,
                "intervals": len(cert.intervals),
                "seconds": elapsed,
            }
        )
    return out


def _certificate_item(name: str, check: str) -> EvidenceItem:
    dx = _CERT_PLAN[name]
    poly = polycert.build_lemma_polynomial(name, rounding="upper")
    cert = polycert.certify_nonpositive(poly, dx)
    worst = max(c0 for _, _, c0 in cert.intervals) if cert.intervals else Fraction(0)
    return EvidenceItem(
        check=check,
        method="certificate",
        margin=float(-worst),
        passed=cert.ok,
        detail=(
            f"{name} <= 0 on (0, {dx}]: {len(cert.intervals)} interval(s), "
            f"depth {cert.depth}"
        ),
    )


def _exact_item(check: str, passed: bool, margin: Number, detail: str = "") -> EvidenceItem:
    return EvidenceItem(
        check=check,
        method="exact-rational",
        margin=float(margin),
        passed=bool(passed),
        detail=detail,
    )


def _angle_window_item(detail: str) -> EvidenceItem:
    """arctan(1/3) lies below the cube of the Q_mgeq3 window's right end."""
    dx = _CERT_PLAN["Q_mgeq3"]
    _, hi13 = arctan_enclosure(Fraction(1, 3), 3)
    return _exact_item(
        f"arctan(1/3) <= 391/1215 <= ({dx})^3",
        hi13 <= Fraction(391, 1215) <= dx**3,
        dx**3 - Fraction(391, 1215),
        detail,
    )


def _monotone_map_items(first: str, second: str) -> list:
    """The two derivative certificates and the check that they tile (0, 7/10].

    ``first`` and ``second`` name the two certificate checks.
    """
    _, shift = polycert.RECENTERED["negP1prime_mono_shifted"]
    top = shift + _CERT_PLAN["negP1prime_mono_shifted"]
    return [
        _certificate_item("negP1prime_mono", first),
        _certificate_item("negP1prime_mono_shifted", second),
        _exact_item(
            f"the two derivative certificates tile (0, {top}] and "
            f"7/10 <= ({top})^3",
            shift <= _CERT_PLAN["negP1prime_mono"] and Fraction(7, 10) <= top**3,
            top**3 - Fraction(7, 10),
            f"the first window reaches the re-centering point {shift}, so "
            "monotonicity of the angle map holds on (0, 7/10]",
        ),
    ]


# ---------------------------------------------------------------------------
# Displayed sparse coefficients of the band polynomial, for cross-checking
# ---------------------------------------------------------------------------


def _p1_display_intervals() -> dict:
    """Sparse coefficient enclosures of the band polynomial as displayed.

    P1(x) = 5x^3 (1 + 4A^2) - 3B (1 + Cx^2)^2 expands to twelve sparse
    monomials whose coefficients mix rationals with 2^(1/3) and powers of
    pi^(1/3); each is enclosed here independently of the product builder.
    """
    t13 = enclose("two_pow_1_3", polycert._COEFF_EPS)
    p23 = enclose("pi_pow_2_3", polycert._COEFF_EPS)
    p43 = enclose("pi_pow_4_3", polycert._COEFF_EPS)
    return {
        3: point(2),
        5: point(Fraction(-69, 5)) * t13 / p23,
        7: point(Fraction(-1587, 50)) / (t13 * p43),
        9: point(19),
        11: point(Fraction(-23, 5)) * t13 / p23,
        13: point(Fraction(-529, 50)) / (t13 * p43),
        15: point(Fraction(194, 15)),
        17: point(Fraction(-46, 25)) * t13 / p23,
        19: point(Fraction(-529, 125)) / (t13 * p43),
        21: point(Fraction(164, 9)),
        27: point(Fraction(16, 3)),
        33: point(Fraction(16, 5)),
    }


def _display_matches_builder() -> tuple:
    built = polycert.build_lemma_polynomial("P1_acute", rounding="interval")
    display = _p1_display_intervals()
    zero = Fraction(0)
    for deg, iv in enumerate(built):
        want = display.get(deg)
        if want is None:
            if not (iv.lo <= zero <= iv.hi):
                return False, deg
        elif want.lo > iv.hi or iv.lo > want.hi:
            return False, deg
    return True, None


# ---------------------------------------------------------------------------
# Analytic case replays
# ---------------------------------------------------------------------------


def _replay_acute_1a() -> CaseReport:
    region = "0 <= a <= 1/2, sqrt(3)/2 <= b <= 29/10 (acute chart, unit shortest side)"
    ev = []
    corner = _g_acute_1a(Fraction(1, 2), Fraction(29, 10))
    target = Fraction(501126, 495785)
    ev.append(
        _exact_item(
            "band corner value g(1/2, 29/10) equals 501126/495785 and exceeds 1",
            corner == target and corner > 1,
            corner - 1,
            f"g = {corner}",
        )
    )
    cert = certify_g_floor()
    ev.append(
        _exact_item(
            "g >= 201/200 on [0,1/2] x [43/50,29/10] by exact cell subdivision",
            True,
            Fraction(1, 200),
            f"{cert.cells} certified cells, max depth {cert.max_depth}",
        )
    )
    ev.append(
        _exact_item(
            "box floor 43/50 sits below sqrt(3)/2, so the box covers the band",
            Fraction(43, 50) ** 2 <= Fraction(3, 4),
            Fraction(3, 4) - Fraction(43, 50) ** 2,
            "compared as squares: (43/50)^2 = 1849/2500 <= 3/4",
        )
    )
    ev.append(
        _exact_item(
            "denominator identity (a-1)^2 + b^2 + a = 1 - a + a^2 + b^2",
            identity_vanishes(
                lambda a, b: (a - 1) ** 2 + b * b + a - (1 - a + a * a + b * b),
                (2, 2),
            ),
            0,
            "exact grid evaluation at 3 x 3 rational nodes",
        )
    )
    notes = (
        "g is the ratio bound assembled from the diameter-height eigenvalue "
        "bound pi^2 (1/N + N/b)^2 and the torsion bound b^3/(80(u+a)); the "
        "assembly identity (pi^2/24) g = bound product is reproduced "
        "numerically in the unit suite."
    )
    return _report("acute-1a", region, ev, notes)


def _replay_acute_1b() -> CaseReport:
    region = (
        "0 <= a <= 1/2, 1 <= b <= 4 (acute chart) via x = arctan(1/(2b)) "
        "in [arctan(1/8), arctan(1/2)]"
    )
    ev = []
    ev.append(
        _certificate_item(
            "P2_acute", "shifted band polynomial nonpositive on its window"
        )
    )
    lo18, _ = arctan_enclosure(Fraction(1, 8), 4)
    _, hi12 = arctan_enclosure(Fraction(1, 2), 6)
    ev.append(
        _exact_item(
            "arctan(1/8) >= 191/1536 > 12/100",
            lo18 >= Fraction(191, 1536) > Fraction(12, 100)
            and lo18 > Fraction(12, 100),
            lo18 - Fraction(12, 100),
            f"alternating partial sum gives arctan(1/8) >= {lo18}",
        )
    )
    ev.append(
        _exact_item(
            "arctan(1/2) < 464/1000",
            hi12 < Fraction(464, 1000),
            Fraction(464, 1000) - hi12,
            f"alternating partial sum gives arctan(1/2) <= {hi12}",
        )
    )
    _, shift = polycert.RECENTERED["P2_acute"]
    top = shift + _CERT_PLAN["P2_acute"]
    ev.append(
        _exact_item(
            f"cube-window arithmetic: 12/100 >= ({shift})^3 and 464/1000 <= "
            f"({top})^3, where {top} = {shift} + the P2_acute window",
            Fraction(12, 100) >= shift**3 and Fraction(464, 1000) <= top**3,
            min(Fraction(12, 100) - shift**3, top**3 - Fraction(464, 1000)),
            "the substituted variable window lands inside the certified shift",
        )
    )
    match, bad_deg = _display_matches_builder()
    ev.append(
        _exact_item(
            "sparse displayed coefficients agree with the product-built enclosures",
            match,
            0,
            "all 34 coefficient enclosures intersect"
            if match
            else f"degree {bad_deg} enclosures are disjoint",
        )
    )
    notes = (
        "The window function multiplies the equal-area sector eigenvalue "
        "bound (with the algebraic Bessel-zero minorant) against the "
        "torsion test bound; its floor reduces to the certified polynomial "
        "after the cube substitution and right-shift by 49/100."
    )
    return _report("acute-1b", region, ev, notes)


def _replay_acute_2() -> CaseReport:
    region = "0 <= a <= 1/2, b >= 3 (acute chart, unit shortest side)"
    ev = _monotone_map_items(
        "negated derivative of the monotone-map polynomial nonpositive on its window",
        "negated derivative, re-centered, nonpositive on its window",
    )
    ev.append(
        _certificate_item(
            "Q_mgeq3", "tall-triangle comparison polynomial nonpositive on its window"
        )
    )
    _, hi16 = arctan_enclosure(Fraction(1, 6), 4)
    ev.append(
        _exact_item(
            "angle window: 2 arctan(1/6) <= 1/3 < 7/10",
            2 * hi16 <= Fraction(1, 3),
            Fraction(1, 3) - 2 * hi16,
            "the apex angle of every tall triangle here stays below 1/3",
        )
    )
    ev.append(
        _angle_window_item(
            "the comparison certificate window covers the full angle range"
        )
    )
    dhat = (
        point(372)
        * enclose("zeta5", polycert._COEFF_EPS)
        / enclose("pi_pow_5", polycert._COEFF_EPS)
    )
    ev.append(
        _exact_item(
            "372 zeta(5) / pi^5 <= 13/10 and (13/10)(34/100) < 1",
            dhat.hi <= Fraction(13, 10)
            and Fraction(13, 10) * Fraction(34, 100) < 1,
            Fraction(13, 10) - dhat.hi,
            "the linearized tail factor stays positive on the angle window",
        )
    )
    notes = (
        "The chain reduces a general tall triangle to the isosceles one by "
        "the altitude comparison and the certified monotone angle map, then "
        "lands on the comparison polynomial certificate."
    )
    return _report("acute-2", region, ev, notes)


def _replay_obtuse_1() -> CaseReport:
    region = "obtuse chart band between the lower root curve and b^2 <= a - a^2"
    ev = []
    ok_band = True
    for a in (Fraction(0), Fraction(1, 7), Fraction(2, 7), Fraction(3, 7)):
        r = 5 + 10 * a - 10 * a * a
        p, q = Fraction(3, 2), Fraction(-1, 2)  # b = p + q sqrt(r)
        b2p = p * p + q * q * r
        b2q = 2 * p * q
        rat = 2 * b2p - 6 * p + (2 - 5 * a + 5 * a * a)
        irr = 2 * b2q - 6 * q
        if rat != 0 or irr != 0:
            ok_band = False
    ev.append(
        _exact_item(
            "the band's lower curve is an exact root of the ratio quadratic",
            ok_band,
            0,
            "evaluated in Q[sqrt(r)] at four rational nodes, degree cap 2",
        )
    )
    ev.append(
        _exact_item(
            "quadratic expansion identity: 3(1+b)^2 - 5(1-a+a^2+b^2) "
            "= -(2b^2 - 6b + 2 - 5a + 5a^2)",
            identity_vanishes(
                lambda a, b: 3 * (1 + b) ** 2
                - 5 * (1 - a + a * a + b * b)
                + (2 * b * b - 6 * b + 2 - 5 * a + 5 * a * a),
                (2, 2),
            ),
            0,
            "so the ratio clears 1 exactly between the quadratic's roots",
        )
    )
    ev.append(
        _exact_item(
            "the band stays below the upper root: 1/4 - (a - a^2) = (a - 1/2)^2",
            identity_vanishes(
                lambda a: Fraction(1, 4) - (a - a * a) - (a - Fraction(1, 2)) ** 2,
                (2,),
            ),
            Fraction(3, 2) - Fraction(1, 2),
            "so b^2 <= a - a^2 <= 1/4 forces b <= 1/2 < 3/2 <= (3 + sqrt(r))/2",
        )
    )
    notes = (
        "Between the two roots the ratio quadratic is nonpositive, so the "
        "assembled lower bound clears pi^2/24 on the whole band; both root "
        "comparisons are exact in the quadratic field."
    )
    return _report("obtuse-1", region, ev, notes)


def _replay_obtuse_2() -> CaseReport:
    region = "obtuse chart, 0 < b <= 2a(1-a)/(1-a+a^2)"
    ev = []
    ev.append(
        _exact_item(
            "factorization identity a(1-a)(1+b)^2 - (a-a^2+b^2) "
            "= b(2a(1-a) - b(1-a+a^2))",
            identity_vanishes(
                lambda a, b: a * (1 - a) * (1 + b) ** 2
                - (a - a * a + b * b)
                - b * (2 * a * (1 - a) - b * (1 - a * (1 - a))),
                (2, 2),
            ),
            0,
            "exact grid evaluation at 3 x 3 rational nodes",
        )
    )
    ev.append(
        _exact_item(
            "the region's curve divisor is positive: 1 - a + a^2 = (a - 1/2)^2 + 3/4",
            identity_vanishes(
                lambda a: 1 - a + a * a - (a - Fraction(1, 2)) ** 2 - Fraction(3, 4),
                (2,),
            ),
            Fraction(3, 4),
            "so b(1-a+a^2) <= 2a(1-a) and b >= 0 make the factored form >= 0, "
            "and the ratio >= 1, on the whole region",
        )
    )
    ev.append(
        _exact_item(
            "the chart keeps the base the diameter: both slant sides stay "
            "inside the unit circle",
            identity_vanishes(
                lambda a, b: ((1 - a) ** 2 + b * b) - (1 - a) - (b * b - a + a * a),
                (2, 2),
            ),
            0,
            "N^2 - (1-a) = b^2 - (a - a^2) <= 0 exactly on b^2 <= a - a^2",
        )
    )
    notes = (
        "The piecewise test function behind the torsion bound gives the "
        "ratio in closed rational form; its sign is the sign of the single "
        "factor b(2w - b(1-w)), which the region inequality controls."
    )
    return _report("obtuse-2", region, ev, notes)


def _replay_obtuse_3() -> CaseReport:
    region = (
        "obtuse chart, 2a(1-a)/(1-a+a^2) <= b <= sqrt(a-a^2), b <= 3/10"
    )
    ev = []
    ev.append(
        _exact_item(
            "x_b >= 3 exactly when b <= 3/10: quadratic difference identity",
            identity_vanishes(
                lambda b: (Fraction(1, 4) - b * b)
                - (3 * b - Fraction(1, 2)) ** 2
                - b * (3 - 10 * b),
                (2,),
            )
            and xb_ge_3_exact(Fraction(3, 10))
            and xb_ge_3_exact(Fraction(1, 4)),
            0,
            "(1/4 - b^2) - (3b - 1/2)^2 = b(3 - 10b); equality at b = 3/10 "
            "gives x_b = 3 with a_b = 1/10 rational",
        )
    )
    ev.append(
        _certificate_item(
            "Q_mgeq3", "comparison polynomial certificate reused for the base angle map"
        )
    )
    ev.append(_angle_window_item("x_b >= 3 keeps beta_b inside the certified window"))
    ev += _monotone_map_items(
        "monotone angle map certificate, first tile",
        "monotone angle map certificate, second tile",
    )
    ev.append(
        _exact_item(
            "base angle windows: tan(beta) <= 3/5, hence beta <= arctan(3/5) "
            "<= 3/5 < 7/10 and beta <= pi/4",
            Fraction(3, 10) / Fraction(1, 2) == Fraction(3, 5)
            and Fraction(3, 5) < Fraction(7, 10)
            and Fraction(3, 5) <= 1,
            Fraction(7, 10) - Fraction(3, 5),
            "b <= 3/10 and 1 - a >= 1/2 bound the tangent; arctan x <= x; "
            "tangent at most 1 keeps the angle at or below pi/4",
        )
    )
    ok_w = identity_vanishes(
        lambda w: 2 * (2 * w * w + 2 * w) ** 2 - 8 * w * w * (w + 1) ** 2,
        (4,),
    )
    # 760 - 240 sqrt(10) >= 1 compares as squares: 759^2 >= 240^2 * 10, and
    # then 759 - 240 sqrt(10) = gap / (759 + 240 sqrt(10)) >= gap / (2 * 759)
    gap = 759**2 - 240**2 * 10
    ev.append(
        _exact_item(
            "sector prefactor simplifies to 4/(1+w)^2 with w = sqrt((1+s)/2) "
            "and is >= 1 on the region",
            ok_w and gap >= 0,
            Fraction(gap, 2 * 759),
            "denominator identity 2(2w^2+2w)^2 = 8w^2(w+1)^2 is exact; "
            "w <= 1 since s = sqrt(1-4b^2) <= 1; at b = 3/10 the exact "
            "value 760 - 240 sqrt(10) still exceeds 1, compared as squares: "
            f"759^2 - 240^2 * 10 = {gap}",
        )
    )
    ev.append(
        _exact_item(
            "the sector of the base angle fits: with P = (a, b), V = (1, 0), "
            "O = (0, 0), (P - V).(O - P) = a - a^2 - b^2",
            identity_vanishes(
                lambda a, b: (a - 1) * (-a) + b * (-b) - (a - a * a - b * b),
                (2, 2),
            ),
            0,
            "the dot product is >= 0 on b^2 <= a - a^2, so the distance to V "
            "grows from N = |P - V| along the side from P to O; that side "
            "stays outside the open radius-N disc about V, and the radius-N "
            "sector at V lies in the triangle",
        )
    )
    notes = (
        "Region predicates used are the exact rational ones from the "
        "geometry module.  The region text pins the band between the "
        "middle-case curve and the right-angle circle; near a = 0 the band "
        "is empty and membership defers to the predicates, which this "
        "replay flags rather than resolves.  The base angle here is the "
        "one at (1, 0), with tangent b/(1 - a)."
    )
    return _report("obtuse-3", region, ev, notes)


# ---------------------------------------------------------------------------
# Numeric replays (oracle and series evidence)
# ---------------------------------------------------------------------------


def _sample_triangles() -> list:
    """The valid chart triangles of a 32 x 23 grid on [0, 1/2] x [1/20, sqrt(3)/2].

    Both grid ends are hit exactly, so the sample holds the a = 1/2 column
    up to the equilateral apex (1/2, sqrt(3)/2): 498 triangles.
    """
    na, nb = 32, 23
    top = math.sqrt(3.0) / 2.0
    out = []
    for i in range(na):
        a = 0.5 * i / (na - 1)
        for j in range(nb):
            b = top - (top - 0.05) * (nb - 1 - j) / (nb - 1)
            if (a - 1.0) ** 2 + b * b <= 1.0 + 1e-12:
                out.append(Triangle(a, b))
    return out


def _replay_upper_triangle() -> CaseReport:
    region = "all triangles (chart with the base the longest side)"
    ev = []
    lam_ratio = Fraction(16, 3) * Fraction(3, 16) / 9
    ev.append(
        _exact_item(
            "equilateral saturates the eigenvalue cap: lambda |D|^2 / P^2 "
            "= pi^2/9 exactly",
            lam_ratio == Fraction(1, 9),
            0,
            "(16/3)(3/16)/9 = 1/9 after the pi^2 factor cancels",
        )
    )
    tor_ratio = Fraction(1, 320) * 9 / Fraction(3, 64)
    ev.append(
        _exact_item(
            "equilateral torsion factor T P^2 / |D|^3 equals 3/5 < 2/3",
            tor_ratio == Fraction(3, 5) and tor_ratio < Fraction(2, 3),
            Fraction(2, 3) - tor_ratio,
            "sqrt(3) cancels between T = sqrt(3)/320 and |D|^3 = 3 sqrt(3)/64",
        )
    )
    ev.append(
        _exact_item(
            "cap product identity: (1/9)(2/3) = 2/27 and the equilateral "
            "value (1/9)(3/5) = 1/15",
            Fraction(1, 9) * Fraction(2, 3) == Fraction(2, 27)
            and Fraction(1, 9) * Fraction(3, 5) == Fraction(1, 15),
            Fraction(2, 27) - Fraction(1, 15),
            "so the functional tops out at 2 pi^2/27, with pi^2/15 at the "
            "equilateral",
        )
    )
    tris = _sample_triangles()
    worst_eig = math.inf
    worst_tor = math.inf
    worst_cap = math.inf
    for tri in tris:
        data = geometry.derive(tri)
        res = pde_oracle.spectral(tri, max_level=5)
        chain = bounds.upper_chain(
            {"lambda1": res.lambda1, "T": res.T, "area": data.area, "P": data.P},
            "triangle",
        ).details
        worst_eig = min(worst_eig, chain["cap_eig"] * (1.0 + 2e-3) - chain["factor_eig"])
        worst_tor = min(worst_tor, chain["cap_tor"] - chain["factor_tor"])
        worst_cap = min(worst_cap, 2.0 * PI_SQ / 27.0 + 1e-3 - res.F)
    ev.append(
        EvidenceItem(
            check=f"oracle eigenvalue factor stays at or below pi^2/9 "
            f"(2e-3 discretization allowance) on {len(tris)} triangles",
            method="oracle",
            margin=worst_eig,
            passed=worst_eig >= 0,
            detail="conforming elements approach the cap from above at the "
            "equilateral corner",
        )
    )
    ev.append(
        EvidenceItem(
            check=f"oracle torsion factor stays strictly below 2/3 on "
            f"{len(tris)} triangles",
            method="oracle",
            margin=worst_tor,
            passed=worst_tor > 0,
            detail="the factor tends to 2/3 only in the degenerate thin limit",
        )
    )
    ev.append(
        EvidenceItem(
            check="oracle functional stays below 2 pi^2/27 + 1e-3 on the sample",
            method="oracle",
            margin=worst_cap,
            passed=worst_cap >= 0,
            detail="product of the two capped factors",
        )
    )
    return _report("upper-triangle", region, ev)


def _replay_upper_tangential() -> CaseReport:
    region = "tangential domains; among rectangles, exactly the squares"
    ev = []
    ev.append(
        _exact_item(
            "cap product identity: (1/8)(2/3) = 1/12",
            Fraction(1, 8) * Fraction(2, 3) == Fraction(1, 12),
            0,
            "so tangential domains keep the functional below pi^2/12",
        )
    )
    sq = Rectangle(0.5, 0.5)
    tor = closed_forms.rect_torsion(sq, n_terms=64)
    factor_tor = (tor.value + tor.tail_bound) * 16.0
    ev.append(
        EvidenceItem(
            check="square torsion factor T P^2 / |D|^3 < 2/3 by series with tail",
            method="grid+modulus",
            margin=2.0 / 3.0 - factor_tor,
            passed=factor_tor < 2.0 / 3.0,
            detail=f"series value {tor.value:.9g}, tail {tor.tail_bound:.3g}, "
            f"factor {factor_tor:.9g}",
        )
    )
    f_series = closed_forms.rect_F(Rectangle(1.0, 1.0), n_terms=64)
    ev.append(
        EvidenceItem(
            check="square functional by series stays below pi^2/12",
            method="grid+modulus",
            margin=F_UPPER_LIMIT - (f_series.value + f_series.tail_bound),
            passed=f_series.value + f_series.tail_bound < F_UPPER_LIMIT,
            detail=f"series value {f_series.value:.9g} with tail "
            f"{f_series.tail_bound:.3g}",
        )
    )
    res = pde_oracle.spectral(sq, max_level=6)
    ev.append(
        EvidenceItem(
            check="oracle square functional agrees with the series to 1e-3",
            method="oracle",
            margin=1e-3 - abs(res.F - f_series.value),
            passed=abs(res.F - f_series.value) <= 1e-3,
            detail=f"oracle {res.F:.9g} vs series {f_series.value:.9g}",
        )
    )
    notes = (
        "Rectangles other than squares have no inscribed circle touching "
        "all four sides, and the mesh families cover no other tangential "
        "polygons, so the numeric leg samples squares; the analytic leg is "
        "the cap composition itself."
    )
    return _report("upper-tangential", region, ev, notes)


def _replay_rect_monotone() -> CaseReport:
    region = "rectangles (-a, a) x (-1, 1), aspect a >= 1"
    ev = []

    def deriv_num_residual(alpha, beta, x):
        g_first = 2 * x * (alpha + beta * x * x) - (1 + x * x) * 2 * beta * x
        g_second = 2 * x * (beta + alpha * x * x) - (1 + x * x) * 2 * alpha * x
        direct = (
            g_first * (beta + alpha * x * x) ** 2
            + g_second * (alpha + beta * x * x) ** 2
        )
        display = 2 * (alpha - beta) ** 2 * (alpha + beta) * x * (x**4 - 1)
        return direct - display

    ev.append(
        _exact_item(
            "termwise derivative numerator equals "
            "2 (alpha-beta)^2 (alpha+beta) x (x^4 - 1) identically",
            identity_vanishes(deriv_num_residual, (3, 3, 7)),
            0,
            "exact grid evaluation with 4 x 4 x 8 rational nodes",
        )
    )
    ev.append(
        _exact_item(
            "index factor identity: alpha - beta factors as "
            "(2n+1)^2 (2m+1)^2 ((2n+1)^2 - (2m+1)^2), positive for n > m",
            identity_vanishes(
                lambda n, m: (2 * n + 1) ** 4 * (2 * m + 1) ** 2
                - (2 * m + 1) ** 4 * (2 * n + 1) ** 2
                - (2 * n + 1) ** 2
                * (2 * m + 1) ** 2
                * ((2 * n + 1) ** 2 - (2 * m + 1) ** 2),
                (6, 6),
            ),
            0,
            "so every paired series term is nondecreasing in the aspect "
            "ratio at or past 1",
        )
    )
    scan = rect_monotonicity_scan()
    ev.append(
        EvidenceItem(
            check="series values along the aspect grid are nondecreasing "
            "within twice the series tail bounds",
            method="grid+modulus",
            margin=scan["min_increment_with_slack"],
            passed=scan["nondecreasing"],
            detail=f"grid {scan['a_values'][0]}..{scan['a_values'][-1]}, "
            f"{len(scan['a_values'])} points, max tail "
            f"{max(scan['tails']):.3g}",
        )
    )
    ev.append(
        EvidenceItem(
            check="the square value is the minimum of the scanned family",
            method="grid+modulus",
            margin=scan["min_above_square"],
            passed=scan["square_is_min"],
            detail=f"square value {scan['F_values'][0]:.9g}",
        )
    )
    p6 = enclose("pi_pow_2", polycert._COEFF_EPS).power(3)
    ev.append(
        _exact_item(
            "floor constant: 64/pi^4 >= pi^2/24, since 64 * 24 >= pi^6",
            p6.hi <= 1536,
            1536 - p6.hi,
            "pi^6 enclosed rationally below 1536",
        )
    )
    ev.append(
        _exact_item(
            "slab limit constants: 64 (1/8) (1/96) = 1/12",
            Fraction(64, 1) * Fraction(1, 8) * Fraction(1, 96) == Fraction(1, 12),
            0,
            "the three Fourier factors compose to the strip value pi^2/12",
        )
    )
    notes = (
        "The leading series term alone gives 64/pi^4 as a floor; "
        "monotonicity follows termwise from the exact derivative identity."
    )
    return _report("rect-monotone", region, ev, notes)


def _replay_sharpness_thinning() -> CaseReport:
    region = "isosceles triangles of height b over a unit base, b -> 0"
    ev = []
    bs = (0.2, 0.1, 0.05)
    rows = []
    for b in bs:
        res = pde_oracle.spectral(Triangle(0.5, b), max_level=7)
        data = geometry.derive(Triangle(0.5, b))
        cap = bounds.thinning_upper(data.area, data.P).value
        rows.append((b, res.F, cap, res.error_gauge.get("F", 0.0)))
    decreasing = all(rows[i][1] > rows[i + 1][1] for i in range(len(rows) - 1))
    ev.append(
        EvidenceItem(
            check="oracle functional decreases along b = 0.2, 0.1, 0.05",
            method="oracle",
            margin=min(
                rows[i][1] - rows[i + 1][1] for i in range(len(rows) - 1)
            ),
            passed=decreasing,
            detail=", ".join(f"F({b}) = {f:.6g}" for b, f, _, _ in rows),
        )
    )
    above = min(f - F_LOWER_LIMIT for _, f, _, _ in rows)
    ev.append(
        EvidenceItem(
            check="each value stays strictly above pi^2/24",
            method="oracle",
            margin=above,
            passed=above > 0,
            detail="the floor is approached but never attained",
        )
    )
    below_cap = min(cap - f for _, f, cap, _ in rows)
    ev.append(
        EvidenceItem(
            check="each value sits below the thinning upper bound",
            method="oracle",
            margin=below_cap,
            passed=below_cap > 0,
            detail="bound (pi^2/24)(1 + 2 sqrt(pi area)/P)^2 per triangle",
        )
    )
    caps = [
        bounds.thinning_upper(t / 2.0, 1.0 + 2.0 * math.hypot(0.5, t)).value
        for t in (1e-1, 1e-2, 1e-3, 1e-4)
    ]
    trend = all(caps[i] > caps[i + 1] for i in range(len(caps) - 1))
    ev.append(
        EvidenceItem(
            check="the thinning bound itself decreases to pi^2/24 as b -> 0",
            method="grid+modulus",
            margin=caps[-1] - F_LOWER_LIMIT,
            passed=trend and caps[-1] - F_LOWER_LIMIT < 0.02,
            detail=f"bound at b = 1e-4 is {caps[-1]:.9g} vs limit "
            f"{F_LOWER_LIMIT:.9g}",
        )
    )
    notes = (
        "The sequence exhibits sharpness of the pi^2/24 floor along "
        "thinning isosceles triangles; the bound squeezes the functional "
        "onto the floor in the limit."
    )
    return _report("sharpness-thinning", region, ev, notes)


_REPLAYS = {
    "acute-1a": _replay_acute_1a,
    "acute-1b": _replay_acute_1b,
    "acute-2": _replay_acute_2,
    "obtuse-1": _replay_obtuse_1,
    "obtuse-2": _replay_obtuse_2,
    "obtuse-3": _replay_obtuse_3,
    "upper-triangle": _replay_upper_triangle,
    "upper-tangential": _replay_upper_tangential,
    "rect-monotone": _replay_rect_monotone,
    "sharpness-thinning": _replay_sharpness_thinning,
}


def replay_case(case_id: str) -> CaseReport:
    """Replay one named case and return its evidence report.

    Each case runs at fixed settings: the oracle-backed ones solve at
    levels up to 5 (upper-triangle), 6 (upper-tangential) and 7
    (sharpness-thinning).  Raises UnknownCase for unknown ids.
    """
    try:
        fn = _REPLAYS[case_id]
    except KeyError:
        raise UnknownCase(case_id) from None
    return fn()


def replay_all() -> dict:
    """Replay every case in declaration order; returns id -> CaseReport."""
    return {case_id: replay_case(case_id) for case_id in REPLAY_IDS}


# ---------------------------------------------------------------------------
# Triangle sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    """One surveyed triangle: oracle values, margins, and bound gaps."""

    a: float
    b: float
    tri_class: str
    lambda1: float
    T: float
    torsion_max: float
    F: float
    margin_low: float
    margin_high: float
    bound_gaps: dict = field(default_factory=dict)
    error: str = ""
    error_gauge: dict = field(default_factory=dict)


_CSV_HEADER = "a,b,class,lambda1,T,torsion_max,F,margin_low,margin_high"


def _fmt(x: float) -> str:
    return format(x, ".12g")


def _csv_text(rows: Sequence[SweepRow]) -> str:
    lines = [_CSV_HEADER]
    for r in rows:
        lines.append(
            ",".join(
                (
                    _fmt(r.a),
                    _fmt(r.b),
                    r.tri_class,
                    _fmt(r.lambda1),
                    _fmt(r.T),
                    _fmt(r.torsion_max),
                    _fmt(r.F),
                    _fmt(r.margin_low),
                    _fmt(r.margin_high),
                )
            )
        )
    return "\n".join(lines) + "\n"


def _analytic_bound_gaps(tri: Triangle, data, res) -> dict:
    """Gaps (bound minus oracle F) for every applicable analytic bound.

    Lower-bound gaps should be nonpositive, upper-bound gaps nonnegative,
    up to oracle error.
    """
    a, b = tri.a, tri.b
    F = res.F
    area = data.area
    gaps = {}
    eq_t = bounds.torsion_lb_equilateral_test(a, b).value
    lam_dh = bounds.eig_lb_diameter_height(data.d, data.h_base).value
    gaps["lower:equilateral-test*diameter-height"] = lam_dh * eq_t / area - F
    theta_min = min(data.alpha, data.beta, data.gamma)
    lam_sec = bounds.eig_lb_sector(theta_min, b, minorized=True).value
    gaps["lower:equilateral-test*sector"] = lam_sec * eq_t / area - F
    if 0.0 < a < 1.0:
        ob_t = bounds.torsion_lb_obtuse_test(a, b).value
        gaps["lower:obtuse-test*diameter-height"] = lam_dh * ob_t / area - F
    sw = geometry.chart_swap(tri)
    if -1e-12 <= sw.a <= 0.5 + 1e-12:
        # each formula only within its validity window
        if 0 <= sw.a and 0.86 - 1e-12 <= sw.b <= 2.9 + 1e-12:
            gaps["lower:acute-band-g"] = F_LOWER_LIMIT * _g_acute_1a(sw.a, sw.b) - F
        x = math.atan(1.0 / (2.0 * sw.b))
        if 0.12 - 1e-12 <= x <= 0.464 + 1e-12:
            gaps["lower:acute-band-f"] = F_LOWER_LIMIT * _f_acute_1b(x) - F
        if sw.b >= 3.0 - 1e-12:
            gaps["lower:acute-tall-f"] = F_LOWER_LIMIT * _f_mgeq3(sw.b) - F
    chain = bounds.upper_chain(
        {"lambda1": res.lambda1, "T": res.T, "area": area, "P": data.P},
        "triangle",
    )
    gaps["upper:cap-product"] = chain.value - F
    gaps["upper:thinning"] = bounds.thinning_upper(area, data.P).value - F
    return gaps


def _sweep_one(task) -> SweepRow:
    a, b, max_level = task
    tri = Triangle(a, b)
    cls = geometry.classify(tri).value
    try:
        res = pde_oracle.spectral(tri, max_level=max_level)
    except Exception as exc:  # keep the sweep going, flag the row
        nan = float("nan")
        return SweepRow(
            a=a,
            b=b,
            tri_class=cls,
            lambda1=nan,
            T=nan,
            torsion_max=nan,
            F=nan,
            margin_low=nan,
            margin_high=nan,
            error=f"{type(exc).__name__}: {exc}",
        )
    data = geometry.derive(tri)
    gaps = _analytic_bound_gaps(tri, data, res)
    return SweepRow(
        a=a,
        b=b,
        tri_class=cls,
        lambda1=res.lambda1,
        T=res.T,
        torsion_max=res.torsion_max,
        F=res.F,
        margin_low=res.F - F_LOWER_LIMIT,
        margin_high=F_UPPER_LIMIT - res.F,
        bound_gaps=gaps,
        error_gauge=dict(res.error_gauge),
    )


def sweep_triangles(
    grid: Optional[dict] = None,
    max_level: int = 7,
    threads: int = 1,
    csv_path: Optional[str] = None,
) -> list:
    """Survey the triangle chart on a grid against the oracle.

    grid keys (all optional): na, nb, b_min, b_max.  Every valid chart
    point (base the longest side) gets oracle values, enclosure margins
    against pi^2/24 and pi^2/12, and gaps for each applicable analytic
    bound.  Rows where the solver fails are flagged and kept.  Rows come
    back sorted by (a, b); csv_path writes the fixed-format table.  One
    worker by default; ``threads`` above 1 runs a thread pool of that size.
    Raises ValueError, before any solve, for non-finite or degenerate
    heights and for a grid that holds no chart triangle.
    """
    cfg = {"na": 60, "nb": 60, "b_min": 0.02, "b_max": math.sqrt(3.0) / 2.0}
    if grid:
        cfg.update(grid)
    if not (math.isfinite(cfg["b_min"]) and math.isfinite(cfg["b_max"])):
        raise ValueError(
            f"b_min and b_max must be finite, got {cfg['b_min']} and {cfg['b_max']}"
        )
    if cfg["b_min"] < 1e-3:
        raise ValueError(f"b_min below 1e-3 is degenerate, got {cfg['b_min']}")
    na, nb = int(cfg["na"]), int(cfg["nb"])
    tasks = []
    for i in range(na):
        a = 0.5 * i / (na - 1) if na > 1 else 0.0
        for j in range(nb):
            if nb > 1:
                b = cfg["b_min"] + (cfg["b_max"] - cfg["b_min"]) * j / (nb - 1)
            else:
                b = cfg["b_min"]
            if (a - 1.0) ** 2 + b * b <= 1.0 + 1e-12:
                tasks.append((a, b, max_level))
    if not tasks:
        raise ValueError(f"the {na}x{nb} grid holds no chart triangle")
    if threads <= 1:
        rows = [_sweep_one(t) for t in tasks]
    else:
        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(_sweep_one, tasks))
    rows.sort(key=lambda r: (r.a, r.b))
    if csv_path:
        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(_csv_text(rows))
    return rows


# ---------------------------------------------------------------------------
# Rectangle scans
# ---------------------------------------------------------------------------


def rect_monotonicity_scan(
    a_values: Optional[Sequence[float]] = None, n_terms: int = 600
) -> dict:
    """Scan F over rectangles (-a,a) x (-1,1) for monotonicity in a.

    Checks the series values are nondecreasing within twice their tail
    bounds, that the square starts the family at its minimum, and the floor
    check F >= 64/pi^4.  The relative gap to the strip limit pi^2/12
    (``gap_to_limit``) is taken at the fixed aspect 100, not at
    ``a_values[-1]``; ``last_gap`` is the absolute gap of the last scanned
    value.
    """
    if a_values is None:
        a_values = [1.0 + 0.5 * k for k in range(19)]
    series = [
        closed_forms.rect_F(Rectangle(a, 1.0), n_terms=n_terms) for a in a_values
    ]
    values = [s.value for s in series]
    tails = [s.tail_bound for s in series]
    increments = [
        values[i + 1] - values[i] + 2.0 * (tails[i] + tails[i + 1])
        for i in range(len(values) - 1)
    ]
    floor = 64.0 / PI**4
    f_wide = closed_forms.rect_F(Rectangle(100.0, 1.0), n_terms=max(n_terms, 600))
    gap = (F_UPPER_LIMIT - f_wide.value) / F_UPPER_LIMIT
    return {
        "a_values": list(a_values),
        "F_values": values,
        "tails": tails,
        "nondecreasing": all(inc >= 0.0 for inc in increments),
        "min_increment_with_slack": min(increments) if increments else 0.0,
        "square_is_min": all(v >= values[0] for v in values),
        "min_above_square": min(v - values[0] for v in values[1:]) if len(values) > 1 else 0.0,
        "floor": floor,
        "all_above_floor": all(v + t >= floor for v, t in zip(values, tails))
        and f_wide.value >= floor,
        "F_wide": f_wide.value,
        "F_wide_tail": f_wide.tail_bound,
        "gap_to_limit": gap,
        "last_gap": F_UPPER_LIMIT - values[-1],
    }


def g_remark_check(a_values: Optional[Sequence[float]] = None, n_terms: int = 256) -> dict:
    """Check the eigenvalue times maximum-expected-exit-time chain G.

    G(D) = lambda_1(D) * max of the torsion function.  Verifies the square
    floor G >= 1.45 via the center series, that lambda_1 is exactly pi^2
    for the area-2 square, brackets the aspect threshold where the strip
    bound (pi^2/8)(1 + 1/a^2) drops below 1.45 strictly inside
    (2.38, 2.39), and confirms the tail comparison along the grid.
    """
    if a_values is None:
        a_values = [1.0 + 0.5 * k for k in range(19)]
    rows = []
    for a in a_values:
        r = Rectangle(a, 1.0)
        center = closed_forms.rect_center_torsion(r, n_terms=n_terms)
        rows.append((a, closed_forms.rect_lambda1(r) * center.value))
    g_square = rows[0][1]
    sq = Rectangle(math.sqrt(2.0) / 2.0, math.sqrt(2.0) / 2.0)
    lam_sq = closed_forms.rect_lambda1(sq)
    center_sq = closed_forms.rect_center_torsion(sq, n_terms=n_terms)
    p2 = enclose("pi_pow_2", polycert._COEFF_EPS)
    thr_sq = (point(5) * p2) / (point(58) - point(5) * p2)
    bracket_ok = (
        Fraction(238, 100) ** 2 < thr_sq.lo and thr_sq.hi < Fraction(239, 100) ** 2
    )
    strip_at = lambda a: (PI_SQ / 8.0) * (1.0 + 1.0 / (a * a))
    tail_ok_239 = strip_at(2.39) <= 1.45
    tail_ok_238 = strip_at(2.38) <= 1.45
    # sharper comparison: past the threshold the strip bound drops below the
    # exact square value, so the tail stays below the square even at 2.38
    repaired = strip_at(2.38) <= lam_sq * (center_sq.value - center_sq.tail_bound)
    grid_max_tail = max(g for a, g in rows if a >= 2.39) if any(
        a >= 2.39 for a, _ in rows
    ) else float("-inf")
    return {
        "a_values": list(a_values),
        "G_values": [g for _, g in rows],
        "square_value": g_square,
        "square_floor_ok": g_square >= 1.45,
        "exit_time_square": 2.0 * center_sq.value,
        "lambda_area2_square": lam_sq,
        "lambda_is_pi_sq": abs(lam_sq - PI_SQ) < 1e-12,
        "threshold_bracket": (2.38, 2.39),
        "threshold_bracket_ok": bracket_ok,
        "strip_bound_ok_at_2.39": tail_ok_239,
        "strip_bound_ok_at_2.38": tail_ok_238,
        "stated_cutoff_marginal": (not tail_ok_238) and tail_ok_239,
        "repaired_tail_ok_at_2.38": repaired,
        "tail_below_square": grid_max_tail <= g_square,
        "square_is_max_on_grid": all(g <= g_square + 1e-9 for _, g in rows),
    }

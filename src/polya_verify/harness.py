"""Replay, certification, and survey driver for the shape functional.

The central quantity is F(D) = lambda_1(D) * T(D) / |D|: the first
Dirichlet eigenvalue times the torsional rigidity over the area.  This
module replays the analytic case arguments that pin F strictly between
pi^2/24 and pi^2/12 on triangles, runs the polynomial nonpositivity
certificates those arguments rest on, and surveys triangle and rectangle
families against the finite element oracle.

Every replayed case produces a CaseReport holding EvidenceItem entries.
Each item records the check performed, the method that settled it, and a
numeric margin.  An item states its check as comparisons (lhs, op, rhs),
op one of "<", "<=" and "==", plus any identity test; it passes when all
of them hold, a strict comparison with no slack failing.  Its margin is
the smallest slack rhs - lhs of its stated inequalities, in their own
units, and 0 for an item that states only identities.  Methods:

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
import operator
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


_OPS = {"<": operator.lt, "<=": operator.le, "==": operator.eq}


def _item(
    check: str, method: str, detail: str, *comparisons: tuple, holds: bool = True
) -> EvidenceItem:
    """An item whose pass flag and margin derive from its stated comparisons.

    Each comparison is (lhs, op, rhs) with op one of "<", "<=" and "==";
    ``holds`` carries an identity test.  The item passes when ``holds`` and
    every comparison do.  Its margin is the smallest rhs - lhs over the
    inequalities, or 0 when it states none.  An exact-rational or
    certificate item takes int and Fraction operands only: a float one
    raises TypeError, since it would carry rounding into an exact verdict.
    """
    if method in ("exact-rational", "certificate") and any(
        isinstance(side, float) for lhs, _, rhs in comparisons for side in (lhs, rhs)
    ):
        raise TypeError(f"{method} item {check!r} has a float operand")
    slacks = [rhs - lhs for lhs, op, rhs in comparisons if op != "=="]
    return EvidenceItem(
        check=check,
        method=method,
        margin=float(min(slacks, default=0)),
        passed=bool(holds) and all(_OPS[op](lhs, rhs) for lhs, op, rhs in comparisons),
        detail=detail,
    )


def _report(case_id: str, region: str, evidence: list, notes: str = "") -> CaseReport:
    if any(not item.passed for item in evidence):
        verdict = "Failed"
    elif all(item.method in ("exact-rational", "certificate") for item in evidence):
        verdict = "Verified"
    else:
        verdict = "VerifiedNumerically"
    return CaseReport(case_id, region, tuple(evidence), verdict, notes)


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


def _tan_lower(x: Number) -> Number:
    """Minorant x + x^3/3 + 2x^5/15 of tan x on (0, pi/2), for a float or a
    Fraction; the integer constants keep a Fraction exact."""
    return x + x**3 / 3 + 2 * x**5 / 15


def _tan_upper(x: Number) -> Number:
    """Majorant x + x^3/3 + 2x^5/5 of tan x on (0, 1), as ``_tan_lower``."""
    return x + x**3 / 3 + 2 * x**5 / 5


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
    tl, tu = _tan_lower(x), _tan_upper(x)
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


def certify_g_floor(
    floor: Number = Fraction(201, 200),
    box: Optional[tuple] = None,
    max_depth: int = 18,
) -> CellCertificate:
    """Prove g >= floor on a box by adaptive exact-rational subdivision.

    The default box [0, 1/2] x [43/50, 29/10] covers the acute band; the
    default floor 201/200 sits strictly below the band's corner minimum,
    leaving room for the interval slack to contract under subdivision.
    A box (a0, a1, b0, b1) must satisfy 0 <= a0 < a1 <= 1 and 0 < b0 < b1,
    where the corner bound of each cell holds; OutOfRegion otherwise.
    Raises CellSubdivisionFailure if some cell resists to max_depth.
    """
    if box is None:
        box = (Fraction(0), Fraction(1, 2), Fraction(43, 50), Fraction(29, 10))
    a0, a1, b0, b1 = (as_fraction(v) for v in box)
    if not (0 <= a0 < a1 <= 1 and 0 < b0 < b1):
        raise OutOfRegion(
            f"the g-floor box needs 0 <= a0 < a1 <= 1 and 0 < b0 < b1, got {tuple(box)}"
        )
    return _g_floor(as_fraction(floor), tuple(box), max_depth)


@functools.cache
def _g_floor(floor: Fraction, box: tuple, max_depth: int) -> CellCertificate:
    """Subdivide the box in integers until every cell's corner bound clears floor.

    On a cell [a0, a1] x [b0, b1], with u = (1-a)^2 + b^2, the numerator
    (u+b)^2 of g only grows with u and b and the denominator u(u+a) only
    grows with u and a, so 3/5 (u_lo + b0)^2 / (u_hi (u_hi + a1)) bounds g
    on the cell, u_lo = (1-a1)^2 + b0^2 and u_hi = (1-a0)^2 + b1^2.  The box
    is scaled by q = lcm(denominators) * 2^max_depth, so every corner down
    to max_depth is an integer A = a q, B = b q, and the bound clears
    floor = n/d exactly when 3 d (U_lo + B0 q)^2 >= 5 n U_hi (U_hi + A1 q),
    U = u q^2; the right-hand denominator is positive on a valid box.
    """
    corners = tuple(as_fraction(v) for v in box)
    q = math.lcm(*(v.denominator for v in corners)) << max_depth
    lhs, rhs = 3 * floor.denominator, 5 * floor.numerator
    stack = [tuple(int(v * q) for v in corners) + (0,)]
    cells = 0
    deepest = 0
    while stack:
        a0, a1, b0, b1, depth = stack.pop()
        u_lo = (q - a1) ** 2 + b0 * b0
        u_hi = (q - a0) ** 2 + b1 * b1
        if lhs * (u_lo + b0 * q) ** 2 >= rhs * u_hi * (u_hi + a1 * q):
            cells += 1
            deepest = max(deepest, depth)
            continue
        if depth >= max_depth:
            a0, a1, b0, b1 = (Fraction(v, q) for v in (a0, a1, b0, b1))
            raise CellSubdivisionFailure(
                f"cell [{a0},{a1}] x [{b0},{b1}] resisted at depth {depth} "
                f"(floor {floor})"
            )
        # split the direction contributing most slack to u = (1-a)^2 + b^2
        if (b1 - b0) * (b0 + b1) >= (a1 - a0) * (2 * q - a0 - a1):
            mid = (b0 + b1) // 2
            stack.append((a0, a1, b0, mid, depth + 1))
            stack.append((a0, a1, mid, b1, depth + 1))
        else:
            mid = (a0 + a1) // 2
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
    if max_depth < 0:
        raise ValueError(f"max_depth must be nonnegative, got {max_depth}")
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
    return _item(
        check,
        "certificate",
        f"{name} <= 0 on (0, {dx}]: {len(cert.intervals)} interval(s), "
        f"depth {cert.depth}",
        *((c0, "<=", 0) for _, _, c0 in cert.intervals),
        holds=cert.ok,
    )


def _angle_window_item(detail: str) -> EvidenceItem:
    """arctan(1/3) lies below the cube of the Q_mgeq3 window's right end."""
    dx = _CERT_PLAN["Q_mgeq3"]
    _, hi13 = arctan_enclosure(Fraction(1, 3), 3)
    return _item(
        f"arctan(1/3) <= 391/1215 <= ({dx})^3",
        "exact-rational",
        detail,
        (hi13, "<=", Fraction(391, 1215)),
        (Fraction(391, 1215), "<=", dx**3),
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
        _item(
            f"the two derivative certificates tile (0, {top}] and "
            f"7/10 <= ({top})^3",
            "exact-rational",
            f"the first window reaches the re-centering point {shift}, so "
            "monotonicity of the angle map holds on (0, 7/10]",
            (shift, "<=", _CERT_PLAN["negP1prime_mono"]),
            (Fraction(7, 10), "<=", top**3),
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
    corner = _g_acute_1a(Fraction(1, 2), Fraction(29, 10))
    cert = certify_g_floor()
    ev = [
        _item(
            "band corner value g(1/2, 29/10) equals 501126/495785 and exceeds 1",
            "exact-rational",
            f"g = {corner}",
            (corner, "==", Fraction(501126, 495785)),
            (1, "<", corner),
        ),
        _item(
            "g >= 201/200 on [0,1/2] x [43/50,29/10] by exact cell subdivision",
            "exact-rational",
            f"{cert.cells} certified cells, max depth {cert.max_depth}",
            (1, "<", cert.floor),
        ),
        _item(
            "box floor 43/50 sits below sqrt(3)/2, so the box covers the band",
            "exact-rational",
            "compared as squares: (43/50)^2 = 1849/2500 <= 3/4",
            (Fraction(43, 50) ** 2, "<=", Fraction(3, 4)),
        ),
        _item(
            "denominator identity (a-1)^2 + b^2 + a = 1 - a + a^2 + b^2",
            "exact-rational",
            "exact grid evaluation at 3 x 3 rational nodes",
            holds=identity_vanishes(
                lambda a, b: (a - 1) ** 2 + b * b + a - (1 - a + a * a + b * b),
                (2, 2),
            ),
        ),
    ]
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
    lo18, _ = arctan_enclosure(Fraction(1, 8), 4)
    _, hi12 = arctan_enclosure(Fraction(1, 2), 6)
    _, shift = polycert.RECENTERED["P2_acute"]
    top = shift + _CERT_PLAN["P2_acute"]
    match, bad_deg = _display_matches_builder()
    ev = [
        _certificate_item(
            "P2_acute", "shifted band polynomial nonpositive on its window"
        ),
        _item(
            "arctan(1/8) >= 191/1536 > 12/100",
            "exact-rational",
            f"alternating partial sum gives arctan(1/8) >= {lo18}",
            (Fraction(191, 1536), "<=", lo18),
            (Fraction(12, 100), "<", Fraction(191, 1536)),
        ),
        _item(
            "arctan(1/2) < 464/1000",
            "exact-rational",
            f"alternating partial sum gives arctan(1/2) <= {hi12}",
            (hi12, "<", Fraction(464, 1000)),
        ),
        _item(
            f"cube-window arithmetic: 12/100 >= ({shift})^3 and 464/1000 <= "
            f"({top})^3, where {top} = {shift} + the P2_acute window",
            "exact-rational",
            "the substituted variable window lands inside the certified shift",
            (shift**3, "<=", Fraction(12, 100)),
            (Fraction(464, 1000), "<=", top**3),
        ),
        _item(
            "sparse displayed coefficients agree with the product-built enclosures",
            "exact-rational",
            "all 34 coefficient enclosures intersect"
            if match
            else f"degree {bad_deg} enclosures are disjoint",
            holds=match,
        ),
    ]
    notes = (
        "The window function multiplies the equal-area sector eigenvalue "
        "bound (with the algebraic Bessel-zero minorant) against the "
        "torsion test bound; its floor reduces to the certified polynomial "
        "after the cube substitution and right-shift by 49/100."
    )
    return _report("acute-1b", region, ev, notes)


def _replay_acute_2() -> CaseReport:
    region = "0 <= a <= 1/2, b >= 3 (acute chart, unit shortest side)"
    _, hi16 = arctan_enclosure(Fraction(1, 6), 4)
    dhat = (
        point(372)
        * enclose("zeta5", polycert._COEFF_EPS)
        / enclose("pi_pow_5", polycert._COEFF_EPS)
    )
    ev = _monotone_map_items(
        "negated derivative of the monotone-map polynomial nonpositive on its window",
        "negated derivative, re-centered, nonpositive on its window",
    ) + [
        _certificate_item(
            "Q_mgeq3", "tall-triangle comparison polynomial nonpositive on its window"
        ),
        _item(
            "angle window: 2 arctan(1/6) <= 1/3 < 7/10",
            "exact-rational",
            "the apex angle of every tall triangle here stays below 1/3",
            (2 * hi16, "<=", Fraction(1, 3)),
            (Fraction(1, 3), "<", Fraction(7, 10)),
        ),
        _angle_window_item(
            "the comparison certificate window covers the full angle range"
        ),
        _item(
            "372 zeta(5) / pi^5 <= 13/10 and (13/10)(34/100) < 1",
            "exact-rational",
            "the linearized tail factor stays positive on the angle window",
            (dhat.hi, "<=", Fraction(13, 10)),
            (Fraction(13, 10) * Fraction(34, 100), "<", 1),
        ),
    ]
    notes = (
        "The chain reduces a general tall triangle to the isosceles one by "
        "the altitude comparison and the certified monotone angle map, then "
        "lands on the comparison polynomial certificate."
    )
    return _report("acute-2", region, ev, notes)


def _replay_obtuse_1() -> CaseReport:
    region = "obtuse chart band between the lower root curve and b^2 <= a - a^2"
    p, q = Fraction(3, 2), Fraction(-1, 2)  # b = p + q sqrt(r)
    # b^2 = p^2 + q^2 r + 2pq sqrt(r), so the sqrt(r) part of the quadratic
    # 2b^2 - 6b + (2 - 5a + 5a^2) does not involve a
    roots = [(2 * (2 * p * q) - 6 * q, "==", 0)]
    for a in (Fraction(0), Fraction(1, 7), Fraction(2, 7), Fraction(3, 7)):
        r = 5 + 10 * a - 10 * a * a
        rat = 2 * (p * p + q * q * r) - 6 * p + (2 - 5 * a + 5 * a * a)
        roots.append((rat, "==", 0))
    ev = [
        _item(
            "the band's lower curve is an exact root of the ratio quadratic",
            "exact-rational",
            "evaluated in Q[sqrt(r)] at four rational nodes, degree cap 2",
            *roots,
        ),
        _item(
            "quadratic expansion identity: 3(1+b)^2 - 5(1-a+a^2+b^2) "
            "= -(2b^2 - 6b + 2 - 5a + 5a^2)",
            "exact-rational",
            "so the ratio clears 1 exactly between the quadratic's roots",
            holds=identity_vanishes(
                lambda a, b: 3 * (1 + b) ** 2
                - 5 * (1 - a + a * a + b * b)
                + (2 * b * b - 6 * b + 2 - 5 * a + 5 * a * a),
                (2, 2),
            ),
        ),
        _item(
            "the band stays below the upper root: 1/4 - (a - a^2) = (a - 1/2)^2",
            "exact-rational",
            "so b^2 <= a - a^2 <= 1/4 forces b <= 1/2 < 3/2 <= (3 + sqrt(r))/2",
            (Fraction(1, 2), "<", Fraction(3, 2)),
            holds=identity_vanishes(
                lambda a: Fraction(1, 4) - (a - a * a) - (a - Fraction(1, 2)) ** 2,
                (2,),
            ),
        ),
    ]
    notes = (
        "Between the two roots the ratio quadratic is nonpositive, so the "
        "assembled lower bound clears pi^2/24 on the whole band; both root "
        "comparisons are exact in the quadratic field."
    )
    return _report("obtuse-1", region, ev, notes)


def _replay_obtuse_2() -> CaseReport:
    region = "obtuse chart, 0 < b <= 2a(1-a)/(1-a+a^2)"
    ev = [
        _item(
            "factorization identity a(1-a)(1+b)^2 - (a-a^2+b^2) "
            "= b(2a(1-a) - b(1-a+a^2))",
            "exact-rational",
            "exact grid evaluation at 3 x 3 rational nodes",
            holds=identity_vanishes(
                lambda a, b: a * (1 - a) * (1 + b) ** 2
                - (a - a * a + b * b)
                - b * (2 * a * (1 - a) - b * (1 - a * (1 - a))),
                (2, 2),
            ),
        ),
        _item(
            "the region's curve divisor is positive: 1 - a + a^2 = (a - 1/2)^2 + 3/4",
            "exact-rational",
            "so b(1-a+a^2) <= 2a(1-a) and b >= 0 make the factored form >= 0, "
            "and the ratio >= 1, on the whole region",
            (0, "<", Fraction(3, 4)),
            holds=identity_vanishes(
                lambda a: 1 - a + a * a - (a - Fraction(1, 2)) ** 2 - Fraction(3, 4),
                (2,),
            ),
        ),
        _item(
            "the chart keeps the base the diameter: both slant sides stay "
            "inside the unit circle",
            "exact-rational",
            "N^2 - (1-a) = b^2 - (a - a^2) <= 0 exactly on b^2 <= a - a^2",
            holds=identity_vanishes(
                lambda a, b: ((1 - a) ** 2 + b * b) - (1 - a) - (b * b - a + a * a),
                (2, 2),
            ),
        ),
    ]
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
    # 760 - 240 sqrt(10) >= 1 compares as squares: 759^2 >= 240^2 * 10, and
    # then 759 - 240 sqrt(10) = gap / (759 + 240 sqrt(10)) >= gap / (2 * 759)
    gap = 759**2 - 240**2 * 10
    ev = [
        _item(
            "x_b >= 3 exactly when b <= 3/10: quadratic difference identity",
            "exact-rational",
            "(1/4 - b^2) - (3b - 1/2)^2 = b(3 - 10b); equality at b = 3/10 "
            "gives x_b = 3 with a_b = 1/10 rational",
            holds=identity_vanishes(
                lambda b: (Fraction(1, 4) - b * b)
                - (3 * b - Fraction(1, 2)) ** 2
                - b * (3 - 10 * b),
                (2,),
            )
            and xb_ge_3_exact(Fraction(3, 10))
            and xb_ge_3_exact(Fraction(1, 4)),
        ),
        _certificate_item(
            "Q_mgeq3", "comparison polynomial certificate reused for the base angle map"
        ),
        _angle_window_item("x_b >= 3 keeps beta_b inside the certified window"),
        *_monotone_map_items(
            "monotone angle map certificate, first tile",
            "monotone angle map certificate, second tile",
        ),
        _item(
            "base angle windows: tan(beta) <= 3/5, hence beta <= arctan(3/5) "
            "<= 3/5 < 7/10 and beta <= pi/4",
            "exact-rational",
            "b <= 3/10 and 1 - a >= 1/2 bound the tangent; arctan x <= x; "
            "tangent at most 1 keeps the angle at or below pi/4",
            (Fraction(3, 10) / Fraction(1, 2), "==", Fraction(3, 5)),
            (Fraction(3, 5), "<", Fraction(7, 10)),
            (Fraction(3, 5), "<=", 1),
        ),
        _item(
            "sector prefactor simplifies to 4/(1+w)^2 with w = sqrt((1+s)/2) "
            "and is >= 1 on the region",
            "exact-rational",
            "denominator identity 2(2w^2+2w)^2 = 8w^2(w+1)^2 is exact; "
            "w <= 1 since s = sqrt(1-4b^2) <= 1; at b = 3/10 the exact "
            "value 760 - 240 sqrt(10) still exceeds 1, compared as squares: "
            f"759^2 - 240^2 * 10 = {gap}",
            (1, "<=", 1 + Fraction(gap, 2 * 759)),
            holds=identity_vanishes(
                lambda w: 2 * (2 * w * w + 2 * w) ** 2 - 8 * w * w * (w + 1) ** 2,
                (4,),
            ),
        ),
        _item(
            "the sector of the base angle fits: with P = (a, b), V = (1, 0), "
            "O = (0, 0), (P - V).(O - P) = a - a^2 - b^2",
            "exact-rational",
            "the dot product is >= 0 on b^2 <= a - a^2, so the distance to V "
            "grows from N = |P - V| along the side from P to O; that side "
            "stays outside the open radius-N disc about V, and the radius-N "
            "sector at V lies in the triangle",
            holds=identity_vanishes(
                lambda a, b: (a - 1) * (-a) + b * (-b) - (a - a * a - b * b),
                (2, 2),
            ),
        ),
    ]
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
    tor_ratio = Fraction(1, 320) * 9 / Fraction(3, 64)
    tris = _sample_triangles()
    eig, tor, cap = [], [], []
    for tri in tris:
        data = geometry.derive(tri)
        res = pde_oracle.spectral(tri, max_level=5)
        chain = bounds.upper_chain(
            {"lambda1": res.lambda1, "T": res.T, "area": data.area, "P": data.P},
            "triangle",
        ).details
        eig.append((chain["factor_eig"], "<=", chain["cap_eig"] * (1.0 + 2e-3)))
        tor.append((chain["factor_tor"], "<", chain["cap_tor"]))
        cap.append((res.F, "<=", 2.0 * PI_SQ / 27.0 + 1e-3))
    ev = [
        _item(
            "equilateral saturates the eigenvalue cap: lambda |D|^2 / P^2 "
            "= pi^2/9 exactly",
            "exact-rational",
            "(16/3)(3/16)/9 = 1/9 after the pi^2 factor cancels",
            (Fraction(16, 3) * Fraction(3, 16) / 9, "==", Fraction(1, 9)),
        ),
        _item(
            "equilateral torsion factor T P^2 / |D|^3 equals 3/5 < 2/3",
            "exact-rational",
            "sqrt(3) cancels between T = sqrt(3)/320 and |D|^3 = 3 sqrt(3)/64",
            (tor_ratio, "==", Fraction(3, 5)),
            (tor_ratio, "<", Fraction(2, 3)),
        ),
        _item(
            "cap product identity: (1/9)(2/3) = 2/27 and the equilateral "
            "value (1/9)(3/5) = 1/15",
            "exact-rational",
            "so the functional tops out at 2 pi^2/27, with pi^2/15 at the "
            "equilateral",
            (Fraction(1, 9) * Fraction(2, 3), "==", Fraction(2, 27)),
            (Fraction(1, 9) * Fraction(3, 5), "==", Fraction(1, 15)),
            (Fraction(1, 15), "<", Fraction(2, 27)),
        ),
        _item(
            f"oracle eigenvalue factor stays at or below pi^2/9 "
            f"(2e-3 discretization allowance) on {len(tris)} triangles",
            "oracle",
            "conforming elements approach the cap from above at the "
            "equilateral corner",
            *eig,
        ),
        _item(
            f"oracle torsion factor stays strictly below 2/3 on "
            f"{len(tris)} triangles",
            "oracle",
            "the factor tends to 2/3 only in the degenerate thin limit",
            *tor,
        ),
        _item(
            "oracle functional stays below 2 pi^2/27 + 1e-3 on the sample",
            "oracle",
            "product of the two capped factors",
            *cap,
        ),
    ]
    return _report("upper-triangle", region, ev)


def _replay_upper_tangential() -> CaseReport:
    region = "tangential domains; among rectangles, exactly the squares"
    sq = Rectangle(0.5, 0.5)
    tor = closed_forms.rect_torsion(sq, n_terms=64)
    factor_tor = (tor.value + tor.tail_bound) * 16.0
    f_series = closed_forms.rect_F(Rectangle(1.0, 1.0), n_terms=64)
    res = pde_oracle.spectral(sq, max_level=6)
    ev = [
        _item(
            "cap product identity: (1/8)(2/3) = 1/12",
            "exact-rational",
            "so tangential domains keep the functional below pi^2/12",
            (Fraction(1, 8) * Fraction(2, 3), "==", Fraction(1, 12)),
        ),
        _item(
            "square torsion factor T P^2 / |D|^3 < 2/3 by series with tail",
            "grid+modulus",
            f"series value {tor.value:.9g}, tail {tor.tail_bound:.3g}, "
            f"factor {factor_tor:.9g}",
            (factor_tor, "<", 2.0 / 3.0),
        ),
        _item(
            "square functional by series stays below pi^2/12",
            "grid+modulus",
            f"series value {f_series.value:.9g} with tail "
            f"{f_series.tail_bound:.3g}",
            (f_series.value + f_series.tail_bound, "<", F_UPPER_LIMIT),
        ),
        _item(
            "oracle square functional agrees with the series to 1e-3",
            "oracle",
            f"oracle {res.F:.9g} vs series {f_series.value:.9g}",
            (abs(res.F - f_series.value), "<=", 1e-3),
        ),
    ]
    notes = (
        "Rectangles other than squares have no inscribed circle touching "
        "all four sides, and the mesh families cover no other tangential "
        "polygons, so the numeric leg samples squares; the analytic leg is "
        "the cap composition itself."
    )
    return _report("upper-tangential", region, ev, notes)


def _replay_rect_monotone() -> CaseReport:
    region = "rectangles (-a, a) x (-1, 1), aspect a >= 1"

    def deriv_num_residual(alpha, beta, x):
        g_first = 2 * x * (alpha + beta * x * x) - (1 + x * x) * 2 * beta * x
        g_second = 2 * x * (beta + alpha * x * x) - (1 + x * x) * 2 * alpha * x
        direct = (
            g_first * (beta + alpha * x * x) ** 2
            + g_second * (alpha + beta * x * x) ** 2
        )
        display = 2 * (alpha - beta) ** 2 * (alpha + beta) * x * (x**4 - 1)
        return direct - display

    scan = rect_monotonicity_scan()
    p6 = enclose("pi_pow_2", polycert._COEFF_EPS).power(3)
    ev = [
        _item(
            "termwise derivative numerator equals "
            "2 (alpha-beta)^2 (alpha+beta) x (x^4 - 1) identically",
            "exact-rational",
            "exact grid evaluation with 4 x 4 x 8 rational nodes",
            holds=identity_vanishes(deriv_num_residual, (3, 3, 7)),
        ),
        _item(
            "index factor identity: alpha - beta factors as "
            "(2n+1)^2 (2m+1)^2 ((2n+1)^2 - (2m+1)^2), positive for n > m",
            "exact-rational",
            "so every paired series term is nondecreasing in the aspect "
            "ratio at or past 1",
            holds=identity_vanishes(
                lambda n, m: (2 * n + 1) ** 4 * (2 * m + 1) ** 2
                - (2 * m + 1) ** 4 * (2 * n + 1) ** 2
                - (2 * n + 1) ** 2
                * (2 * m + 1) ** 2
                * ((2 * n + 1) ** 2 - (2 * m + 1) ** 2),
                (6, 6),
            ),
        ),
        _item(
            "series values along the aspect grid are nondecreasing "
            "within twice the series tail bounds",
            "grid+modulus",
            f"grid {scan['a_values'][0]}..{scan['a_values'][-1]}, "
            f"{len(scan['a_values'])} points, max tail "
            f"{max(scan['tails']):.3g}",
            (0.0, "<=", scan["min_increment_with_slack"]),
        ),
        _item(
            "the square value is the minimum of the scanned family",
            "grid+modulus",
            f"square value {scan['F_values'][0]:.9g}",
            (0.0, "<=", scan["min_above_square"]),
        ),
        _item(
            "floor constant: 64/pi^4 >= pi^2/24, since 64 * 24 >= pi^6",
            "exact-rational",
            "pi^6 enclosed rationally below 1536",
            (p6.hi, "<=", 1536),
        ),
        _item(
            "slab limit constants: 64 (1/8) (1/96) = 1/12",
            "exact-rational",
            "the three Fourier factors compose to the strip value pi^2/12",
            (Fraction(64, 1) * Fraction(1, 8) * Fraction(1, 96), "==", Fraction(1, 12)),
        ),
    ]
    notes = (
        "The leading series term alone gives 64/pi^4 as a floor; "
        "monotonicity follows termwise from the exact derivative identity."
    )
    return _report("rect-monotone", region, ev, notes)


def _replay_sharpness_thinning() -> CaseReport:
    region = "isosceles triangles of height b over a unit base, b -> 0"
    rows = []
    for b in (0.2, 0.1, 0.05):
        res = pde_oracle.spectral(Triangle(0.5, b), max_level=7)
        data = geometry.derive(Triangle(0.5, b))
        rows.append((b, res.F, bounds.thinning_upper(data.area, data.P).value))
    caps = [
        bounds.thinning_upper(t / 2.0, 1.0 + 2.0 * math.hypot(0.5, t)).value
        for t in (1e-1, 1e-2, 1e-3, 1e-4)
    ]
    ev = [
        _item(
            "oracle functional decreases along b = 0.2, 0.1, 0.05",
            "oracle",
            ", ".join(f"F({b}) = {f:.6g}" for b, f, _ in rows),
            *((nxt[1], "<", cur[1]) for cur, nxt in zip(rows, rows[1:])),
        ),
        _item(
            "each value stays strictly above pi^2/24",
            "oracle",
            "the floor is approached but never attained",
            *((F_LOWER_LIMIT, "<", f) for _, f, _ in rows),
        ),
        _item(
            "each value sits below the thinning upper bound",
            "oracle",
            "bound (pi^2/24)(1 + 2 sqrt(pi area)/P)^2 per triangle",
            *((f, "<", cap) for _, f, cap in rows),
        ),
        _item(
            "the thinning bound itself decreases to pi^2/24 as b -> 0",
            "grid+modulus",
            f"bound at b = 1e-4 is {caps[-1]:.9g} vs limit "
            f"{F_LOWER_LIMIT:.9g}",
            *((c_next, "<", c) for c, c_next in zip(caps, caps[1:])),
            (caps[-1] - F_LOWER_LIMIT, "<", 0.02),
        ),
    ]
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

REPLAY_IDS = tuple(_REPLAYS)


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
    Raises ValueError, before any solve, for an unknown grid key, for
    non-finite or degenerate heights, for a grid that holds no chart
    triangle and for a max_level outside [2, pde_oracle.MAX_LEVEL].
    """
    cfg = {"na": 60, "nb": 60, "b_min": 0.02, "b_max": math.sqrt(3.0) / 2.0}
    unknown = sorted(set(grid or ()) - set(cfg))
    if unknown:
        raise ValueError(f"unknown grid keys {unknown}; the keys are {sorted(cfg)}")
    cfg.update(grid or {})
    if not (math.isfinite(cfg["b_min"]) and math.isfinite(cfg["b_max"])):
        raise ValueError(
            f"b_min and b_max must be finite, got {cfg['b_min']} and {cfg['b_max']}"
        )
    if cfg["b_min"] < 1e-3:
        raise ValueError(f"b_min below 1e-3 is degenerate, got {cfg['b_min']}")
    if not 2 <= max_level <= pde_oracle.MAX_LEVEL:
        raise ValueError(
            f"max_level must lie in [2, {pde_oracle.MAX_LEVEL}], got {max_level}"
        )
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

    The series values are nondecreasing within twice their tail bounds when
    ``min_increment_with_slack`` >= 0, and the square starts the family at
    its minimum when ``min_above_square`` >= 0; ``all_above_floor`` is the
    floor check F >= 64/pi^4.  The relative gap to the strip limit pi^2/12
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
        "min_increment_with_slack": min(increments) if increments else 0.0,
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

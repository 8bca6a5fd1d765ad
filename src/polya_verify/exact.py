"""Exact verdicts: the six analytic case replays and the certificate plan.

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

This module builds every exact-rational and certificate item of the six
analytic cases, and ``_item`` refuses a float operand on such an item.
Its import closure (polycert, constants, closed_forms, geometry) loads
nothing outside the standard library: tests/test_acceptance.py replays the
cases in a process that refuses the numeric packages.  The oracle-backed
replays live in harness.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

# enclose is called through its module, so that a rebinding of constants.enclose
# (perfbench's tracer counts its calls there) sees every call
from . import constants, polycert
from .constants import arctan_recip, as_fraction, point

Number = Union[int, float, Fraction]

METHODS = ("exact-rational", "certificate", "grid+modulus", "oracle")


class OutOfRegion(ValueError):
    """The input lies outside the region where an exact test applies."""


class CellSubdivisionFailure(RuntimeError):
    """Adaptive cell subdivision hit its depth cap before certifying."""


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
        return asdict(self)


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
# Exact helpers, and the acute band ratio bound that the survey also reports
# ---------------------------------------------------------------------------


def identity_vanishes(fn: Callable[..., Fraction], degrees: Sequence[int]) -> bool:
    """Exact zero test for a polynomial map given per-variable degree caps.

    Evaluates fn on a rational grid with (degree + 1) nodes per variable;
    a polynomial of at most those degrees vanishing on the grid is zero.
    """
    grids = [
        [Fraction(i + 1, deg + 2) for i in range(deg + 1)] for deg in degrees
    ]
    return all(fn(*pt) == 0 for pt in itertools.product(*grids))


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
    hi13 = arctan_recip(3, 4).hi
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
    t13 = constants.enclose("two_pow_1_3", polycert._COEFF_EPS)
    p23 = constants.enclose("pi_pow_2_3", polycert._COEFF_EPS)
    p43 = constants.enclose("pi_pow_4_3", polycert._COEFF_EPS)
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
    lo18 = arctan_recip(8, 4).lo
    hi12 = arctan_recip(2, 6).hi
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
    hi16 = arctan_recip(6, 4).hi
    dhat = (
        point(372)
        * constants.enclose("zeta5", polycert._COEFF_EPS)
        / constants.enclose("pi_pow_5", polycert._COEFF_EPS)
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


# the six analytic cases in declaration order
REPLAYS = {
    "acute-1a": _replay_acute_1a,
    "acute-1b": _replay_acute_1b,
    "acute-2": _replay_acute_2,
    "obtuse-1": _replay_obtuse_1,
    "obtuse-2": _replay_obtuse_2,
    "obtuse-3": _replay_obtuse_3,
}

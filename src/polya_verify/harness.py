"""Oracle-backed replays, surveys and scans for the shape functional.

The central quantity is F(D) = lambda_1(D) * T(D) / |D|: the first
Dirichlet eigenvalue times the torsional rigidity over the area.  This
module replays the four cases that lean on series or the finite element
oracle, lists them after the six analytic cases of ``exact`` (where the
evidence items, their methods and the verdicts are described), and surveys
triangle and rectangle families against the oracle.
"""

from __future__ import annotations

import concurrent.futures
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from . import bounds, closed_forms, exact, geometry, pde_oracle, polycert
from .constants import C1, K, enclose, point
from .exact import (  # certify_all and the evidence types are also reached here
    CaseReport,
    EvidenceItem,
    Number,
    _g_acute_1a,
    _item,
    _report,
    certify_all,
    identity_vanishes,
)
from .geometry import Rectangle, Triangle

PI = math.pi
PI_SQ = math.pi**2
F_LOWER_LIMIT = PI_SQ / 24.0
F_UPPER_LIMIT = PI_SQ / 12.0

_ZETA5 = float(enclose("zeta5", Fraction(1, 10**15)).midpoint)


class UnknownCase(KeyError):
    """No replayed case carries the requested name."""


# ---------------------------------------------------------------------------
# Case formulas: the float ratio bounds that the survey reports
# ---------------------------------------------------------------------------


def _tan_lower(x: Number) -> Number:
    """Minorant x + x^3/3 + 2x^5/15 of tan x on (0, pi/2), for a float or a
    Fraction; the integer constants keep a Fraction exact."""
    return x + x**3 / 3 + 2 * x**5 / 15


def _tan_upper(x: Number) -> Number:
    """Majorant x + x^3/3 + 2x^5/5 of tan x on (0, 1), as ``_tan_lower``."""
    return x + x**3 / 3 + 2 * x**5 / 5


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
    **exact.REPLAYS,
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

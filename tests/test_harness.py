"""Replay harness: case formulas, certificates, replays, sweeps, CLI."""

import json
import math
from fractions import Fraction

import pytest

import oracle_outputs
from polya_verify import (
    bounds,
    cli,
    closed_forms,
    constants,
    exact,
    geometry,
    harness,
    pde_oracle,
    polycert,
)
from polya_verify.constants import arctan_recip
from polya_verify.exact import (
    CellSubdivisionFailure,
    EvidenceItem,
    OutOfRegion,
    certify_all,
    certify_g_floor,
    identity_vanishes,
    xb_ge_3_exact,
)
from polya_verify.harness import (
    UnknownCase,
    _tan_lower,
    _tan_upper,
    g_remark_check,
    rect_monotonicity_scan,
    replay_case,
    sweep_triangles,
)

PI2_24 = math.pi**2 / 24.0


# ---------------------------------------------------------------------------
# Exact helpers
# ---------------------------------------------------------------------------


def test_arctan_enclosure_brackets_and_contracts():
    for m in (8, 3, 2, 1):
        iv = arctan_recip(m, 6)
        assert iv.lo < iv.hi
        assert float(iv.lo) <= math.atan(1.0 / m) <= float(iv.hi)
        assert arctan_recip(m, 12).width < iv.width
    # the bracket is the pair of partial sums S_3 and S_4 of the series
    s3 = Fraction(1, 8) - Fraction(1, 3 * 8**3) + Fraction(1, 5 * 8**5)
    assert arctan_recip(8, 4) == constants.RationalInterval(s3 - Fraction(1, 7 * 8**7), s3)
    with pytest.raises(ValueError):
        arctan_recip(0, 4)


def test_tan_brackets_on_the_unit_interval():
    assert _tan_lower(Fraction(7, 10)) == Fraction(627557, 750000)
    for k in range(1, 10):
        x = Fraction(k, 10)
        assert float(_tan_lower(x)) <= math.tan(float(x))
        assert math.tan(float(x)) <= float(_tan_upper(x))


def test_zeta5_float_is_the_midpoint_of_the_narrow_enclosure():
    # the case formulas read this float; a wider enclosure moves its midpoint
    assert harness._ZETA5 == float(constants.enclose("zeta5", Fraction(1, 10**15)).midpoint)
    assert harness._ZETA5 == pytest.approx(1.0369277551433699, rel=1e-15)


def test_identity_vanishes_separates_zero_from_nonzero():
    assert identity_vanishes(lambda x, y: x * y - y * x, degrees=(2, 2))
    assert identity_vanishes(
        lambda x: (x + 1) ** 2 - x * x - 2 * x - 1, degrees=(2,)
    )
    assert not identity_vanishes(lambda x: x - Fraction(1, 7), degrees=(1,))


def test_xb_threshold_is_exactly_three_tenths():
    assert xb_ge_3_exact(Fraction(3, 10))
    assert xb_ge_3_exact(Fraction(1, 8))
    assert xb_ge_3_exact(Fraction(1, 6))
    assert not xb_ge_3_exact(Fraction(31, 100))
    with pytest.raises(OutOfRegion):
        xb_ge_3_exact(Fraction(3, 5))


# ---------------------------------------------------------------------------
# Case formulas
# ---------------------------------------------------------------------------


def _h_mgeq3(x):
    """The tall-isosceles ratio bound in the apex half-angle x = arctan(1/b)."""
    c = float(constants.C1) / (2.0 ** (1.0 / 3.0) * math.pi ** (2.0 / 3.0))
    return (
        3.0
        * math.cos(x / 2.0) ** 4
        / (x * math.tan(x) ** 2)
        * (1.0 + c * x ** (2.0 / 3.0)) ** 2
        * (math.tan(x) - x - 124.0 * harness._ZETA5 * x**4 / math.pi**5)
    )


def _f_obtuse_1(a, b):
    return 0.6 * (1 + b) ** 2 / (1 - a + a * a + b * b)


def _f_obtuse_2(a, b):
    return a * (1 - a) * (1 + b) ** 2 / (a - a * a + b * b)


def test_band_function_exact_values():
    assert exact._g_acute_1a(Fraction(0), Fraction(1)) == Fraction(27, 20)
    corner = exact._g_acute_1a(Fraction(1, 2), Fraction(29, 10))
    assert corner == Fraction(501126, 495785)
    as_float = exact._g_acute_1a(0.5, 2.9)
    assert as_float == pytest.approx(float(corner), rel=1e-12)


def test_tall_isosceles_function_matches_its_angle_form():
    assert harness._f_mgeq3(3.0) == pytest.approx(1.1153192733722042, rel=1e-12)
    for b in (3.0, 3.732, 5.0, 10.0):
        f = harness._f_mgeq3(b)
        h = _h_mgeq3(math.atan(1.0 / b))
        assert f == pytest.approx(h, rel=1e-12)


def test_case_functions_assemble_the_lower_bound_product():
    # each case scalar times pi^2/24 equals eigenvalue bound times torsion
    # bound over area for the matching chart
    for a, b in [(0.1, 1.2), (0.3, 0.95), (0.5, 2.0)]:
        g = float(exact._g_acute_1a(a, b))
        n = math.hypot(1.0 - a, b)
        rhs = (
            bounds.eig_lb_diameter_height(n, b / n).value
            * bounds.torsion_lb_equilateral_test(a, b).value
            / (b / 2.0)
        )
        assert PI2_24 * g == pytest.approx(rhs, rel=1e-10)
    for a, b in [(0.2, 0.35), (0.3, 0.4)]:
        f1 = _f_obtuse_1(a, b)
        rhs = (
            bounds.eig_lb_diameter_height(1.0, b).value
            * bounds.torsion_lb_equilateral_test(a, b).value
            / (b / 2.0)
        )
        assert PI2_24 * f1 == pytest.approx(rhs, rel=1e-10)
    for a, b in [(0.1, 0.15), (0.125, 0.2)]:
        f2 = _f_obtuse_2(a, b)
        rhs = (
            bounds.eig_lb_diameter_height(1.0, b).value
            * bounds.torsion_lb_obtuse_test(a, b).value
            / (b / 2.0)
        )
        assert PI2_24 * f2 == pytest.approx(rhs, rel=1e-10)


def test_survey_reports_each_acute_formula_exactly_inside_its_window():
    # in the chart with unit shortest side, the 12x5 grid's acute rows run
    # from below b = 1/(2 tan 0.464) to above b = 1/(2 tan 0.12), so they
    # cross both x edges of the band f, the b = 2.9 edge of the band g and
    # the b = 3 edge of the tall f; no acute row lies below b = 0.86
    rows = sweep_triangles(grid={"na": 12, "nb": 5}, max_level=4)
    acute_b = []
    for row in rows:
        sw = geometry.chart_swap(geometry.Triangle(row.a, row.b))
        acute = -1e-12 <= sw.a <= 0.5 + 1e-12
        if acute:
            acute_b.append(sw.b)
        x = math.atan(1.0 / (2.0 * sw.b))
        windows = {
            "band-g": acute and 0 <= sw.a and 0.86 - 1e-12 <= sw.b <= 2.9 + 1e-12,
            "band-f": acute and 0.12 - 1e-12 <= x <= 0.464 + 1e-12,
            "tall-f": acute and sw.b >= 3.0 - 1e-12,
        }
        for key, inside in windows.items():
            assert (f"lower:acute-{key}" in row.bound_gaps) == inside, (key, sw)
    assert len(acute_b) < len(rows)
    assert min(acute_b) < 1.0 / (2.0 * math.tan(0.464))
    assert max(acute_b) > 1.0 / (2.0 * math.tan(0.12))


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


def test_band_floor_certificate_succeeds():
    cert = certify_g_floor()
    assert cert.floor == Fraction(201, 200)
    assert cert.cells >= 1
    assert cert.max_depth <= 18


def test_band_floor_above_the_minimum_fails():
    # the true corner minimum is 501126/495785 < 51/50, so no depth suffices
    with pytest.raises(CellSubdivisionFailure):
        certify_g_floor(floor=Fraction(51, 50), max_depth=6)


def _fraction_g_floor(floor, box, max_depth):
    """The cell loop in Fraction arithmetic: (cells, deepest depth), or the
    message of the failure it stops at."""
    stack = [tuple(box) + (0,)]
    cells = deepest = 0
    while stack:
        a0, a1, b0, b1, depth = stack.pop()
        u_lo = (1 - a1) ** 2 + b0 * b0
        u_hi = (1 - a0) ** 2 + b1 * b1
        if Fraction(3, 5) * (u_lo + b0) ** 2 / (u_hi * (u_hi + a1)) >= floor:
            cells += 1
            deepest = max(deepest, depth)
            continue
        if depth >= max_depth:
            return (
                f"cell [{a0},{a1}] x [{b0},{b1}] resisted at depth {depth} "
                f"(floor {floor})"
            )
        if (b1 - b0) * (b0 + b1) >= (a1 - a0) * (2 - a0 - a1):
            mid = (b0 + b1) / 2
            stack += [(a0, a1, b0, mid, depth + 1), (a0, a1, mid, b1, depth + 1)]
        else:
            mid = (a0 + a1) / 2
            stack += [(a0, mid, b0, b1, depth + 1), (mid, a1, b0, b1, depth + 1)]
    return cells, deepest


BAND = (Fraction(0), Fraction(1, 2), Fraction(43, 50), Fraction(29, 10))


@pytest.mark.parametrize(
    "floor, box, max_depth",
    [
        (Fraction(201, 200), BAND, 18),
        (Fraction(201, 200), (Fraction(0), Fraction(1, 4), Fraction(43, 50), Fraction(3, 2)), 18),
        # non-dyadic corners, and cells certified at the depth cap itself
        (Fraction(1), (Fraction(1, 3), Fraction(1, 2), Fraction(7, 6), Fraction(29, 10)), 12),
        (Fraction(51, 50), BAND, 6),
    ],
    ids=["band", "left-low", "right-high", "floor-51/50"],
)
def test_integer_cell_loop_matches_the_fraction_loop(floor, box, max_depth):
    want = _fraction_g_floor(floor, box, max_depth)
    if isinstance(want, str):
        with pytest.raises(CellSubdivisionFailure) as exc:
            certify_g_floor(floor=floor, box=box, max_depth=max_depth)
        assert str(exc.value) == want
    else:
        cert = certify_g_floor(floor=floor, box=box, max_depth=max_depth)
        assert (cert.cells, cert.max_depth) == want


@pytest.mark.parametrize(
    "box",
    [
        (1, Fraction(6, 5), Fraction(1, 100), Fraction(1, 50)),
        (Fraction(-1, 10), Fraction(1, 2), Fraction(43, 50), Fraction(29, 10)),
        (Fraction(1, 2), Fraction(1, 2), Fraction(43, 50), Fraction(29, 10)),
        (0, Fraction(1, 2), 0, Fraction(29, 10)),
    ],
    ids=["a-past-1", "a-negative", "a-empty", "b-from-0"],
)
def test_band_floor_rejects_a_box_outside_its_corner_bound(box):
    # on [1, 6/5] x [1/100, 1/50], (1-a)^2 grows with a, so the corner
    # bound is no bound: it would certify g >= 1 where g(6/5, 1/100) ~ 0.03
    assert exact._g_acute_1a(Fraction(6, 5), Fraction(1, 100)) < Fraction(1, 30)
    with pytest.raises(ValueError, match="0 <= a0 < a1 <= 1"):
        certify_g_floor(floor=1, box=box)


def test_polynomial_certificate_plan_all_hold():
    results = certify_all()
    assert len(results) == 4
    assert all(r["ok"] for r in results)
    assert {r["lemma"] for r in results} == {
        "P2_acute",
        "negP1prime_mono",
        "negP1prime_mono_shifted",
        "Q_mgeq3",
    }


def test_evidence_item_rejects_unknown_methods():
    with pytest.raises(ValueError):
        EvidenceItem(check="x", method="vibes", margin=0.0)


def test_item_derives_pass_flag_and_margin_from_its_comparisons():
    method = "exact-rational"
    tight = exact._item("x", method, "", (Fraction(1, 3), "<", Fraction(1, 3)))
    assert not tight.passed and tight.margin == 0.0
    loose = exact._item("x", method, "", (Fraction(1, 3), "<=", Fraction(1, 3)))
    assert loose.passed and loose.margin == 0.0
    # "==" adds no slack: the margin is the inequality's
    mixed = exact._item("x", method, "", (2, "==", 2), (Fraction(1, 4), "<", 1))
    assert mixed.passed and mixed.margin == 0.75
    # the smallest slack counts, and a failing comparison makes it negative
    worst = exact._item("x", method, "", (0, "<", 5), (3, "<=", Fraction(5, 2)))
    assert not worst.passed and worst.margin == -0.5
    identity = exact._item("x", method, "", (1, "==", 1))
    assert identity.passed and identity.margin == 0.0
    assert not exact._item("x", method, "", holds=False).passed
    assert not exact._item("x", method, "", (1, "==", 2)).passed


@pytest.mark.parametrize("method", ["exact-rational", "certificate"])
def test_exact_items_refuse_float_operands(method):
    for comparison in ((0.5, "<", 1), (Fraction(1, 2), "<=", 1.0), (0.5, "==", 0.5)):
        with pytest.raises(TypeError, match="float operand"):
            exact._item("x", method, "", (0, "<", 1), comparison)
    # numeric methods keep taking floats
    for numeric in ("grid+modulus", "oracle"):
        item = exact._item("x", numeric, "", (0.25, "<", 1), (Fraction(1, 2), "<=", 1.0))
        assert item.passed and item.margin == 0.5


# ---------------------------------------------------------------------------
# Replays
# ---------------------------------------------------------------------------

ANALYTIC_CASES = (
    "acute-1a",
    "acute-1b",
    "acute-2",
    "obtuse-1",
    "obtuse-2",
    "obtuse-3",
)


@pytest.mark.parametrize("case_id", ANALYTIC_CASES)
def test_analytic_replays_verify_without_numerics(case_id):
    report = replay_case(case_id)
    assert report.verdict == "Verified"
    assert report.case_id == case_id
    assert len(report.evidence) >= 3
    methods = {item.method for item in report.evidence}
    assert methods <= {"exact-rational", "certificate"}
    assert all(item.passed for item in report.evidence)
    assert all(item.margin >= 0 for item in report.evidence)
    json.dumps(report.to_json_dict())  # must serialize cleanly


def test_analytic_pass_builds_each_lemma_once(monkeypatch):
    # the five lemmas are built once per process and shared by every
    # replay and by certify_all; each certificate is still a fresh run
    calls = {"product": 0, "certify": 0}
    product = polycert._monotone_product_intervals
    certify = polycert.certify_nonpositive

    def counting_product():
        calls["product"] += 1
        return product()

    def counting_certify(*args, **kwargs):
        calls["certify"] += 1
        return certify(*args, **kwargs)

    monkeypatch.setattr(polycert, "_monotone_product_intervals", counting_product)
    monkeypatch.setattr(polycert, "certify_nonpositive", counting_certify)
    polycert._lemma.cache_clear()
    for case_id in ANALYTIC_CASES:
        assert replay_case(case_id).verdict == "Verified"
    certify_all()
    assert polycert._lemma.cache_info().misses == 5
    assert calls == {"product": 1, "certify": 11}


def test_acute_2_tail_factor_margin_does_not_depend_on_the_cache():
    # the lemma builders enclose the same constants first; the item's
    # enclosures, and so its margin, must not depend on that
    check = "372 zeta(5) / pi^5 <= 13/10 and (13/10)(34/100) < 1"

    def margin():
        (item,) = [i for i in replay_case("acute-2").evidence if i.check == check]
        return item.margin

    constants._enclosure.cache_clear()
    polycert._lemma.cache_clear()
    cold = margin()
    constants._enclosure.cache_clear()
    assert margin() == cold


def test_replay_windows_come_from_the_certificate_plan(monkeypatch):
    # (600/1000)^3 = 0.216 < 391/1215, an upper bound of arctan(1/3): the
    # narrowed Q_mgeq3 window no longer covers the angle range, and both
    # replays that rely on it must say so
    monkeypatch.setitem(exact._CERT_PLAN, "Q_mgeq3", Fraction(600, 1000))
    for case_id in ("acute-2", "obtuse-3"):
        report = replay_case(case_id)
        assert report.verdict == "Failed"
        failed = [item for item in report.evidence if not item.passed]
        assert [item.check for item in failed] == ["arctan(1/3) <= 391/1215 <= (3/5)^3"]
        assert failed[0].margin < 0


def test_both_monotone_map_replays_check_the_tiling(monkeypatch):
    # a first window of (0, 2/5] stops short of the re-centering point
    # 444/1000: the two derivative certificates still hold but no longer
    # tile (0, 7/10], and both replays that rely on the angle map must say so
    monkeypatch.setitem(exact._CERT_PLAN, "negP1prime_mono", Fraction(2, 5))
    for case_id in ("acute-2", "obtuse-3"):
        report = replay_case(case_id)
        assert report.verdict == "Failed"
        failed = [item for item in report.evidence if not item.passed]
        assert [item.check for item in failed] == [
            "the two derivative certificates tile (0, 111/125] and 7/10 <= (111/125)^3"
        ]
        assert failed[0].margin < 0


def test_upper_triangle_sample_reaches_the_equilateral_corner():
    tris = harness._sample_triangles()
    apex = math.sqrt(3.0) / 2.0
    assert len(tris) == 498
    assert any(t.a == 0.5 and t.b == apex for t in tris)
    column = sorted(t.b for t in tris if t.a == 0.5)
    assert len(column) == 23 and column[-1] == apex
    assert max(t.b for t in tris) == apex


@pytest.mark.parametrize("case_id", oracle_outputs.REPLAYS)
def test_oracle_backed_replays_pass(case_id):
    # the same report is pinned by test_oracle_outputs_match_the_committed_copy
    report = oracle_outputs.replay_report(case_id)
    assert report.verdict == "VerifiedNumerically"
    assert "oracle" in {item.method for item in report.evidence}
    assert all(item.passed for item in report.evidence), [
        (item.check, item.margin) for item in report.evidence if not item.passed
    ]
    assert all(item.margin >= 0 for item in report.evidence)


def test_series_only_replay_is_numeric_but_passing():
    report = replay_case("rect-monotone")
    assert report.verdict == "VerifiedNumerically"
    assert all(item.passed for item in report.evidence)
    assert all(item.margin >= 0 for item in report.evidence)


def test_unknown_replay_id_raises():
    with pytest.raises(UnknownCase):
        replay_case("case-42")


# ---------------------------------------------------------------------------
# Sweep and scans
# ---------------------------------------------------------------------------


def test_tiny_sweep_is_deterministic_and_sorted(tmp_path):
    grid = {"na": 4, "nb": 4, "b_min": 0.25}
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    rows = sweep_triangles(grid=grid, max_level=4, csv_path=str(path_a))
    sweep_triangles(grid=grid, max_level=4, csv_path=str(path_b))
    assert path_a.read_bytes() == path_b.read_bytes()
    text = path_a.read_text()
    assert text.splitlines()[0] == (
        "a,b,class,lambda1,T,torsion_max,F,margin_low,margin_high"
    )
    assert all(not r.error for r in rows)
    keys = [(r.a, r.b) for r in rows]
    assert keys == sorted(keys)
    for r in rows:
        assert r.margin_low > 0.0
        assert r.margin_high > 0.0
        assert math.pi**2 / 24.0 < r.F < math.pi**2 / 12.0


def test_sweep_rejects_unknown_grid_keys(monkeypatch):
    # a misspelt key used to survey the default heights without a word
    def no_solve(*args):
        raise AssertionError(f"solved {args} before rejecting the grid")

    monkeypatch.setattr(harness, "_sweep_one", no_solve)
    with pytest.raises(ValueError, match=r"unknown grid keys \['bmin'\]"):
        sweep_triangles(grid={"na": 2, "nb": 3, "bmin": 0.5}, max_level=3)


def test_sweep_rejects_degenerate_heights(tmp_path, monkeypatch):
    # a nonpositive b_max used to solve the rows below it, then fail on
    # Triangle(0.5, -0.4) outside the row's try and leave an empty table
    solves = []
    monkeypatch.setattr(pde_oracle, "spectral", lambda *args, **kw: solves.append(args))
    out = tmp_path / "sweep.csv"
    with pytest.raises(ValueError, match="b_min"):
        sweep_triangles(grid={"b_min": 1e-5, "na": 2, "nb": 2}, max_level=4)
    grid = {"na": 2, "nb": 3, "b_min": 0.5, "b_max": -0.4}
    with pytest.raises(ValueError, match="b_max"):
        sweep_triangles(grid=grid, max_level=4, csv_path=str(out))
    argv = ["sweep", "--grid", "2x3", "--bmin", "0.5", "--bmax", "-0.4"]
    with pytest.raises(SystemExit, match="b_max"):
        cli.main(argv + ["--out", str(out)])
    assert solves == []
    assert not out.exists()


@pytest.mark.parametrize(
    "grid, threads, match",
    [
        ({"na": 2.9, "nb": 1, "b_min": 0.5}, 1, "na and nb must be integers"),
        ({"na": 2, "nb": 1.5, "b_min": 0.5}, 1, "na and nb must be integers"),
        ({"na": 2, "nb": 1, "b_min": 0.5}, 2, "threads must be 1"),
        ({"na": 2, "nb": 1, "b_min": 0.5}, 0, "threads must be 1"),
    ],
    ids=["na-2.9", "nb-1.5", "threads-2", "threads-0"],
)
def test_sweep_rejects_a_non_integer_grid_or_another_thread_count_before_any_solve(
    tmp_path, monkeypatch, grid, threads, match
):
    # a non-integer size used to be truncated: na 2.9, nb 1.5 surveyed 2 x 1
    solves = []
    monkeypatch.setattr(pde_oracle, "spectral", lambda *args, **kw: solves.append(args))
    out = tmp_path / "sweep.csv"
    with pytest.raises(ValueError, match=match):
        sweep_triangles(grid=grid, max_level=4, threads=threads, csv_path=str(out))
    assert solves == []
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value", [("--bmin", math.nan), ("--bmax", math.inf)], ids=["bmin-nan", "bmax-inf"]
)
def test_sweep_rejects_non_finite_heights(tmp_path, flag, value):
    out = tmp_path / "sweep.csv"
    key = "b_min" if flag == "--bmin" else "b_max"
    with pytest.raises(ValueError, match="finite"):
        sweep_triangles(grid={key: value, "na": 2, "nb": 3}, max_level=4, csv_path=str(out))
    with pytest.raises(SystemExit, match="finite"):
        cli.main(["sweep", "--grid", "2x3", flag, str(value), "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("grid", ["0x5", "1x4"])
def test_sweep_rejects_a_grid_without_chart_triangles(tmp_path, grid):
    # 0x5 has no column; the one column of 1x4 sits at a = 0, outside the chart
    out = tmp_path / "sweep.csv"
    na, nb = (int(n) for n in grid.split("x"))
    with pytest.raises(ValueError, match="no chart triangle"):
        sweep_triangles(grid={"na": na, "nb": nb}, max_level=4, csv_path=str(out))
    with pytest.raises(SystemExit, match="no chart triangle"):
        cli.main(["sweep", "--grid", grid, "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("level", [1, 12])
def test_sweep_rejects_a_level_outside_the_oracle_range(tmp_path, level):
    # the oracle solves levels 2 to MAX_LEVEL; the sweep says so before
    # any solve instead of writing a table of failed rows
    out = tmp_path / "sweep.csv"
    with pytest.raises(ValueError, match="max_level"):
        sweep_triangles(grid={"na": 2, "nb": 3}, max_level=level, csv_path=str(out))
    with pytest.raises(SystemExit, match="max_level"):
        cli.main(["sweep", "--grid", "2x3", "--level", str(level), "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("grid", ["2x", "2x3x4"])
def test_sweep_rejects_a_malformed_grid(tmp_path, grid):
    out = tmp_path / "sweep.csv"
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--grid", grid, "--out", str(out)])
    text = str(exc.value.code)
    assert text == f"sweep: ValueError: --grid expects NAxNB, got {grid!r}"
    assert not out.exists()


def test_sweep_fails_on_a_missing_out_directory_before_any_solve(tmp_path, monkeypatch):
    # a row keeps the sweep going on any failure, so the calls are recorded
    calls = []

    def no_solve(*args, **kwargs):
        calls.append(args)
        raise AssertionError("solved a row before opening the table")

    monkeypatch.setattr(pde_oracle, "spectral", no_solve)
    out = tmp_path / "missing" / "sweep.csv"
    with pytest.raises(FileNotFoundError):
        sweep_triangles(grid={"na": 2, "nb": 3}, max_level=4, csv_path=str(out))
    assert calls == []


def test_rectangle_scan_shape():
    scan = rect_monotonicity_scan(a_values=[1.0, 2.0, 3.0], n_terms=200)
    assert scan["min_increment_with_slack"] >= 0.0
    assert scan["min_above_square"] >= 0.0
    assert scan["all_above_floor"]
    assert scan["F_values"][0] == pytest.approx(0.6937195061973225, rel=1e-6)
    assert 0.0 < scan["gap_to_limit"] < 0.02


def test_rectangle_scan_rejects_an_empty_grid(monkeypatch):
    # an empty grid used to sum every series and fail with IndexError
    def no_sum(*args, **kwargs):
        raise AssertionError("summed a series before rejecting the grid")

    monkeypatch.setattr(closed_forms, "rect_F", no_sum)
    with pytest.raises(ValueError, match="empty a_values"):
        rect_monotonicity_scan(a_values=[])


def test_exit_time_chain_rejects_an_empty_grid(monkeypatch):
    def no_sum(*args, **kwargs):
        raise AssertionError("summed a series before rejecting the grid")

    monkeypatch.setattr(closed_forms, "rect_center_torsion", no_sum)
    with pytest.raises(ValueError, match="empty a_values"):
        g_remark_check(a_values=[])


def test_exit_time_chain_flags():
    out = g_remark_check(a_values=[1.0, 2.0, 2.5, 3.0], n_terms=128)
    assert out["square_floor_ok"]
    assert out["lambda_is_pi_sq"]
    assert out["threshold_bracket_ok"]
    assert out["strip_bound_ok_at_2.39"]
    assert not out["strip_bound_ok_at_2.38"]
    assert out["stated_cutoff_marginal"]
    assert out["repaired_tail_ok_at_2.38"]
    assert out["tail_below_square"]
    assert out["square_is_max_on_grid"]
    assert out["exit_time_square"] == pytest.approx(0.29468540928265585, rel=1e-6)


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def test_cli_compute_rectangle(capsys):
    code = cli.main(["compute", "--shape", "rect", "--a", "0.5", "--b", "0.5", "--level", "5"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["lambda1"] == pytest.approx(2.0 * math.pi**2, rel=1e-3)
    assert payload["F"] == pytest.approx(0.6937195061973225, rel=1e-3)


def test_cli_compute_triangle(capsys):
    code = cli.main(
        ["compute", "--shape", "triangle", "--a", "0.5", "--b", "0.866025403784", "--level", "5"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["F"] == pytest.approx(math.pi**2 / 15.0, rel=1e-3)
    assert set(payload["observed_order"]) == {"lambda1", "T"}
    assert len(payload["eigen_iterations"]) == len(payload["levels"]) == 3
    assert all(0.0 <= r < 1e-6 for r in payload["eigen_residual"])


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--shape", "rect", "--a", "0.5", "--b", "0.5", "--terms", "0"], "n_terms"),
        (["--shape", "rect", "--a", "-1", "--b", "0.5"], "half-widths"),
        (["--shape", "triangle", "--a", "0.3", "--b", "0.4", "--level", "1"], "max_level"),
        (
            ["--shape", "triangle", "--a", "-1", "--b", "3", "--level", "3"],
            "NonContracting: level differences do not contract",
        ),
    ],
    ids=["terms-0", "a-negative", "level-1", "non-contracting"],
)
def test_cli_compute_reports_bad_input_in_one_line(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["compute"] + argv)
    text = str(exc.value.code)
    assert text.startswith("compute: ") and message in text
    assert "\n" not in text
    assert capsys.readouterr().out == ""


def test_cli_certify_polynomial_file(tmp_path, capsys):
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps(["-1", "1/3"]))
    code = cli.main(["certify", "--poly", str(poly), "--dx", "1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"]
    positive = tmp_path / "pos.json"
    positive.write_text(json.dumps({"coeffs": ["1/10"]}))
    assert cli.main(["certify", "--poly", str(positive), "--dx", "1"]) == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--dx", "0"], "dx must be positive"),
        (["--dx", "-1"], "dx must be positive"),
        (["--dx", "abc"], "--dx must be a rational"),
        (["--dx", "1/0"], "--dx must be a rational"),
        (["--poly", "missing.json"], "cannot read --poly"),
        (["--poly", "nocoeffs.json"], "holds no coefficient list"),
        (["--poly", "notjson.json"], "is not JSON"),
        (["--poly", "badcoeff.json"], "a coefficient must be a rational"),
    ],
    ids=["dx-0", "dx-negative", "dx-abc", "dx-1/0", "missing-file", "no-coeffs", "not-json", "bad-coeff"],
)
def test_cli_certify_reports_bad_input_in_one_line(argv, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "poly.json").write_text(json.dumps(["-1", "1/3"]))
    (tmp_path / "nocoeffs.json").write_text(json.dumps({"x": 1}))
    (tmp_path / "notjson.json").write_text("[-1,")
    (tmp_path / "badcoeff.json").write_text(json.dumps(["-1", "one"]))
    if "--poly" not in argv:
        argv = argv + ["--poly", "poly.json"]
    with pytest.raises(SystemExit) as exc:
        cli.main(["certify"] + argv)
    text = str(exc.value.code)
    assert text.startswith("certify: ") and message in text
    assert "\n" not in text
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("depth", [-1, -3, -5])
def test_negative_certificate_depth_is_rejected(depth, tmp_path, capsys):
    # a negative budget used to run and certify every lemma settled at depth 0
    poly = polycert.RationalPoly((Fraction(-1),))
    with pytest.raises(ValueError, match="max_depth must be nonnegative"):
        polycert.certify_nonpositive(poly, Fraction(1), max_depth=depth)
    with pytest.raises(ValueError, match="max_depth must be nonnegative"):
        certify_all(max_depth=depth)
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(["-1"]))
    for argv in (["--depth", str(depth)], ["--poly", str(path), "--depth", str(depth)]):
        with pytest.raises(SystemExit) as exc:
            cli.main(["certify"] + argv)
        text = str(exc.value.code)
        assert text.startswith("certify: ") and "max_depth" in text
        assert "\n" not in text
    assert capsys.readouterr().out == ""


def test_cli_certify_builtin_plan(capsys):
    assert cli.main(["certify"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert all(entry["ok"] for entry in payload["certificates"])


def test_cli_replay_single_case(capsys):
    assert cli.main(["replay", "--case", "obtuse-2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["obtuse-2"]["verdict"] == "Verified"


def test_cli_sweep_writes_csv(tmp_path, capsys):
    grid = {"na": 2, "nb": 4, "b_min": 0.3, "b_max": 0.8}
    library = tmp_path / "library.csv"
    rows = sweep_triangles(grid=grid, max_level=4, csv_path=str(library))
    assert len(rows) == 4  # a = 0 lies off the chart
    argv = ["sweep", "--grid", "2x4", "--bmin", "0.3", "--bmax", "0.8", "--level", "4"]
    out = tmp_path / "cli.csv"
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == library.read_bytes()
    printed = capsys.readouterr().out
    assert printed.startswith(f"swept {len(rows)} triangles, 0 solver failure(s)")
    # the survey runs one worker; argparse rejects the option it replaced
    other = tmp_path / "threads.csv"
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--threads", "2", "--out", str(other)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
    assert not other.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--shape", "rect", "--a", "0.5", "--b", "0.5"],
        ["sweep", "--grid", "2x3", "--level", "3"],
        ["certify", "--depth", "2"],
        ["replay", "--case", "obtuse-2"],
    ],
    ids=["compute", "sweep", "certify", "replay"],
)
def test_cli_reports_an_unwritable_out_in_one_line(argv, tmp_path, capsys):
    # an --out in a missing directory used to end every command in a traceback
    out = tmp_path / "missing" / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--out", str(out)])
    text = str(exc.value.code)
    assert text.startswith(f"{argv[0]}: FileNotFoundError")
    assert "\n" not in text
    assert capsys.readouterr().out == ""
    assert not out.exists()


def test_cli_replay_reports_an_oracle_failure_in_one_line(monkeypatch, capsys):
    monkeypatch.setattr(pde_oracle, "_EIG_MAXIT", 2)
    with pytest.raises(SystemExit) as exc:
        cli.main(["replay", "--case", "upper-tangential"])
    text = str(exc.value.code)
    assert text.startswith("replay: EigenNotConverged")
    assert "\n" not in text
    assert capsys.readouterr().out == ""

"""End-to-end acceptance checks for the verification toolkit.

Each test pins one promised behavior: exact evaluation speed, certificate
soundness, oracle accuracy against closed forms, series cross-checks, the
full-chart survey, scan direction checks, thinning sharpness, randomized
certifier soundness, the exit-time chain, and the exact side (Bessel zeros,
constants, replays and certificates) run without numpy, scipy or mpmath.

The two limit checks state their thresholds at inputs where an independent
route confirms them.  The strip-limit gap of the aspect-100 rectangle is
0.6203 percent by the single tanh series for rectangle torsion, so the
half-percent window is checked at aspect 200.  The thin isosceles triangle
has F(0.05) = 0.48122 and F(0.04) = 0.47145 by a P2 finite-element solve
with consistent mass on a base mesh split at the altitude foot, so the 0.48
threshold is checked at height 0.04.
"""

import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import exact_outputs
from polya_verify import bounds, closed_forms, exact, harness, pde_oracle
from polya_verify.constants import K, C1
from polya_verify.geometry import Rectangle, Sector, Triangle
from polya_verify.polycert import (
    DepthExhausted,
    RationalPoly,
    certify_nonpositive,
    eval_exact,
    taylor_shift,
)

F_LOW = math.pi**2 / 24.0
F_HIGH = math.pi**2 / 12.0


def test_band_corner_evaluates_exactly_and_fast():
    # exact rational evaluation of the band function at its minimizing corner
    timings = []
    value = None
    for _ in range(5):
        t0 = time.perf_counter()
        value = exact._g_acute_1a(Fraction(1, 2), Fraction(29, 10))
        timings.append(time.perf_counter() - t0)
    assert value == Fraction(501126, 495785)
    assert min(timings) < 1e-3


def test_certificate_plan_completes_quickly():
    results = exact.certify_all(max_depth=40)
    assert len(results) == 4
    for entry in results:
        assert entry["ok"], entry["lemma"]
        assert entry["depth"] <= 40
        assert entry["seconds"] < 10.0


def test_oracle_matches_closed_forms_within_stated_tolerances():
    t0 = time.perf_counter()
    truth = closed_forms.equilateral_exact()
    eq = pde_oracle.spectral(Triangle(0.5, math.sqrt(3.0) / 2.0), max_level=7)
    assert eq.lambda1 == pytest.approx(truth["lambda1"], rel=5e-3)
    assert eq.T == pytest.approx(truth["T"], rel=5e-3)
    assert eq.torsion_max == pytest.approx(1.0 / 36.0, rel=1e-2)
    sq = pde_oracle.spectral(Rectangle(0.5, 0.5), max_level=7)
    assert sq.lambda1 == pytest.approx(2.0 * math.pi**2, rel=2e-3)
    assert time.perf_counter() - t0 < 120.0


def test_series_and_oracle_agree_on_rectangle_and_sector():
    series = closed_forms.rect_F(Rectangle(1.0, 1.0), n_terms=400)
    assert 0.690 <= series.value <= 0.698
    sq = pde_oracle.spectral(Rectangle(1.0, 1.0), max_level=7)
    assert 0.690 <= sq.F <= 0.698
    assert sq.F == pytest.approx(series.value, rel=1e-3)

    sec = Sector(math.pi / 3.0, 1.0)
    res = pde_oracle.spectral(sec, max_level=7)
    lam_truth = closed_forms.bessel_first_zero(3.0) ** 2
    tor_truth = closed_forms.sector_torsion(sec, n_terms=200)
    assert res.lambda1 == pytest.approx(lam_truth, rel=1e-3)
    assert res.T == pytest.approx(tor_truth.value, rel=1e-3)


def test_full_chart_survey_respects_all_bounds():
    rows = harness.sweep_triangles(max_level=6)
    assert len(rows) > 2000
    assert all(not r.error for r in rows)
    for r in rows:
        assert r.margin_low > 0.0, (r.a, r.b)
        assert r.margin_high > 0.0, (r.a, r.b)
        assert F_LOW < r.F < F_HIGH
        for key, gap in r.bound_gaps.items():
            if key.startswith("lower:"):
                assert gap <= 1e-3, (key, r.a, r.b, gap)
            else:
                assert gap >= -1e-3, (key, r.a, r.b, gap)


def test_rectangle_family_is_monotone_with_floor():
    scan = harness.rect_monotonicity_scan()
    assert scan["min_increment_with_slack"] >= 0.0
    assert scan["min_above_square"] > 0.0
    assert scan["all_above_floor"]
    assert scan["floor"] == pytest.approx(64.0 / math.pi**4, rel=1e-15)


def test_wide_rectangle_reaches_strip_limit_within_half_percent():
    # The single tanh series for rectangle torsion (Timoshenko & Goodier,
    # Theory of Elasticity, sec. 109) gives the relative gap to pi^2/12 at
    # aspect r as 1 - (1 + r^-2)(1 - (192/(pi^5 r)) sum_{n odd} tanh(n pi r/2)/n^5).
    # It decays like c/r with c = (192/pi^5) sum_{n odd} n^-5 ~ 0.63025, so
    # it is 0.6203 percent at the scan's fixed aspect 100 and the half-percent
    # window opens only near aspect 124.5.
    scan = harness.rect_monotonicity_scan()
    r, n_max = 100.0, 199
    prefactor = 192.0 / (math.pi**5 * r)
    partial = sum(
        math.tanh(n * math.pi * r / 2.0) / n**5 for n in range(1, n_max + 1, 2)
    )
    single_gap = 1.0 - (1.0 + r**-2) * (1.0 - prefactor * partial)
    # omitted odd n > n_max: sum n^-5 <= (1/2) int_{n_max}^inf x^-5 dx
    single_tail = (1.0 + r**-2) * prefactor * n_max**-4 / 8.0
    slack = scan["F_wide_tail"] / F_HIGH + single_tail
    gap_100 = scan["gap_to_limit"]
    assert abs(gap_100 - single_gap) <= slack, (gap_100, single_gap)

    # F lies in [value - tail_bound, value + tail_bound], so the gap of the
    # lower end bounds the true gap from above
    wide = closed_forms.rect_F(Rectangle(200.0, 1.0), n_terms=600)
    gap = (F_HIGH - (wide.value - wide.tail_bound)) / F_HIGH
    assert 0.0 < gap <= 0.005, gap


def test_thin_triangles_trend_toward_the_lower_limit():
    values = []
    for b in (0.2, 0.1, 0.05):
        res = pde_oracle.spectral(Triangle(0.5, b), max_level=8)
        perimeter = 1.0 + 2.0 * math.hypot(0.5, b)
        cap = bounds.thinning_upper(b / 2.0, perimeter)
        assert res.F > F_LOW
        assert res.F < cap.value
        values.append(res.F)
    assert values[0] > values[1] > values[2]


def test_thin_triangle_functional_drops_below_048():
    # A P2 solve with consistent mass on a base mesh split at the altitude
    # foot (observed order 3.4-3.6 over levels 5-7) gives F(0.04) = 0.47145
    # and F(0.05) = 0.48122; F crosses 0.48 near height 0.0487.  The two
    # asserts bracket that crossing.
    thin = pde_oracle.spectral(Triangle(0.5, 0.04), max_level=8)
    assert thin.F + thin.error_gauge["F"] < 0.48, (thin.F, thin.error_gauge["F"])
    wider = pde_oracle.spectral(Triangle(0.5, 0.05), max_level=8)
    assert wider.F > 0.48, wider.F


def test_randomized_certifier_soundness():
    rng = random.Random(20250815)
    xs = np.linspace(0.0, 1.0, 10001)[1:]
    certified = refuted = 0
    for _ in range(1000):
        deg = rng.randint(0, 6)
        coeffs = tuple(
            Fraction(rng.randint(-40, 40), rng.randint(1, 9))
            for _ in range(deg + 1)
        )
        poly = RationalPoly(coeffs)
        try:
            cert = certify_nonpositive(poly, Fraction(1), max_depth=14)
        except DepthExhausted:
            continue
        dense = [float(c) for c in poly.coeffs][::-1]
        if cert.ok:
            certified += 1
            assert np.polyval(dense, xs).max() <= 1e-9
        else:
            refuted += 1
            x, val = cert.failure_witness
            assert val > 0
            assert eval_exact(poly, x) == val
    assert certified >= 100
    assert refuted >= 100


def test_shift_round_trips_exactly():
    rng = random.Random(7)
    for _ in range(50):
        deg = rng.randint(0, 5)
        coeffs = tuple(
            Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(deg + 1)
        )
        poly = RationalPoly(coeffs)
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 6))
        assert taylor_shift(taylor_shift(poly, c), -c) == poly


def test_bessel_zero_floor_holds_for_all_orders():
    # first positive zero exceeds nu plus the Airy correction term
    c = float(C1) * 2.0 ** (-1.0 / 3.0)
    for nu in range(1, 21):
        assert closed_forms.bessel_first_zero(float(nu)) > nu + c * nu ** (1.0 / 3.0)
    assert float(K) < float(C1)  # the rounded-down constant stays below


# runs exact_outputs with the package's __init__ skipped and every import of
# numpy, scipy and mpmath refused; argv[1] is the package directory
_FENCED_RUN = """
import importlib.abc, json, sys, types

class Refuse(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in ("numpy", "scipy", "mpmath"):
            raise ImportError(name + " is fenced off")

sys.meta_path.insert(0, Refuse())
package = types.ModuleType("polya_verify")
package.__path__ = [sys.argv[1]]
sys.modules["polya_verify"] = package
import exact_outputs
print(json.dumps(exact_outputs.exact_outputs()))
"""


def test_bessel_zeros_replays_and_certificates_run_without_mpmath():
    # the exact side imports no numpy, scipy or mpmath, gives the same JSON
    # fenced and in process, and matches the committed outputs exactly
    here = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=str(here))
    done = subprocess.run(
        [sys.executable, "-c", _FENCED_RUN, str(here.parent / "src" / "polya_verify")],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    fenced = json.loads(done.stdout.splitlines()[-1])
    assert fenced == exact_outputs.exact_outputs()
    assert fenced == json.loads(exact_outputs.PATH.read_text(encoding="utf-8"))
    assert [r["verdict"] for r in fenced["replays"]] == ["Verified"] * 6


def test_oracle_dilation_invariance():
    small = pde_oracle.spectral(Rectangle(0.5, 0.5), max_level=5)
    big = pde_oracle.spectral(Rectangle(1.0, 1.0), max_level=5)
    assert big.F == pytest.approx(small.F, rel=1e-9)


def test_exit_time_chain_and_square_values():
    side = math.sqrt(2.0) / 2.0
    center = closed_forms.rect_center_torsion(Rectangle(side, side), n_terms=512)
    assert 2.0 * center.value == pytest.approx(0.294685, abs=1e-5)
    out = harness.g_remark_check()
    assert out["square_floor_ok"]
    assert out["lambda_is_pi_sq"]
    assert out["threshold_bracket_ok"]
    assert out["repaired_tail_ok_at_2.38"]
    assert out["tail_below_square"]
    assert out["square_is_max_on_grid"]
